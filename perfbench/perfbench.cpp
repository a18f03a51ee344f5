// perfbench — end-to-end benchmark of the Schooner/NPSS reproduction.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>]
//
// Workloads (one per run; perfbench/README.md says why each is there):
//   t2             the paper's Table 2 run: F100 Newton-Raphson balance then
//                  a 1 s Improved-Euler transient, with six component
//                  instances computed remotely over the simulated 1993
//                  testbed. One operation = one whole T2 run.
//   tcp_lockstep   one call of the paper's shaft procedure at a time over
//                  real loopback TCP (the multiplexed bus). One operation =
//                  one call.
//   tcp_pipelined  the same calls with kWindow in flight on one pooled
//                  connection. One operation = one call.
//   line_churn     lines opened and closed against a 3-replica, quorum-
//                  committed Manager: open a line, bind a shared procedure
//                  and call it, quit. One operation = one line lifecycle.
//
// A run pins itself to kCpus CPUs, sets the workload up kSetups times
// (setup_s is the median), runs operations back to back from one client
// for --seconds, and finally checks the outputs. Inputs come from --seed
// only. Every time is wall-clock or CPU time as measured. The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run also times every remote request the client makes (benchmark-side
// spans) and reports per-layer figures, partly read from the program's
// own obs::Registry; --spans then writes the first kKeptSpans spans as
// JSON lines.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <sched.h>

#include "bench/testbed.hpp"
#include "obs/metrics.hpp"
#include "rpc/tcp_transport.hpp"
#include "tess/components.hpp"
#include "tess/engine.hpp"

namespace npss::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using uts::Value;

constexpr int kCpus = 2;     ///< CPUs a run may use
constexpr int kSetups = 9;   ///< set-ups per run; setup_s is the median
/// tcp_pipelined calls in flight: the window of the repository's own
/// throughput bench (bench/bench_throughput.cpp).
constexpr std::size_t kWindow = 256;
constexpr std::size_t kKeptSpans = 20000;

/// Confine the process (and so every thread it will start) to the kCpus
/// highest CPUs it may run on, or to all of them if it has fewer. Threads
/// still run side by side and hand work across CPUs as they would
/// unpinned, but on the same CPUs in every run.
bool pin_cpus() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  int taken = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && taken < kCpus; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &chosen);
    ++taken;
  }
  return taken > 0 && sched_setaffinity(0, sizeof(chosen), &chosen) == 0;
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// CPU time of the whole process (every thread it runs), in microseconds.
double process_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

/// splitmix64: the whole input stream follows from --seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  int below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }

 private:
  std::uint64_t state_;
};

/// Per-operation outcomes plus, when tracing, the time the client spent
/// inside remote requests (data-plane calls and Manager requests alike).
class Recorder {
 public:
  explicit Recorder(bool trace) : trace_(trace) {}

  void op(double us, bool ok) {
    ++attempted_;
    if (ok) {
      latencies_us_.push_back(us);
    } else {
      ++failed_;
    }
  }

  bool tracing() const { return trace_; }

  /// RAII span around one remote request; free when not tracing.
  class Span {
   public:
    Span(Recorder& rec, const char* name) : rec_(rec), name_(name) {
      if (rec_.trace_) start_ = Clock::now();
    }
    ~Span() {
      if (rec_.trace_) rec_.close(name_, start_, Clock::now());
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Recorder& rec_;
    const char* name_;
    Clock::time_point start_;
  };

  std::vector<double>& latencies_us() { return latencies_us_; }
  long attempted() const { return attempted_; }
  long failed() const { return failed_; }
  double rpc_us() const { return rpc_us_; }

  void write_spans(const std::string& path, Clock::time_point origin) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return;
    for (const Kept& s : kept_) {
      std::fprintf(f,
                   "{\"op\": %ld, \"layer\": \"rpc\", \"name\": \"%s\", "
                   "\"start_us\": %.3f, \"duration_us\": %.3f}\n",
                   s.op, s.name, us_between(origin, s.start), s.duration_us);
    }
    std::fclose(f);
  }

 private:
  struct Kept {
    long op;
    const char* name;
    Clock::time_point start;
    double duration_us;
  };

  void close(const char* name, Clock::time_point start, Clock::time_point end) {
    const double us = us_between(start, end);
    rpc_us_ += us;
    if (kept_.size() < kKeptSpans) kept_.push_back({attempted_, name, start, us});
  }

  bool trace_;
  std::vector<double> latencies_us_;
  long attempted_ = 0;
  long failed_ = 0;
  double rpc_us_ = 0.0;
  std::vector<Kept> kept_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Run operations back to back until `until`, recording each.
  virtual void run(Clock::time_point until, Recorder& rec) = 0;
  /// Output checks too costly for the timed loop; runs after it.
  virtual bool verify() { return true; }
};

// --- t2: the paper's Table 2 run --------------------------------------------

/// One T2 input: steady fuel flow, and the throttle step of the transient.
struct Throttle {
  double wf_steady;
  double wf_step;
  double t_step;
};

/// What a T2 run reports: spool speeds, T4 and thrust, steady and final.
using T2Outcome = std::array<double, 8>;

/// The Table 2 run on `engine`: balance, then the 1 s transient.
T2Outcome run_t2(tess::EngineModel& engine, const Throttle& in) {
  const tess::FlightCondition sls;
  const tess::SteadyResult steady = engine.balance(in.wf_steady, sls);
  const tess::FuelSchedule schedule = [in](double t) {
    return t < in.t_step ? in.wf_steady : in.wf_step;
  };
  const tess::TransientResult tr = engine.transient(
      steady.performance.speeds, schedule, sls, 1.0, 0.02,
      solvers::IntegratorKind::kModifiedEuler);
  const tess::Performance& s = steady.performance;
  const tess::Performance& e = tr.history.back().performance;
  return {s.speeds[0], s.speeds[1], s.t4, s.thrust,
          e.speeds[0], e.speeds[1], e.t4, e.thrust};
}

/// Remote results cross the wire as UTS single floats, which raises the
/// attainable residual (EngineModel::set_solver_tolerances); the paper's
/// check was agreement with the all-local run to that precision.
constexpr double kFlowTolerance = 5e-6;
constexpr double kBalanceTolerance = 1e-4;
constexpr double kT2Tolerance = 1e-3;

/// The placement of bench/bench_table2.cpp on the shared paper testbed.
class T2Workload final : public Workload {
 public:
  explicit T2Workload(std::uint64_t seed) {
    Rng rng(seed);
    for (Throttle& in : inputs_) {
      in = {rng.uniform(0.98, 1.02), rng.uniform(1.25, 1.29),
            rng.uniform(0.08, 0.12)};
    }
    backend_ = std::make_unique<glue::RemoteBackend>(*testbed_.schooner,
                                                     "sparc-ua");
    using glue::AdaptedComponent;
    backend_->place(AdaptedComponent::kCombustor, 0, {"sgi340-ua", ""});
    backend_->place(AdaptedComponent::kDuct, 0, {"cray-lerc", ""});
    backend_->place(AdaptedComponent::kDuct, 1, {"cray-lerc", ""});
    backend_->place(AdaptedComponent::kNozzle, 0, {"sgi420-lerc", ""});
    backend_->place(AdaptedComponent::kShaft, 0, {"rs6000-lerc", ""});
    backend_->place(AdaptedComponent::kShaft, 1, {"rs6000-lerc", ""});
    backend_->set_local_fallback(false);
    // One thermodynamic evaluation binds every placed stub.
    tess::F100Engine engine;
    engine.set_hooks(backend_->hooks());
    engine.set_solver_tolerances(kFlowTolerance, kBalanceTolerance);
    engine.evaluate(engine.design_states(), engine.design_fuel_flow(),
                    tess::FlightCondition{});
  }

  void run(Clock::time_point until, Recorder& rec) override {
    const tess::ComponentHooks hooks =
        rec.tracing() ? traced(backend_->hooks(), rec) : backend_->hooks();
    while (Clock::now() < until) {
      const int which = next_++ % static_cast<int>(inputs_.size());
      const auto t0 = Clock::now();
      bool ok = true;
      try {
        tess::F100Engine engine;
        engine.set_hooks(hooks);
        engine.set_solver_tolerances(kFlowTolerance, kBalanceTolerance);
        outcomes_.emplace_back(which, run_t2(engine, inputs_[which]));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "t2 run failed: %s\n", e.what());
        ok = false;
      }
      rec.op(us_between(t0, Clock::now()), ok);
    }
  }

  /// Every remote run must match the all-local run of the same input.
  bool verify() override {
    if (backend_->degraded_calls() != 0) return false;
    std::map<int, T2Outcome> local;
    for (const auto& [which, remote] : outcomes_) {
      if (!local.count(which)) {
        tess::F100Engine engine;
        local[which] = run_t2(engine, inputs_[which]);
      }
      const T2Outcome& ref = local[which];
      for (std::size_t k = 0; k < ref.size(); ++k) {
        if (!(std::abs(remote[k] / ref[k] - 1.0) <= kT2Tolerance)) {
          std::fprintf(stderr, "t2 mismatch: input %d field %zu: %g vs %g\n",
                       which, k, remote[k], ref[k]);
          return false;
        }
      }
    }
    return !outcomes_.empty();
  }

 private:
  template <typename Fn>
  static Fn wrap(Fn fn, Recorder& rec, const char* name) {
    return [fn = std::move(fn), &rec, name](auto... args) {
      Recorder::Span span(rec, name);
      return fn(args...);
    };
  }
  static tess::ComponentHooks traced(tess::ComponentHooks h, Recorder& rec) {
    h.duct = wrap(std::move(h.duct), rec, "duct");
    h.combustor = wrap(std::move(h.combustor), rec, "combustor");
    h.nozzle = wrap(std::move(h.nozzle), rec, "nozzle");
    h.setshaft = wrap(std::move(h.setshaft), rec, "setshaft");
    h.shaft = wrap(std::move(h.shaft), rec, "shaft");
    return h;
  }

  std::array<Throttle, 4> inputs_;
  int next_ = 0;  ///< operations run so far; picks the input in turn
  bench::Testbed testbed_;
  std::unique_ptr<glue::RemoteBackend> backend_;
  std::vector<std::pair<int, T2Outcome>> outcomes_;
};

// --- tcp_lockstep / tcp_pipelined --------------------------------------------

/// One call of the paper's shaft procedure (§3.3).
struct ShaftInput {
  std::array<double, 4> ecom, etur;
  double ecorr, xspool, xmyi;
  double dxspl;  ///< the all-local result
};

/// dxspl crosses the wire as a UTS single float, converted through Cray
/// words on the host; a relative error of 1e-4 leaves a wide margin.
constexpr double kShaftTolerance = 1e-4;

void serve_shaft(rpc::ProcCall& c) {
  const std::vector<double> ecom = c.reals("ecom"), etur = c.reals("etur");
  c.set_real("dxspl",
             tess::shaft(ecom.data(), static_cast<int>(c.integer("incom")),
                         etur.data(), static_cast<int>(c.integer("intur")),
                         c.real("ecorr"), c.real("xspool"), c.real("xmyi")));
}

/// The program's TCP traffic as examples/tcp_demo.cpp makes it: the shaft
/// procedure hosted with a Cray personality and called from a Sparc, so
/// every value converts on both ends.
class TcpWorkload final : public Workload {
 public:
  TcpWorkload(std::uint64_t seed, bool pipelined) : pipelined_(pipelined) {
    Rng rng(seed);
    inputs_.resize(4096);
    for (ShaftInput& in : inputs_) {
      // Delivered power stays well above absorbed power, so the net
      // power (and dxspl) is never a near-cancellation.
      in.ecom = {rng.uniform(9.5e6, 10.5e6), 100.0, 1.0e5, 0.85};
      in.etur = {rng.uniform(11.0e6, 12.0e6), 100.0, 1.08e5, 0.89};
      in.ecorr = rng.uniform(0.98, 1.0);
      in.xspool = rng.uniform(9000.0, 11000.0);
      in.xmyi = rng.uniform(30.0, 50.0);
      in.dxspl = tess::shaft(in.ecom.data(), 1, in.etur.data(), 1, in.ecorr,
                             in.xspool, in.xmyi);
    }
    host_ = std::make_unique<rpc::TcpProcedureHost>(
        glue::kShaftSpec, std::vector<rpc::ProcedureDef>{{"shaft", serve_shaft}},
        "cray-ymp");
    proc_ = std::make_unique<rpc::TcpRemoteProc>(
        "127.0.0.1", host_->port(), "shaft", glue::shaft_import_spec(),
        "sun-sparc10");
    once_.max_attempts = 1;
    rpc::CallResult warm = proc_->call(args(0), once_);
    if (!correct(warm, 0)) throw util::CallError("tcp warm-up call failed");
  }

  void run(Clock::time_point until, Recorder& rec) override {
    if (pipelined_) {
      run_pipelined(until, rec);
    } else {
      run_lockstep(until, rec);
    }
  }

 private:
  uts::ValueList args(std::size_t i) const {
    const ShaftInput& in = inputs_[i % inputs_.size()];
    return {Value::real_array({in.ecom[0], in.ecom[1], in.ecom[2], in.ecom[3]}),
            Value::integer(1),
            Value::real_array({in.etur[0], in.etur[1], in.etur[2], in.etur[3]}),
            Value::integer(1),
            Value::real(in.ecorr),
            Value::real(in.xspool),
            Value::real(in.xmyi),
            Value::real(0)};
  }
  bool correct(const rpc::CallResult& r, std::size_t i) const {
    const double want = inputs_[i % inputs_.size()].dxspl;
    return r.ok() && r.values.size() == 8 &&
           std::abs(r.values[7].as_real() / want - 1.0) <= kShaftTolerance;
  }

  void run_lockstep(Clock::time_point until, Recorder& rec) {
    while (Clock::now() < until) {
      const std::size_t i = next_++;
      const auto t0 = Clock::now();
      rpc::CallResult r;
      {
        Recorder::Span span(rec, "shaft");
        r = proc_->call(args(i), once_);
      }
      rec.op(us_between(t0, Clock::now()), correct(r, i));
    }
  }

  /// A sliding window, as in bench/bench_throughput.cpp: the oldest call
  /// is reaped before each new issue, so the connection always carries
  /// kWindow in-flight calls.
  void run_pipelined(Clock::time_point until, Recorder& rec) {
    struct InFlight {
      rpc::PendingTcpCall call;
      std::size_t index;
      Clock::time_point issued;
    };
    std::deque<InFlight> window;
    auto reap = [&] {
      InFlight& f = window.front();
      bool ok;
      {
        Recorder::Span span(rec, "shaft.get");
        ok = correct(f.call.get(), f.index);
      }
      rec.op(us_between(f.issued, Clock::now()), ok);
      window.pop_front();
    };
    while (Clock::now() < until) {
      if (window.size() >= kWindow) reap();
      const std::size_t i = next_++;
      const auto issued = Clock::now();
      Recorder::Span span(rec, "shaft.issue");
      window.push_back({proc_->call_async(args(i)), i, issued});
    }
    while (!window.empty()) reap();
  }

  bool pipelined_;
  std::size_t next_ = 0;  ///< calls issued so far; picks the input in turn
  std::vector<ShaftInput> inputs_;
  std::unique_ptr<rpc::TcpProcedureHost> host_;
  std::unique_ptr<rpc::TcpRemoteProc> proc_;
  rpc::CallOptions once_;
};

// --- line_churn: control-plane line lifecycles -------------------------------

constexpr int kChurnHosts = 4;

/// Shared procedures live in one Manager-wide name space, so each shared
/// host exports its own name: work0 .. work3.
std::string work_decl(const char* kind, int host) {
  std::string decl = kind;
  decl += " work";
  decl += std::to_string(host);
  decl += " prog(\"x\" val double, \"y\" res double)";
  return decl;
}

class ChurnWorkload final : public Workload {
 public:
  explicit ChurnWorkload(std::uint64_t seed) : rng_(seed) {
    cluster_.add_machine("avs", "sun-sparc10", "lab");
    cluster_.add_machine("replica1", "sgi-4d420", "lab");
    cluster_.add_machine("replica2", "ibm-rs6000", "lab");
    for (int m = 0; m < kChurnHosts; ++m) {
      std::string name = "work";
      name += std::to_string(m);
      cluster_.add_machine(machine(m), m % 2 ? "cray-ymp" : "ibm-rs6000",
                           "lab");
      cluster_.install_image(
          machine(m), "/bin/work",
          rpc::make_procedure_image(work_decl("export", m),
                                    {{name, [](rpc::ProcCall& c) {
                                        c.set_real("y",
                                                   2.0 * c.real("x") + 1.0);
                                      }}}));
    }
    cluster_.set_intra_site_link(sim::link_profile("ethernet-lan"));
    rpc::SystemOptions options;
    options.manager_replicas = 3;
    options.replica_machines = {"replica1", "replica2"};
    schooner_ = std::make_unique<rpc::SchoonerSystem>(cluster_, "avs", options);
    session_ = schooner_->make_session("avs");
    // The owner line starts the shared hosts and stays open; churned lines
    // bind to them without starting processes of their own.
    owner_ = session_->open_line(rpc::LineOptions{}.with_name("owner"));
    for (int m = 0; m < kChurnHosts; ++m) {
      owner_->contact_schx(machine(m), "/bin/work", /*shared=*/true);
    }
    Recorder warm(false);
    if (!cycle(warm)) throw util::CallError("line_churn warm-up cycle failed");
  }

  void run(Clock::time_point until, Recorder& rec) override {
    while (Clock::now() < until) {
      const auto t0 = Clock::now();
      const bool ok = cycle(rec);
      rec.op(us_between(t0, Clock::now()), ok);
    }
  }

  /// Every churned line was admitted and shut down again; the owner line
  /// is the one still open.
  bool verify() override {
    owner_->quit();
    schooner_->stop();
    const rpc::ManagerStats s = schooner_->stats();
    const auto lines = static_cast<std::uint64_t>(cycles_ + 1);
    if (s.lines_created != lines || s.lines_shut_down != lines ||
        s.processes_started != kChurnHosts) {
      std::fprintf(stderr,
                   "line_churn: %ld cycles but %llu lines created, %llu shut "
                   "down, %llu processes started\n",
                   cycles_, static_cast<unsigned long long>(s.lines_created),
                   static_cast<unsigned long long>(s.lines_shut_down),
                   static_cast<unsigned long long>(s.processes_started));
      return false;
    }
    return true;
  }

 private:
  static std::string machine(int m) {
    std::string name = "m";
    name += std::to_string(m);
    return name;
  }

  /// One line lifecycle: open (a quorum-committed registration), bind a
  /// shared procedure and call it, quit (a committed shutdown).
  bool cycle(Recorder& rec) {
    ++cycles_;
    const int host = rng_.below(kChurnHosts);
    const double x = rng_.uniform(-1000.0, 1000.0);
    try {
      std::unique_ptr<rpc::Line> line;
      {
        Recorder::Span span(rec, "open_line");
        line = session_->open_line(
            rpc::LineOptions{}.with_name("churn" + std::to_string(cycles_)));
      }
      std::string name = "work";
      name += std::to_string(host);
      std::unique_ptr<rpc::RemoteProc> work =
          line->import_proc(name, work_decl("import", host));
      rpc::CallResult r;
      {
        Recorder::Span span(rec, "bind+call");
        r = work->call({Value::real(x), Value::real(0.0)}, rpc::CallOptions{});
      }
      work.reset();
      {
        Recorder::Span span(rec, "quit");
        line->quit();
      }
      if (!r.ok()) {
        std::fprintf(stderr, "line_churn call failed: %s\n",
                     r.status.to_string().c_str());
        return false;
      }
      return r.values.size() == 2 &&
             std::abs(r.values[1].as_real() - (2.0 * x + 1.0)) < 1e-6;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "line_churn cycle failed: %s\n", e.what());
      return false;
    }
  }

  Rng rng_;
  long cycles_ = 0;
  sim::Cluster cluster_;
  std::unique_ptr<rpc::SchoonerSystem> schooner_;
  std::unique_ptr<rpc::Session> session_;
  std::unique_ptr<rpc::Line> owner_;
};

// --- harness -----------------------------------------------------------------

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "t2") return std::make_unique<T2Workload>(seed);
  if (name == "tcp_lockstep") return std::make_unique<TcpWorkload>(seed, false);
  if (name == "tcp_pipelined") return std::make_unique<TcpWorkload>(seed, true);
  return std::make_unique<ChurnWorkload>(seed);
}

/// Nearest-rank percentile of an ascending sample.
double percentile(const std::vector<double>& sorted, double q) {
  const std::size_t n = sorted.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return sorted[std::clamp<std::size_t>(rank, 1, n) - 1];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Registry figures read before and after the timed loop.
struct RegistryView {
  std::uint64_t client_calls, host_calls, frames_sent, bytes_sent, coalesced,
      manager_requests, log_appends, rhs_evaluations;
  double client_call_us, host_serve_us;

  static RegistryView read() {
    obs::Registry& reg = obs::Registry::global();
    auto c = [&](const char* name) { return reg.counter(name).value(); };
    RegistryView v;
    v.client_calls = c("rpc.client.calls");
    v.host_calls = c("rpc.host.calls");
    v.frames_sent = c("rpc.transport.frames_sent");
    v.bytes_sent = c("rpc.transport.bytes_sent");
    v.coalesced = c("rpc.bus.frames_coalesced");
    v.manager_requests = c("rpc.manager.lines_created") +
                         c("rpc.manager.processes_started") +
                         c("rpc.manager.lookups") +
                         c("rpc.manager.lines_shut_down");
    v.log_appends = c("rpc.meta.log_appends");
    v.rhs_evaluations = c("tess.engine.rhs_evaluations");
    v.client_call_us = reg.histogram("rpc.client.latency_us").sum();
    v.host_serve_us = reg.histogram("rpc.host.handler_us").sum();
    return v;
  }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

int run(int argc, char** argv) {
  std::string workload, spans_path;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const bool known = workload == "t2" || workload == "tcp_lockstep" ||
                     workload == "tcp_pipelined" || workload == "line_churn";
  if (!known || !(seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <t2|tcp_lockstep|tcp_pipelined|"
                 "line_churn> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }

  if (!pin_cpus()) {
    std::fprintf(stderr, "perfbench: cannot pin to %d CPUs\n", kCpus);
    return 1;
  }

  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();
    const auto t0 = Clock::now();
    w = make_workload(workload, seed);
    setup_s.push_back(us_between(t0, Clock::now()) / 1e6);
  }

  Recorder rec(trace);
  const RegistryView before = RegistryView::read();
  const double cpu_before_us = process_cpu_us();
  const auto start = Clock::now();
  w->run(start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds)),
         rec);
  const double elapsed_us = us_between(start, Clock::now());
  const double cpu_us = process_cpu_us() - cpu_before_us;
  const RegistryView after = RegistryView::read();
  const bool verified = w->verify();
  w.reset();

  std::vector<double>& lat = rec.latencies_us();
  std::sort(lat.begin(), lat.end());
  const bool correct = verified && rec.failed() == 0 && !lat.empty();
  if (lat.empty()) lat.push_back(0.0);
  const double ok_ops =
      static_cast<double>(std::max(1L, rec.attempted() - rec.failed()));

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"op_p50_us", percentile(lat, 0.50), "us"},
        {"op_p90_us", percentile(lat, 0.90), "us"},
        {"ops_per_s", static_cast<double>(rec.attempted() - rec.failed()) /
                          (elapsed_us / 1e6),
         "1/s"},
        {"cpu_us_per_op", cpu_us / ok_ops, "us"},
        {"setup_s", median(setup_s), "s"},
    };
  } else {
    const double ops = static_cast<double>(std::max(1L, rec.attempted()));
    const double calls =
        static_cast<double>(std::max<std::uint64_t>(
            1, after.client_calls - before.client_calls));
    const double host_calls = static_cast<double>(
        std::max<std::uint64_t>(1, after.host_calls - before.host_calls));
    const double client_call_us =
        (after.client_call_us - before.client_call_us) / calls;
    const double host_serve_us =
        (after.host_serve_us - before.host_serve_us) / host_calls;
    auto per = [](std::uint64_t a, std::uint64_t b, double base) {
      return static_cast<double>(a - b) / base;
    };
    metrics = {
        {"traced_op_p50_us", percentile(lat, 0.50), "us"},
        {"rpc_us_per_op", rec.rpc_us() / ops, "us"},
        {"local_us_per_op", (elapsed_us - rec.rpc_us()) / ops, "us"},
        {"client_call_us", client_call_us, "us"},
        {"host_serve_us", host_serve_us, "us"},
        {"transport_us", client_call_us - host_serve_us, "us"},
        {"rpc_calls_per_op", calls / ops, "count"},
        {"frames_per_op",
         per(after.frames_sent, before.frames_sent, ops), "count"},
        {"wire_bytes_per_op",
         per(after.bytes_sent, before.bytes_sent, ops), "bytes"},
        {"coalesced_frames_per_op",
         per(after.coalesced, before.coalesced, ops), "count"},
        {"manager_requests_per_op",
         per(after.manager_requests, before.manager_requests, ops), "count"},
        {"log_appends_per_op",
         per(after.log_appends, before.log_appends, ops), "count"},
        {"solver_rhs_evals_per_op",
         per(after.rhs_evaluations, before.rhs_evaluations, ops), "count"},
    };
    if (!spans_path.empty()) rec.write_spans(spans_path, start);
  }

  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", rec.attempted(), rec.failed());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace npss::perfbench

int main(int argc, char** argv) {
  try {
    return npss::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
