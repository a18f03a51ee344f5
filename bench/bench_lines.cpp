// A4 — multi-tenant lines (§4.2, DESIGN.md §15).
//
// The lines extension lets several sequential threads of control share one
// persistent Manager, with duplicate procedure names across lines. This
// bench measures four shapes:
//   1. host-side throughput scaling as independent lines call same-named
//      remote procedures concurrently,
//   2. full line lifecycles (create -> start -> call -> quit) at
//      increasing concurrency — the Manager's bookkeeping contention,
//   3. steady state: N lines held open against a resident shared fleet,
//      stepped by a small worker pool — sustained calls/sec and per-step
//      p99 as the line count sweeps 1 -> 2000, and
//   4. noisy-neighbor isolation: one line behind a 100%-lossy link, with a
//      LineBudget, storms while its neighbors keep calling — their p99
//      must not move by more than 10%.
// Writes BENCH_lines.json next to the binary.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/percentile.hpp"
#include "bench/testbed.hpp"

namespace npss {
namespace {

const char* kWorkSpec = "export work prog(\"x\" val double, \"y\" res double)";
const char* kWorkImport =
    "import work prog(\"x\" val double, \"y\" res double)";

// The shared four-machine fleet: lines spread round-robin across m0..m3.
std::string fleet_machine(int i) {
  std::string name = "m";
  name += std::to_string(i % 4);
  return name;
}

// Shared procedures share one Manager-wide name space, so each fleet host
// exports a distinct name (work0..work3); tenants import without
// contacting — the fleet-owner line started the hosts.
std::string fleet_proc(int i) {
  std::string name = "work";
  name += std::to_string(i % 4);
  return name;
}
std::string fleet_spec(int i) {
  return "export " + fleet_proc(i) +
         " prog(\"x\" val double, \"y\" res double)";
}
std::string fleet_import(int i) {
  return "import " + fleet_proc(i) +
         " prog(\"x\" val double, \"y\" res double)";
}

struct SteadyPoint {
  int nlines = 0;
  long calls = 0;
  double open_ms = 0.0;
  double calls_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

struct NoisyResult {
  double baseline_p99_us = 0.0;
  double with_noisy_p99_us = 0.0;
  double delta_pct = 0.0;
  bool bound_met = false;
  long victim_failed_calls = 0;
  bool victim_budget_exhausted = false;
};

/// One measurement pass: `workers` threads step their share of `lines`
/// round-robin, `steps` calls per line, recording each step's wall
/// latency. Lines stay open; the Manager is out of the per-call path.
template <typename LineVec>
void step_lines(LineVec& lines,
                std::vector<std::unique_ptr<rpc::RemoteProc>>& procs,
                int steps, int workers, std::vector<double>& latencies_us) {
  using clock_type = std::chrono::steady_clock;
  std::mutex mu;
  std::vector<std::thread> pool;
  const std::size_t n = lines.size();
  const rpc::CallOptions opts = rpc::CallOptions::legacy();
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      std::vector<double> mine;
      for (int s = 0; s < steps; ++s) {
        for (std::size_t i = static_cast<std::size_t>(w); i < n;
             i += static_cast<std::size_t>(workers)) {
          const auto t0 = clock_type::now();
          rpc::CallResult r = procs[i]->call(
              {uts::Value::real(s), uts::Value::real(0)}, opts);
          if (!r.ok()) continue;  // counted by the caller via latencies size
          mine.push_back(std::chrono::duration<double, std::micro>(
                             clock_type::now() - t0)
                             .count());
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      latencies_us.insert(latencies_us.end(), mine.begin(), mine.end());
    });
  }
  for (auto& t : pool) t.join();
}

int run() {
  bench::print_header(
      "A4 — multi-tenant lines: shared fleet, fairness, fault budgets");

  sim::Cluster cluster;
  cluster.add_machine("avs", "sun-sparc10", "a");
  for (int m = 0; m < 4; ++m) {
    cluster.add_machine(fleet_machine(m), "ibm-rs6000", "a");
  }
  cluster.add_machine("far", "ibm-rs6000", "b");
  cluster.set_site_link("a", "b", sim::link_profile("internet-wan"));
  // The shared fleet serves many lines concurrently: a pooled host drains
  // per-line FIFO lanes round-robin (util::FairQueue).
  rpc::ProcedureImageOptions pooled;
  pooled.workers = 2;
  for (int m = 0; m < 4; ++m) {
    // Per-line hosts (section 1 and 2) export plain 'work'; the shared
    // fleet hosts (sections 3 and 4) export work0..work3.
    cluster.install_image(
        fleet_machine(m), "/bin/work",
        rpc::make_procedure_image(kWorkSpec,
                                  {{"work",
                                    [](rpc::ProcCall& c) {
                                      c.set_real("y", c.real("x") + 1.0);
                                    }}},
                                  pooled));
    cluster.install_image(
        fleet_machine(m), "/bin/fleet",
        rpc::make_procedure_image(fleet_spec(m),
                                  {{fleet_proc(m),
                                    [](rpc::ProcCall& c) {
                                      c.set_real("y", c.real("x") + 1.0);
                                    }}},
                                  pooled));
  }
  cluster.install_image(
      "far", "/bin/work",
      rpc::make_procedure_image(kWorkSpec, {{"work", [](rpc::ProcCall& c) {
                                   c.set_real("y", c.real("x") + 1.0);
                                 }}}));
  rpc::SchoonerSystem schooner(cluster, "avs");
  auto session = schooner.make_session("avs");
  const rpc::CallOptions legacy = rpc::CallOptions::legacy();

  // The fleet-owner line starts the four resident shared hosts that
  // sections 3 and 4 step against; it stays open for the whole run.
  auto fleet_owner =
      session->open_line(rpc::LineOptions{}.with_name("fleet-owner"));
  for (int m = 0; m < 4; ++m) {
    fleet_owner->contact_schx(fleet_machine(m), "/bin/fleet",
                              /*shared=*/true);
  }

  // --- 1. Concurrent-line throughput (per-line processes) -----------------
  const int kCalls = 400;
  std::printf("%8s %14s %16s %14s\n", "lines", "total calls", "wall ms",
              "calls/ms");
  bench::print_rule();
  for (int nlines : {1, 2, 4, 8}) {
    util::Stopwatch wall;
    std::vector<std::thread> threads;
    std::atomic<long> completed{0};
    for (int i = 0; i < nlines; ++i) {
      threads.emplace_back([&, i] {
        auto line = session->open_line(
            rpc::LineOptions{}.with_name("line" + std::to_string(i)));
        line->contact_schx(fleet_machine(i), "/bin/work");
        auto work = line->import_proc("work", kWorkImport);
        for (int c = 0; c < kCalls; ++c) {
          work->call({uts::Value::real(c), uts::Value::real(0)}, legacy)
              .values_or_raise();
          ++completed;
        }
        line->quit();
      });
    }
    for (auto& t : threads) t.join();
    const double ms = wall.elapsed_ms();
    std::printf("%8d %14ld %16.1f %14.1f\n", nlines, completed.load(), ms,
                completed.load() / ms);
  }

  // --- 2. Line-lifecycle scaling ------------------------------------------
  // Every thread runs full line cycles (create -> start -> one call ->
  // quit) and records each cycle's wall latency; the Manager serializes
  // the bookkeeping, so this is the control-plane contention curve.
  struct LinePoint {
    int nlines = 0;
    long cycles = 0;
    double lines_per_sec = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
  };
  std::vector<LinePoint> line_points;
  const int kCyclesPerThread = 50;
  std::printf("\n%8s %10s %14s %12s %12s\n", "lines", "cycles", "lines/sec",
              "p50 ms", "p99 ms");
  bench::print_rule();
  for (int nlines : {1, 2, 4, 8}) {
    std::vector<double> latencies;
    std::mutex mu;
    util::Stopwatch wall;
    std::vector<std::thread> threads;
    for (int i = 0; i < nlines; ++i) {
      threads.emplace_back([&, i] {
        std::vector<double> mine;
        for (int c = 0; c < kCyclesPerThread; ++c) {
          util::Stopwatch cycle;
          auto line = session->open_line(
              rpc::LineOptions{}.with_name("cycle" + std::to_string(i)));
          std::string machine = "m";
          machine += std::to_string(i % 4);
          line->contact_schx(machine, "/bin/work");
          auto work = line->import_proc("work", kWorkImport);
          work->call({uts::Value::real(c), uts::Value::real(0)}, legacy)
              .values_or_raise();
          line->quit();
          mine.push_back(cycle.elapsed_ms());
        }
        std::lock_guard<std::mutex> lock(mu);
        latencies.insert(latencies.end(), mine.begin(), mine.end());
      });
    }
    for (auto& t : threads) t.join();
    const double ms = wall.elapsed_ms();
    std::sort(latencies.begin(), latencies.end());
    LinePoint point;
    point.nlines = nlines;
    point.cycles = static_cast<long>(latencies.size());
    point.lines_per_sec = point.cycles / (ms / 1000.0);
    point.p50_ms = bench::percentile(latencies, 0.50);
    point.p99_ms = bench::percentile(latencies, 0.99);
    line_points.push_back(point);
    std::printf("%8d %10ld %14.1f %12.2f %12.2f\n", point.nlines,
                point.cycles, point.lines_per_sec, point.p50_ms,
                point.p99_ms);
  }

  // --- 3. Steady state: lines held open against the shared fleet ----------
  // N lines bind shared 'work' instances once, then a fixed worker pool
  // steps them round-robin: sustained calls/sec and per-step latency as
  // the held-open line count sweeps 1 -> 2000. The Manager sees only the
  // opens; the call path is line endpoint -> shared host.
  std::vector<SteadyPoint> steady_points;
  const int kStepWorkers = 8;
  std::printf("\n%8s %10s %12s %14s %10s %10s\n", "lines", "calls",
              "open ms", "calls/sec", "p50 us", "p99 us");
  bench::print_rule();
  for (int nlines : {1, 8, 64, 256, 1000, 2000}) {
    util::Stopwatch open_watch;
    std::vector<std::unique_ptr<rpc::Line>> lines;
    std::vector<std::unique_ptr<rpc::RemoteProc>> procs;
    lines.reserve(static_cast<std::size_t>(nlines));
    procs.reserve(static_cast<std::size_t>(nlines));
    for (int i = 0; i < nlines; ++i) {
      auto line = session->open_line(
          rpc::LineOptions{}.with_name("steady" + std::to_string(i)));
      procs.push_back(line->import_proc(fleet_proc(i), fleet_import(i)));
      lines.push_back(std::move(line));
    }
    const double open_ms = open_watch.elapsed_ms();

    const int steps = std::max(3, 6000 / nlines);
    std::vector<double> latencies;
    util::Stopwatch wall;
    step_lines(lines, procs, steps,
               std::min(kStepWorkers, nlines), latencies);
    const double sec = wall.elapsed_ms() / 1000.0;

    SteadyPoint p;
    p.nlines = nlines;
    p.calls = static_cast<long>(latencies.size());
    p.open_ms = open_ms;
    p.calls_per_sec = p.calls / sec;
    std::sort(latencies.begin(), latencies.end());
    p.p50_us = bench::percentile(latencies, 0.50);
    p.p99_us = bench::percentile(latencies, 0.99);
    steady_points.push_back(p);
    std::printf("%8d %10ld %12.1f %14.1f %10.1f %10.1f\n", p.nlines, p.calls,
                p.open_ms, p.calls_per_sec, p.p50_us, p.p99_us);

    procs.clear();
    for (auto& line : lines) line->quit();
    lines.clear();
  }

  // --- 4. Noisy-neighbor isolation ----------------------------------------
  // Eight neighbor lines keep stepping the LAN fleet while one victim
  // line — behind a 100%-lossy WAN link, carrying a LineBudget — storms
  // deadline-bounded retries. Per-line endpoints, per-line budgets, and
  // fair host queues keep the victim's failure mode its own: neighbor p99
  // must stay within 10% of the baseline.
  NoisyResult noisy;
  {
    const int kNeighbors = 8;
    std::vector<std::unique_ptr<rpc::Line>> lines;
    std::vector<std::unique_ptr<rpc::RemoteProc>> procs;
    for (int i = 0; i < kNeighbors; ++i) {
      auto line = session->open_line(
          rpc::LineOptions{}.with_name("neighbor" + std::to_string(i)));
      procs.push_back(line->import_proc(fleet_proc(i), fleet_import(i)));
      lines.push_back(std::move(line));
    }

    // Victim: bound while the WAN is healthy, budgeted for the storm.
    auto victim = session->open_line(
        rpc::LineOptions{}
            .with_name("victim")
            .with_budget({.virtual_us = 30'000'000, .retries = 1'000}));
    victim->contact_schx("far", "/bin/work");
    auto victim_work = victim->import_proc("work", kWorkImport);
    victim_work->call({uts::Value::real(1), uts::Value::real(0)}, legacy)
        .values_or_raise();

    std::vector<double> baseline;
    step_lines(lines, procs, 100, 4, baseline);
    std::sort(baseline.begin(), baseline.end());
    noisy.baseline_p99_us = bench::percentile(baseline, 0.99);

    sim::FaultSpec loss;
    loss.drop_rate = 1.0;
    cluster.set_fault_seed(7);
    cluster.set_link_faults("internet-wan", loss);

    std::atomic<bool> stop{false};
    std::atomic<long> victim_failures{0};
    std::atomic<bool> budget_hit{false};
    std::thread storm([&] {
      rpc::CallOptions opts;
      opts.deadline_us = 200'000;  // 200 ms of virtual time per call
      opts.max_attempts = 3;
      opts.idempotent = true;
      opts.host_grace_ms = 2;
      while (!stop.load()) {
        rpc::CallResult r = victim_work->call(
            {uts::Value::real(1), uts::Value::real(0)}, opts);
        if (r.ok()) continue;
        ++victim_failures;
        if (r.status.code() == util::ErrorCode::kBudgetExhausted) {
          // Fail-fast: the line's budget is spent; stop the storm the
          // way a budgeted tenant would be stopped.
          budget_hit.store(true);
          break;
        }
      }
    });

    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::vector<double> contended;
    step_lines(lines, procs, 100, 4, contended);
    std::sort(contended.begin(), contended.end());
    noisy.with_noisy_p99_us = bench::percentile(contended, 0.99);
    stop.store(true);
    storm.join();
    cluster.clear_faults();

    noisy.delta_pct = noisy.baseline_p99_us > 0
                          ? (noisy.with_noisy_p99_us - noisy.baseline_p99_us) /
                                noisy.baseline_p99_us * 100.0
                          : 0.0;
    noisy.bound_met = noisy.with_noisy_p99_us <= noisy.baseline_p99_us * 1.10;
    noisy.victim_failed_calls = victim_failures.load();
    noisy.victim_budget_exhausted = budget_hit.load();

    victim->quit();
    procs.clear();
    for (auto& line : lines) line->quit();

    std::printf(
        "\nnoisy neighbor: baseline p99 %.1f us, with storm %.1f us "
        "(%+.1f%%, bound %s)\n",
        noisy.baseline_p99_us, noisy.with_noisy_p99_us, noisy.delta_pct,
        noisy.bound_met ? "met" : "MISSED");
    std::printf(
        "victim: %ld failed call(s); budget %s\n", noisy.victim_failed_calls,
        noisy.victim_budget_exhausted ? "exhausted (failed fast)"
                                      : "not exhausted");
  }

  fleet_owner->quit();
  rpc::ManagerStats stats = schooner.stats();
  std::printf(
      "manager stats: %llu lines created, %llu shut down, %llu rejected, "
      "%llu processes, %llu lookups\n",
      static_cast<unsigned long long>(stats.lines_created),
      static_cast<unsigned long long>(stats.lines_shut_down),
      static_cast<unsigned long long>(stats.lines_rejected),
      static_cast<unsigned long long>(stats.processes_started),
      static_cast<unsigned long long>(stats.lookups));
  std::printf(
      "\nShape checks: every line resolves its own 'work' instance\n"
      "(duplicate names across lines); steady-state per-call cost does not\n"
      "grow with held-open line count (the Manager is out of the per-call\n"
      "path); the lossy line's storm stays inside its own budget.\n");

  std::FILE* f = std::fopen("BENCH_lines.json", "w");
  if (f) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"lines\",\n");
    std::fprintf(f, "  \"cycles_per_thread\": %d,\n", kCyclesPerThread);
    std::fprintf(f, "  \"lifecycle_sweep\": [\n");
    for (std::size_t i = 0; i < line_points.size(); ++i) {
      const LinePoint& p = line_points[i];
      std::fprintf(f,
                   "    {\"concurrent_lines\": %d, \"cycles\": %ld, "
                   "\"lines_per_sec\": %.1f, \"p50_ms\": %.3f, "
                   "\"p99_ms\": %.3f}%s\n",
                   p.nlines, p.cycles, p.lines_per_sec, p.p50_ms, p.p99_ms,
                   i + 1 < line_points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"steady_state\": [\n");
    for (std::size_t i = 0; i < steady_points.size(); ++i) {
      const SteadyPoint& p = steady_points[i];
      std::fprintf(f,
                   "    {\"concurrent_lines\": %d, \"calls\": %ld, "
                   "\"open_ms\": %.1f, \"calls_per_sec\": %.1f, "
                   "\"p50_us\": %.1f, \"p99_us\": %.1f}%s\n",
                   p.nlines, p.calls, p.open_ms, p.calls_per_sec, p.p50_us,
                   p.p99_us, i + 1 < steady_points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"noisy_neighbor\": {\"baseline_p99_us\": %.1f, "
                 "\"with_noisy_p99_us\": %.1f, \"delta_pct\": %.1f, "
                 "\"bound_met\": %s, \"victim_failed_calls\": %ld, "
                 "\"victim_budget_exhausted\": %s},\n",
                 noisy.baseline_p99_us, noisy.with_noisy_p99_us,
                 noisy.delta_pct, noisy.bound_met ? "true" : "false",
                 noisy.victim_failed_calls,
                 noisy.victim_budget_exhausted ? "true" : "false");
    std::fprintf(f,
                 "  \"manager\": {\"lines_created\": %llu, "
                 "\"lines_shut_down\": %llu, \"lines_rejected\": %llu, "
                 "\"processes_started\": %llu, \"lookups\": %llu}\n",
                 static_cast<unsigned long long>(stats.lines_created),
                 static_cast<unsigned long long>(stats.lines_shut_down),
                 static_cast<unsigned long long>(stats.lines_rejected),
                 static_cast<unsigned long long>(stats.processes_started),
                 static_cast<unsigned long long>(stats.lookups));
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_lines.json\n");
  }
  return 0;
}

}  // namespace
}  // namespace npss

int main() { return npss::run(); }
