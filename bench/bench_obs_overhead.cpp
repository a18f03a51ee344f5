// A11 — observability tax on the RPC hot path.
//
// The same null-ish RPC (one integer in, one out) over both fabrics — the
// simulated testbed, lock-step through a Line, and real loopback TCP —
// timed with the instrumentation kill switch off and on. The shape that
// must hold: metrics + spans cost under 5% of a round trip, i.e. the run
// report is cheap enough to leave on for every simulation run. Writes
// BENCH_obs_overhead.json next to the binary.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/testbed.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "rpc/tcp_transport.hpp"

namespace npss {
namespace {

using uts::Value;

constexpr const char* kIncExport =
    "export inc prog(\"x\" val integer, \"y\" res integer)";
constexpr const char* kIncImport =
    "import inc prog(\"x\" val integer, \"y\" res integer)";

void inc_handler(rpc::ProcCall& c) {
  c.set("y", Value::integer(c.integer("x") + 1));
}

struct Row {
  std::string transport;
  double off_us = 0.0;
  double on_us = 0.0;
  double overhead_pct() const { return (on_us - off_us) / off_us * 100.0; }
};

/// Wall microseconds per call of `call_once`, obs off and on. Modes
/// alternate and each keeps its best round, so scheduler noise doesn't
/// masquerade as instrumentation cost.
Row measure(const std::string& transport,
            const std::function<void()>& call_once) {
  const int kReps = 2000;
  auto round_us = [&]() {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kReps; ++i) call_once();
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
               .count() /
           kReps;
  };

  for (int i = 0; i < 200; ++i) call_once();  // warm both sides

  Row row{transport, 1e300, 1e300};
  const int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    obs::set_enabled(false);
    row.off_us = std::min(row.off_us, round_us());
    obs::set_enabled(true);
    obs::reset_run();  // keep the bounded span collector from filling
    row.on_us = std::min(row.on_us, round_us());
  }
  obs::set_enabled(true);
  return row;
}

rpc::CallOptions single_attempt() {
  rpc::CallOptions once = rpc::CallOptions::legacy();
  once.max_attempts = 1;  // the historical single-attempt contract
  return once;
}

Row sim_row() {
  bench::Testbed bed;
  bed.cluster.install_image(
      "sgi340-ua", "/bin/inc",
      rpc::make_procedure_image(kIncExport, {{"inc", inc_handler}}));
  auto session = bed.schooner->make_session("sparc-ua");
  auto line = session->open_line(rpc::LineOptions{}.with_name("obs"));
  line->contact_schx("sgi340-ua", "/bin/inc");
  auto inc = line->import_proc("inc", kIncImport);
  const uts::ValueList args = {Value::integer(1), Value::integer(0)};
  const rpc::CallOptions once = single_attempt();
  Row row = measure("sim", [&] { inc->call(args, once).values_or_raise(); });
  line->quit();
  return row;
}

Row tcp_row() {
  rpc::TcpProcedureHost host(kIncExport, {{"inc", inc_handler}},
                             "sun-sparc10");
  rpc::TcpRemoteProc inc("127.0.0.1", host.port(), "inc", kIncImport,
                         "sun-sparc10");
  const uts::ValueList args = {Value::integer(1), Value::integer(0)};
  const rpc::CallOptions once = single_attempt();
  return measure("tcp", [&] { inc.call(args, once).values_or_raise(); });
}

int run() {
  bench::print_header(
      "A11 — instrumentation overhead on a null RPC, lock-step over the\n"
      "simulated testbed and over loopback TCP\n"
      "(per-call wall time, obs disabled vs enabled; target < 5%)");

  const std::vector<Row> rows = {sim_row(), tcp_row()};

  std::printf("%-10s %14s %14s %12s\n", "transport", "off us/call",
              "on us/call", "overhead");
  bench::print_rule(54);
  for (const Row& row : rows) {
    std::printf("%-10s %14.2f %14.2f %11.2f%%  (%s 5%% target)\n",
                row.transport.c_str(), row.off_us, row.on_us,
                row.overhead_pct(),
                row.overhead_pct() < 5.0 ? "within" : "EXCEEDS");
  }
  std::printf(
      "\nthe last enabled round recorded %zu spans and these metrics:\n%s",
      obs::SpanCollector::global().size(),
      obs::Registry::global().to_text().c_str());

  std::FILE* f = std::fopen("BENCH_obs_overhead.json", "w");
  if (f) {
    std::fprintf(f, "{\n  \"bench\": \"obs_overhead\",\n  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::fprintf(f,
                   "    {\"transport\": \"%s\", \"off_us\": %.3f, "
                   "\"on_us\": %.3f, \"overhead_pct\": %.2f}%s\n",
                   row.transport.c_str(), row.off_us, row.on_us,
                   row.overhead_pct(), i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_obs_overhead.json\n");
  }
  return 0;
}

}  // namespace
}  // namespace npss

int main() { return npss::run(); }
