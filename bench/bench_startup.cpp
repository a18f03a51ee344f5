// A3 — startup-protocol ablation (§4.1).
//
// The original Schooner started everything a priori from the Manager's
// command line; AVS integration forced a dynamic protocol where a
// newly-configured module contacts the Manager and requests starts on
// demand. This bench measures, in deterministic simulated time:
//   * cost to bring up one remote module dynamically (register line +
//     start request + spawn + export + first lookup + first call);
//   * amortized cost of subsequent calls (the dynamic protocol is pure
//     startup overhead, not per-call overhead);
//   * batch (static-style) startup of N modules vs N incremental dynamic
//     startups — the crossover the old command-line model optimized for.
#include <cstdio>

#include "bench/testbed.hpp"

namespace npss {
namespace {

const char* kNopSpec = "export nop prog(\"x\" val float)";
const char* kNopImport = "import nop prog(\"x\" val float)";

int run() {
  bench::print_header("A3 — dynamic startup protocol cost (simulated time)");

  for (const char* net : {"ethernet-lan", "internet-wan"}) {
    sim::Cluster cluster;
    cluster.add_machine("avs", "sun-sparc10", "a");
    cluster.add_machine("remote", "ibm-rs6000", "b");
    cluster.set_site_link("a", "b", sim::link_profile(net));
    for (int i = 0; i < 32; ++i) {
      cluster.install_image("remote", "/bin/nop" + std::to_string(i),
                            rpc::make_procedure_image(
                                kNopSpec, {{"nop", [](rpc::ProcCall&) {}}}));
    }
    rpc::SchoonerSystem schooner(cluster, "avs");

    // Dynamic startup of one module, then call costs.
    auto session = schooner.make_session("avs");
    auto client = session->open_line(
        rpc::LineOptions{}.with_name("startup-bench"));
    auto& clock = client->io().endpoint().clock();
    const rpc::CallOptions legacy = rpc::CallOptions::legacy();
    util::SimTime t0 = clock.now();
    client->contact_schx("remote", "/bin/nop0");
    auto nop = client->import_proc("nop", kNopImport);
    nop->call({uts::Value::real(1)}, legacy).values_or_raise();
    util::SimTime first_call_done = clock.now();
    const int reps = 50;
    for (int i = 0; i < reps; ++i) {
      nop->call({uts::Value::real(1)}, legacy).values_or_raise();
    }
    util::SimTime warm_done = clock.now();

    const double startup_ms = util::sim_to_ms(first_call_done - t0);
    const double call_ms =
        util::sim_to_ms(warm_done - first_call_done) / reps;

    // N incremental dynamic startups (the AVS pattern: one module
    // configured at a time, each on its own line).
    util::Stopwatch wall;
    util::SimTime batch0 = 0, batchN = 0;
    {
      std::vector<std::unique_ptr<rpc::Line>> lines;
      std::vector<std::unique_ptr<rpc::RemoteProc>> procs;
      auto probe = session->open_line(
          rpc::LineOptions{}.with_name("batch-probe"));
      batch0 = probe->io().endpoint().clock().now();
      for (int i = 0; i < 16; ++i) {
        auto line = session->open_line(
            rpc::LineOptions{}.with_name("mod" + std::to_string(i)));
        line->io().endpoint().clock().join(batch0);
        line->contact_schx("remote", "/bin/nop" + std::to_string(i));
        auto proc = line->import_proc("nop", kNopImport);
        proc->call({uts::Value::real(1)}, legacy).values_or_raise();
        batchN = std::max(batchN, line->io().endpoint().clock().now());
        lines.push_back(std::move(line));
        procs.push_back(std::move(proc));
      }
      for (auto& line : lines) line->quit();
    }

    std::printf(
        "%-22s  startup-to-first-call %8.1f ms   warm call %6.2f ms   "
        "16-module bring-up %8.1f ms (wall %0.1f ms)\n",
        net, startup_ms, call_ms, util::sim_to_ms(batchN - batch0),
        wall.elapsed_ms());
  }
  std::printf(
      "\nShape checks: startup >> warm call (the dynamic protocol costs\n"
      "several round trips once, none per call); WAN inflates startup by\n"
      "the same latency factor as calls.\n");
  return 0;
}

}  // namespace
}  // namespace npss

int main() { return npss::run(); }
