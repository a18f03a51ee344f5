// Table 2 reproduction — "TESS and Schooner combined test".
//
// The exact Table 2 configuration: TESS executes on a Sun Sparc 10 at The
// University of Arizona with six module instances computed remotely:
//
//   combustor x1 -> SGI 4D/340   U. of Arizona   (local Ethernet)
//   duct      x2 -> Cray YMP     Lewis Research Center (Internet)
//   nozzle    x1 -> SGI 4D/420   Lewis Research Center (Internet)
//   shaft     x2 -> IBM RS6000   Lewis Research Center (Internet)
//
// TESS runs a Newton-Raphson steady-state balance then a one second
// transient with the Improved Euler method (§3.4), and the results are
// compared with the local-compute-only versions of the four modules.
//
// Exits non-zero when a remote result deviates from the all-local one by
// more than the single-float wire precision the paper checked (1e-3
// relative) or when a placed instance made no call. Writes
// BENCH_table2.json (calls per instance, traffic, simulated and host time,
// worst deviation) into the working directory.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "bench/testbed.hpp"
#include "tess/engine.hpp"

namespace npss {
namespace {

using glue::AdaptedComponent;
using glue::Placement;
using glue::RemoteBackend;

int run() {
  bench::Testbed testbed;
  tess::FlightCondition sls;

  bench::print_header(
      "Table 2 — TESS and Schooner combined test\n"
      "TESS simulation executed on Sun Sparc 10 at U. of Arizona");
  std::printf("%-12s %-12s %-14s %-22s\n", "module", "# instances",
              "remote machine", "site");
  bench::print_rule();
  std::printf("%-12s %-12d %-14s %-22s\n", "combustor", 1, "sgi340-ua",
              "U. of Arizona");
  std::printf("%-12s %-12d %-14s %-22s\n", "duct", 2, "cray-lerc",
              "Lewis Research Center");
  std::printf("%-12s %-12d %-14s %-22s\n", "nozzle", 1, "sgi420-lerc",
              "Lewis Research Center");
  std::printf("%-12s %-12d %-14s %-22s\n", "shaft", 2, "rs6000-lerc",
              "Lewis Research Center");

  RemoteBackend backend(*testbed.schooner, "sparc-ua");
  backend.place(AdaptedComponent::kCombustor, 0, {"sgi340-ua", ""});
  backend.place(AdaptedComponent::kDuct, 0, {"cray-lerc", ""});
  backend.place(AdaptedComponent::kDuct, 1, {"cray-lerc", ""});
  backend.place(AdaptedComponent::kNozzle, 0, {"sgi420-lerc", ""});
  backend.place(AdaptedComponent::kShaft, 0, {"rs6000-lerc", ""});
  backend.place(AdaptedComponent::kShaft, 1, {"rs6000-lerc", ""});

  tess::F100Engine engine;
  engine.set_hooks(backend.hooks());
  engine.set_solver_tolerances(5e-6, 1e-4);

  util::Stopwatch wall;
  tess::SteadyResult steady = engine.balance(1.0, sls);
  tess::FuelSchedule throttle = [](double t) {
    return t < 0.1 ? 1.0 : 1.27;
  };
  tess::TransientResult tr = engine.transient(
      steady.performance.speeds, throttle, sls, 1.0, 0.02,
      solvers::IntegratorKind::kModifiedEuler);
  const double wall_ms = wall.elapsed_ms();

  // Local-compute-only reference (the original versions of the modules).
  tess::F100Engine local;
  tess::SteadyResult lsteady = local.balance(1.0, sls);
  tess::TransientResult ltr = local.transient(
      lsteady.performance.speeds, throttle, sls, 1.0, 0.02,
      solvers::IntegratorKind::kModifiedEuler);

  const auto& e = tr.history.back().performance;
  const auto& le = ltr.history.back().performance;

  // The paper's verification: remote agrees with local to the precision
  // of the single floats the values cross the wire in.
  constexpr double kMaxDeviation = 1e-3;
  double worst = 0.0;
  std::printf("\nsteady state (Newton-Raphson):          remote        local"
              "        rel.dev\n");
  auto row = [&worst](const char* label, double remote, double local) {
    const double dev = std::abs(remote / local - 1.0);
    // NaN never compares greater, so it is caught here explicitly.
    worst = std::isnan(dev) ? dev : std::max(worst, dev);
    std::printf("  %-34s %12.2f %12.2f %12.2e\n", label, remote, local, dev);
  };
  row("N1 (LP spool) [rpm]", steady.performance.speeds[0],
      lsteady.performance.speeds[0]);
  row("N2 (HP spool) [rpm]", steady.performance.speeds[1],
      lsteady.performance.speeds[1]);
  row("T4 [K]", steady.performance.t4, lsteady.performance.t4);
  row("net thrust [N]", steady.performance.thrust,
      lsteady.performance.thrust);

  std::printf("\nafter 1 s transient (Improved Euler):\n");
  row("N1 (LP spool) [rpm]", e.speeds[0], le.speeds[0]);
  row("N2 (HP spool) [rpm]", e.speeds[1], le.speeds[1]);
  row("T4 [K]", e.t4, le.t4);
  row("net thrust [N]", e.thrust, le.thrust);

  const std::map<std::string, int> calls = backend.call_counts();
  bool all_called = calls.size() == 6;
  std::printf("\nremote calls per module instance:\n");
  for (const auto& [label, count] : calls) {
    std::printf("  %-20s %6d calls\n", label.c_str(), count);
    all_called = all_called && count > 0;
  }
  const double sim_ms = util::sim_to_ms(backend.elapsed_virtual_us());
  std::printf("\nsimulated network time: %.1f ms  (host wall time %.1f ms)\n",
              sim_ms, wall_ms);
  const auto traffic = testbed.cluster.traffic_by_link();
  std::printf("traffic: ");
  for (const auto& [link, t] : traffic) {
    std::printf(" %s: %llu msgs / %llu bytes; ", link.c_str(),
                static_cast<unsigned long long>(t.messages),
                static_cast<unsigned long long>(t.bytes));
  }
  const bool agree = worst <= kMaxDeviation;
  std::printf("\n\nShape check: %s\n",
              all_called && agree
                  ? "all six remote instances exercised; remote and\n"
                    "local runs agree to the single-float wire precision, "
                    "as the paper's\nverification required."
                  : "FAILED");
  if (!all_called) std::printf("  a placed instance made no remote call\n");
  if (!agree) {
    std::printf("  worst remote/local deviation %.2e exceeds %.0e\n", worst,
                kMaxDeviation);
  }

  std::FILE* f = std::fopen("BENCH_table2.json", "w");
  if (f) {
    const sim::Cluster::Traffic total = testbed.cluster.traffic();
    std::fprintf(f, "{\n  \"bench\": \"table2\",\n  \"calls\": {");
    const char* sep = "";
    for (const auto& [label, count] : calls) {
      std::fprintf(f, "%s\"%s\": %d", sep, label.c_str(), count);
      sep = ", ";
    }
    std::fprintf(f, "},\n  \"total_calls\": %d,\n", backend.total_calls());
    std::fprintf(f, "  \"traffic\": {");
    sep = "";
    for (const auto& [link, t] : traffic) {
      std::fprintf(f, "%s\"%s\": {\"messages\": %llu, \"bytes\": %llu}", sep,
                   link.c_str(), static_cast<unsigned long long>(t.messages),
                   static_cast<unsigned long long>(t.bytes));
      sep = ", ";
    }
    std::fprintf(f, "},\n  \"messages\": %llu,\n  \"bytes\": %llu,\n",
                 static_cast<unsigned long long>(total.messages),
                 static_cast<unsigned long long>(total.bytes));
    std::fprintf(f, "  \"simulated_ms\": %.1f,\n  \"host_ms\": %.1f,\n",
                 sim_ms, wall_ms);
    std::fprintf(f, "  \"worst_rel_deviation\": %.3e,\n", worst);
    std::fprintf(f, "  \"pass\": %s\n}\n",
                 all_called && agree ? "true" : "false");
    std::fclose(f);
    std::printf("\nwrote BENCH_table2.json\n");
  }
  return all_called && agree ? 0 : 1;
}

}  // namespace
}  // namespace npss

int main() { return npss::run(); }
