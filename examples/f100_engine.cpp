// f100_engine — the Figure 2 reproduction.
//
// Builds the F100 engine as a network of TESS modules in the flow
// executive, places the four adapted modules on remote machines through
// their §3.3 widgets (machine radio buttons + pathname type-in), balances
// the engine, flies a throttle transient, then "flies" a climb profile —
// each steady point's flight condition lands in the inlet and nozzle
// widgets — the §2.4 executive use cases. The system module's
// solution-method widgets pick the steady and transient solvers.
// Finally the network is saved to f100.net (the Network Editor's save).
//
//   $ ./f100_engine
#include <cstdint>
#include <cstdio>
#include <fstream>

#include "obs/metrics.hpp"
#include "npss/network_driver.hpp"
#include "npss/procedures.hpp"
#include "npss/runtime.hpp"

using namespace npss;
using glue::F100NetworkNames;

int main() {
  // The two-site testbed of Tables 1 and 2.
  sim::Cluster cluster;
  cluster.add_machine("sparc-ua", "sun-sparc10", "uarizona");
  cluster.add_machine("sgi340-ua", "sgi-4d340", "uarizona");
  cluster.add_machine("cray-lerc", "cray-ymp", "lerc");
  cluster.add_machine("sgi420-lerc", "sgi-4d420", "lerc");
  cluster.add_machine("rs6000-lerc", "ibm-rs6000", "lerc");
  cluster.set_site_link("uarizona", "lerc",
                        sim::link_profile("internet-wan"));
  glue::install_tess_procedures_everywhere(cluster);
  rpc::SchoonerSystem schooner(cluster, "sparc-ua");
  glue::configure_npss_runtime(cluster, schooner, "sparc-ua");

  // Every adapted module's remote calls carry a deadline/retry policy
  // (component procedures are pure, so timed-out attempts are retryable).
  glue::NpssRuntime& rt = glue::npss_runtime();
  rt.call_options.deadline_us = 10'000'000;
  rt.call_options.max_attempts = 4;
  rt.call_options.idempotent = true;
  rt.call_options.host_grace_ms = 20;

  // Drag the modules into the workspace and wire the airflow (Figure 2).
  flow::Network net;
  F100NetworkNames names = glue::build_f100_network(net);
  std::printf("F100 network: %zu modules, %zu connections\n",
              net.module_names().size(), net.connections().size());

  // The Table 2 placement, via the §3.3 widgets.
  auto place = [&](const std::string& module, const std::string& machine) {
    net.module(module).widget("machine").select(machine);
    std::printf("  %-12s -> %s (path %s)\n", module.c_str(), machine.c_str(),
                net.module(module).widget("path").text().c_str());
  };
  std::printf("remote placement:\n");
  place(names.burner, "sgi340-ua");
  place(names.bypass_duct, "cray-lerc");
  place(names.tailpipe, "cray-lerc");
  place(names.nozzle, "sgi420-lerc");
  place(names.lp_shaft, "rs6000-lerc");
  place(names.hp_shaft, "rs6000-lerc");

  glue::NetworkEngine engine(net);
  engine.set_solver_tolerances(5e-6, 1e-4);
  const glue::SystemModule& sys = engine.system();

  // Balance the engine at part power, as TESS does before any transient.
  const tess::SteadyResult steady =
      engine.balance(1.0, tess::FlightCondition{}, sys.steady_method());
  const tess::Performance& point = steady.performance;
  std::printf(
      "\nbalanced: N1=%.0f rpm  N2=%.0f rpm  T4=%.0f K  thrust=%.1f kN "
      "(%d Newton iterations)\n",
      point.speeds[0], point.speeds[1], point.t4, point.thrust / 1e3,
      steady.iterations);

  // The 1993 Internet between the sites now drops one frame in fifty —
  // set after balance() so the placement handshakes stay clean — and the
  // transient completes anyway on retries.
  cluster.set_fault_seed(42);
  sim::FaultSpec drops;
  drops.drop_rate = 0.02;
  cluster.set_link_faults("internet-wan", drops);

  // Throttle transient: advance fuel flow, watch the spools.
  std::printf("\n1.5 s throttle transient (Improved Euler):\n");
  std::printf("%8s %10s %10s %10s %12s\n", "t [s]", "N1 [rpm]", "N2 [rpm]",
              "T4 [K]", "thrust [kN]");
  tess::FuelSchedule throttle = [](double t) {
    return t < 0.1 ? 1.0 : 1.27;
  };
  const std::vector<tess::TransientSample> history =
      engine
          .transient(point.speeds, throttle, tess::FlightCondition{}, 1.5,
                     0.05, sys.transient_method())
          .history;
  for (std::size_t i = 0; i < history.size(); i += 6) {
    const tess::Performance& p = history[i].performance;
    std::printf("%8.2f %10.1f %10.1f %10.1f %12.2f\n", history[i].t,
                p.speeds[0], p.speeds[1], p.t4, p.thrust / 1e3);
  }

  // "Fly" a climb profile: each point's flight condition.
  std::printf("\nclimb profile (steady points):\n");
  std::printf("%10s %6s %10s %12s %10s %10s\n", "alt [m]", "Mach",
              "wf [kg/s]", "thrust [kN]", "T4 [K]", "messages");
  struct Leg {
    double alt, mach, wf;
  };
  for (const Leg& leg : {Leg{0, 0.0, 1.27}, Leg{3000, 0.5, 1.05},
                         Leg{7000, 0.75, 0.85}, Leg{11000, 0.85, 0.62}}) {
    const tess::FlightCondition fc{leg.alt, leg.mach, 0.0};
    // Messages this leg's balance put on the simulated network, retries
    // included.
    const std::uint64_t before = cluster.traffic().messages;
    const tess::Performance pt =
        engine.balance(leg.wf, fc, sys.steady_method()).performance;
    std::printf("%10.0f %6.2f %10.2f %12.2f %10.1f %10llu\n", leg.alt,
                leg.mach, leg.wf, pt.thrust / 1e3, pt.t4,
                static_cast<unsigned long long>(cluster.traffic().messages -
                                                before));
  }

  // Save the engine model, as the AVS Network Editor would.
  std::ofstream("f100.net") << net.save_to_text();
  std::printf("\nnetwork saved to f100.net (%zu modules); Manager stats: "
              "%llu lines, %llu processes started\n",
              net.module_names().size(),
              static_cast<unsigned long long>(schooner.stats().lines_created),
              static_cast<unsigned long long>(
                  schooner.stats().processes_started));

  std::printf("wan frames dropped by injection: %llu; calls recovered by "
              "retry: %llu\n",
              static_cast<unsigned long long>(cluster.fault_stats().dropped),
              static_cast<unsigned long long>(
                  obs::Registry::global()
                      .counter("rpc.client.recovered_calls")
                      .value()));

  net.clear();  // destroy() -> sch_i_quit on every adapted module
  glue::clear_npss_runtime();
  return 0;
}
