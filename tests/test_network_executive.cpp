// Tests of the prototype executive's network layer: building the Figure 2
// F100 network, balancing and flying it through the dataflow scheduler,
// interactive remote placement via the §3.3 widgets, module removal
// triggering sch_i_quit, and save/reload of the engine model (the Network
// Editor's save capability plus the persistent Manager of §4.2).
#include <gtest/gtest.h>

#include "flow/network.hpp"
#include "npss/network_driver.hpp"
#include "npss/procedures.hpp"
#include "npss/runtime.hpp"
#include "tess/engine.hpp"

namespace npss {
namespace {

using glue::F100NetworkNames;
using glue::NetworkEngine;
using glue::build_f100_network;

class NetworkExecutiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_.add_machine("sparc-ua", "sun-sparc10", "uarizona");
    cluster_.add_machine("cray-lerc", "cray-ymp", "lerc");
    cluster_.add_machine("rs6000-lerc", "ibm-rs6000", "lerc");
    cluster_.set_site_link("lerc", "uarizona",
                           sim::link_profile("internet-wan"));
    glue::install_tess_procedures_everywhere(cluster_);
    system_ = std::make_unique<rpc::SchoonerSystem>(cluster_, "sparc-ua");
    glue::configure_npss_runtime(cluster_, *system_, "sparc-ua");
  }

  void TearDown() override { glue::clear_npss_runtime(); }

  sim::Cluster cluster_;
  std::unique_ptr<rpc::SchoonerSystem> system_;
};

TEST_F(NetworkExecutiveTest, NetworkBalanceMatchesDirectEngine) {
  // At sea level and at cruise: the flight condition reaches the inlet
  // and nozzle widgets, so the network balances as the direct engine does.
  struct Point {
    tess::FlightCondition flight;
    double wf;
  };
  for (const Point& pt : {Point{{}, 1.0}, Point{{7000.0, 0.75, 0.0}, 0.85}}) {
    SCOPED_TRACE(pt.flight.altitude_m);
    flow::Network net;
    build_f100_network(net);
    NetworkEngine engine(net);
    const tess::Performance via_network =
        engine.balance(pt.wf, pt.flight).performance;

    tess::F100Engine direct;
    const tess::Performance reference =
        direct.balance(pt.wf, pt.flight).performance;

    EXPECT_NEAR(via_network.speeds[0] / reference.speeds[0], 1.0, 1e-6);
    EXPECT_NEAR(via_network.speeds[1] / reference.speeds[1], 1.0, 1e-6);
    EXPECT_NEAR(via_network.thrust / reference.thrust, 1.0, 1e-6);
    EXPECT_NEAR(via_network.t4 / reference.t4, 1.0, 1e-6);
  }
}

TEST_F(NetworkExecutiveTest, TransientThroughNetworkMatchesDirectEngine) {
  flow::Network net;
  build_f100_network(net);
  NetworkEngine engine(net);
  const tess::SteadyResult start = engine.balance(1.0, tess::FlightCondition{});
  tess::FuelSchedule throttle = [](double t) { return t < 0.1 ? 1.0 : 1.2; };
  const std::vector<tess::TransientSample> history =
      engine
          .transient(start.performance.speeds, throttle,
                     tess::FlightCondition{}, 0.5, 0.02,
                     engine.system().transient_method())
          .history;

  tess::F100Engine direct;
  tess::SteadyResult steady = direct.balance(1.0, tess::FlightCondition{});
  tess::TransientResult reference =
      direct.transient(steady.performance.speeds, throttle,
                       tess::FlightCondition{}, 0.5, 0.02,
                       solvers::IntegratorKind::kModifiedEuler);

  ASSERT_EQ(history.size(), reference.history.size());
  const auto& net_end = history.back().performance;
  const auto& ref_end = reference.history.back().performance;
  EXPECT_NEAR(net_end.speeds[0] / ref_end.speeds[0], 1.0, 1e-6);
  EXPECT_NEAR(net_end.speeds[1] / ref_end.speeds[1], 1.0, 1e-6);
  EXPECT_NEAR(net_end.thrust / ref_end.thrust, 1.0, 1e-6);
}

TEST_F(NetworkExecutiveTest, WidgetPlacementRunsModuleRemotely) {
  flow::Network net;
  F100NetworkNames names = build_f100_network(net);

  // The §3.3 interaction: pick the remote machine on the radio buttons
  // and type the executable's pathname.
  flow::Module& burner = net.module(names.burner);
  burner.widget("machine").select("cray-lerc");
  burner.widget("path").set_text(glue::kCombustorPath);

  NetworkEngine engine(net);
  engine.set_solver_tolerances(5e-6, 1e-4);
  const tess::Performance remote =
      engine.balance(1.0, tess::FlightCondition{}).performance;

  tess::F100Engine direct;
  tess::SteadyResult reference = direct.balance(1.0, tess::FlightCondition{});
  EXPECT_NEAR(remote.thrust / reference.performance.thrust, 1.0, 5e-4);

  // The Manager saw exactly one line with one started process.
  EXPECT_GE(system_->stats().processes_started, 1u);
}

TEST_F(NetworkExecutiveTest, ModuleRemovalShutsDownOnlyItsLine) {
  flow::Network net;
  F100NetworkNames names = build_f100_network(net);
  net.module(names.burner).widget("machine").select("cray-lerc");
  net.module(names.tailpipe).widget("machine").select("rs6000-lerc");

  NetworkEngine engine(net);
  engine.set_solver_tolerances(5e-6, 1e-4);
  engine.balance(1.0, tess::FlightCondition{});
  const auto lines_before = system_->stats().lines_shut_down;

  // Deleting one module from the network must terminate only its remote
  // computation (§4.2's shutdown semantics) — the tailpipe's line lives.
  net.remove(names.burner);
  EXPECT_EQ(system_->stats().lines_shut_down, lines_before + 1);

  // Rebuild the burner locally and keep computing.
  net.add(names.burner, "tess-combustor");
  net.module(names.burner).widget("dp").set_real(0.05);
  net.connect(names.hpc, "out", names.burner, "in");
  net.connect(names.burner, "out", names.hpt, "in");
  const tess::SteadyResult again =
      engine.balance(1.0, tess::FlightCondition{});
  EXPECT_GT(again.performance.thrust, 0.0);
}

TEST_F(NetworkExecutiveTest, SaveAndReloadEngineModel) {
  flow::Network net;
  F100NetworkNames names = build_f100_network(net);
  net.module(names.burner).widget("wfuel").set_real(1.1);
  std::string saved = net.save_to_text();

  flow::Network reloaded;
  reloaded.load_from_text(saved);
  EXPECT_DOUBLE_EQ(
      reloaded.module(names.burner).widget("wfuel").real(), 1.1);
  EXPECT_EQ(reloaded.connections().size(), net.connections().size());

  NetworkEngine engine(reloaded);
  const tess::SteadyResult r = engine.balance(1.0, tess::FlightCondition{});
  EXPECT_GT(r.performance.thrust, 0.0);
}

TEST_F(NetworkExecutiveTest, SystemModuleMethodWidgetsSelectSolvers) {
  flow::Network net;
  F100NetworkNames names = build_f100_network(net);
  NetworkEngine engine(net);
  const tess::FlightCondition sls;
  auto balance = [&] {
    return engine.balance(1.0, sls, engine.system().steady_method());
  };

  const tess::SteadyResult newton = balance();

  net.module(names.system).widget("steady-method").select("Runge-Kutta 4");
  const tess::SteadyResult march = balance();

  EXPECT_NEAR(march.performance.speeds[0] / newton.performance.speeds[0], 1.0,
              1e-3);
  EXPECT_NEAR(march.performance.speeds[1] / newton.performance.speeds[1], 1.0,
              1e-3);
  EXPECT_GT(march.iterations, newton.iterations)
      << "the pseudo-transient march takes more steps than Newton";

  // The transient-method widget picks the integrator: Gear flies the same
  // short transient as the default Modified Euler, with other work.
  tess::FuelSchedule throttle = [](double t) { return t < 0.05 ? 1.0 : 1.1; };
  auto fly = [&] {
    return engine.transient(newton.performance.speeds, throttle, sls, 0.2,
                            0.02, engine.system().transient_method());
  };
  const tess::TransientResult euler = fly();
  net.module(names.system).widget("transient-method").select("Gear");
  EXPECT_EQ(engine.system().transient_method(),
            solvers::IntegratorKind::kGear);
  const tess::TransientResult gear = fly();
  const tess::Performance& euler_end = euler.history.back().performance;
  const tess::Performance& gear_end = gear.history.back().performance;
  EXPECT_NEAR(gear_end.speeds[0] / euler_end.speeds[0], 1.0, 1e-3);
  EXPECT_NEAR(gear_end.speeds[1] / euler_end.speeds[1], 1.0, 1e-3);
  EXPECT_NE(gear.rhs_evaluations, euler.rhs_evaluations);
}

}  // namespace
}  // namespace npss
