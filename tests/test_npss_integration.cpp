// Integration tests of the prototype executive: the paper's Table 1
// (single adapted module remote across machine/network combinations) and
// Table 2 (six remote module instances on four machines) scenarios, run as
// steady-state balance + 1 s transient, verified against the all-local
// computation — exactly the paper's verification method (§3.4).
#include <gtest/gtest.h>

#include <cmath>

#include "npss/procedures.hpp"
#include "obs/metrics.hpp"
#include "npss/remote_backend.hpp"
#include "tess/engine.hpp"

namespace npss {
namespace {

using glue::AdaptedComponent;
using glue::Placement;
using glue::RemoteBackend;
using tess::F100Engine;
using tess::FlightCondition;
using tess::SteadyMethod;

/// The paper's testbed: machines at NASA Lewis and U. Arizona joined by
/// the 1993 Internet (Tables 1 and 2).
void build_testbed(sim::Cluster& cluster) {
  cluster.add_machine("sparc-ua", "sun-sparc10", "uarizona");
  cluster.add_machine("sgi340-ua", "sgi-4d340", "uarizona");
  cluster.add_machine("sparc-lerc", "sun-sparc10", "lerc");
  cluster.add_machine("sgi480-lerc", "sgi-4d480", "lerc");
  cluster.add_machine("sgi420-lerc", "sgi-4d420", "lerc");
  cluster.add_machine("cray-lerc", "cray-ymp", "lerc");
  cluster.add_machine("convex-lerc", "convex-c220", "lerc");
  cluster.add_machine("rs6000-lerc", "ibm-rs6000", "lerc");
  cluster.set_site_link("lerc", "uarizona",
                        sim::link_profile("internet-wan"));
  cluster.set_intra_site_link(sim::link_profile("ethernet-lan"));
}

class NpssIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    build_testbed(cluster_);
    glue::install_tess_procedures_everywhere(cluster_);
    system_ = std::make_unique<rpc::SchoonerSystem>(cluster_, "sparc-ua");

    // Reference: the original local-compute-only run.
    F100Engine local;
    FlightCondition sls;
    auto steady = local.balance(1.0, sls);
    reference_speeds_ = steady.performance.speeds;
    reference_thrust_ = steady.performance.thrust;
    reference_t4_ = steady.performance.t4;
  }

  /// Run steady balance with the given backend placements and return the
  /// performance; loosened tolerances account for the single-precision
  /// UTS floats the paper's specs put on the wire.
  tess::SteadyResult run_remote(RemoteBackend& backend) {
    F100Engine engine;
    engine.set_hooks(backend.hooks());
    engine.set_solver_tolerances(5e-6, 1e-4);
    FlightCondition sls;
    return engine.balance(1.0, sls);
  }

  sim::Cluster cluster_;
  std::unique_ptr<rpc::SchoonerSystem> system_;
  std::vector<double> reference_speeds_;
  double reference_thrust_ = 0.0;
  double reference_t4_ = 0.0;
};

TEST_F(NpssIntegrationTest, Table1SingleModuleRemoteMatchesLocal) {
  // One adapted module at a time, on a WAN-remote machine (the hardest
  // Table 1 row): results must agree with the local run to single-float
  // precision.
  struct Case {
    AdaptedComponent component;
    int instances;
  };
  const Case cases[] = {
      {AdaptedComponent::kShaft, 2},
      {AdaptedComponent::kDuct, 2},
      {AdaptedComponent::kCombustor, 1},
      {AdaptedComponent::kNozzle, 1},
  };
  for (const Case& c : cases) {
    RemoteBackend backend(*system_, "sparc-ua");
    for (int i = 0; i < c.instances; ++i) {
      backend.place(c.component, i, Placement{"rs6000-lerc", ""});
    }
    tess::SteadyResult r = run_remote(backend);
    EXPECT_NEAR(r.performance.thrust / reference_thrust_, 1.0, 2e-4)
        << "component " << glue::adapted_component_name(c.component);
    EXPECT_NEAR(r.performance.t4 / reference_t4_, 1.0, 2e-4);
    EXPECT_GT(backend.total_calls(), 0);
  }
}

TEST_F(NpssIntegrationTest, Table2CombinedSixRemoteInstances) {
  // Table 2's exact placement: TESS on a Sparc 10 at U. Arizona;
  // combustor -> SGI 4D/340 (U. Arizona), ducts -> Cray Y-MP (LeRC),
  // nozzle -> SGI 4D/420 (LeRC), shafts -> IBM RS6000 (LeRC).
  RemoteBackend backend(*system_, "sparc-ua");
  backend.place(AdaptedComponent::kCombustor, 0, {"sgi340-ua", ""});
  backend.place(AdaptedComponent::kDuct, 0, {"cray-lerc", ""});
  backend.place(AdaptedComponent::kDuct, 1, {"cray-lerc", ""});
  backend.place(AdaptedComponent::kNozzle, 0, {"sgi420-lerc", ""});
  backend.place(AdaptedComponent::kShaft, 0, {"rs6000-lerc", ""});
  backend.place(AdaptedComponent::kShaft, 1, {"rs6000-lerc", ""});

  F100Engine engine;
  engine.set_hooks(backend.hooks());
  engine.set_solver_tolerances(5e-6, 1e-4);
  FlightCondition sls;

  // Newton-Raphson steady balance...
  tess::SteadyResult steady = engine.balance(1.0, sls);
  EXPECT_NEAR(steady.performance.thrust / reference_thrust_, 1.0, 5e-4);
  EXPECT_NEAR(steady.performance.speeds[0] / reference_speeds_[0], 1.0, 5e-4);
  EXPECT_NEAR(steady.performance.speeds[1] / reference_speeds_[1], 1.0, 5e-4);

  // ...then a one-second transient with the Improved Euler method (§3.4).
  tess::FuelSchedule throttle = [](double t) {
    return t < 0.1 ? 1.0 : 1.27;
  };
  tess::TransientResult remote_tr = engine.transient(
      steady.performance.speeds, throttle, sls, 1.0, 0.02,
      solvers::IntegratorKind::kModifiedEuler);

  // Reference transient, all-local, from the reference steady point.
  F100Engine local;
  tess::TransientResult local_tr = local.transient(
      reference_speeds_, throttle, sls, 1.0, 0.02,
      solvers::IntegratorKind::kModifiedEuler);

  const auto& remote_end = remote_tr.history.back().performance;
  const auto& local_end = local_tr.history.back().performance;
  EXPECT_NEAR(remote_end.speeds[0] / local_end.speeds[0], 1.0, 1e-3);
  EXPECT_NEAR(remote_end.speeds[1] / local_end.speeds[1], 1.0, 1e-3);
  EXPECT_NEAR(remote_end.thrust / local_end.thrust, 1.0, 2e-3);

  // Six remote instances were really exercised, and none paid for
  // re-derived work: the flow match carries its Jacobian and the transient
  // reuses the evaluation at each accepted state (~270 calls per flow-path
  // instance, ~110 per shaft; rebuilding the Jacobian every evaluation
  // took ~1,260).
  auto counts = backend.call_counts();
  EXPECT_EQ(counts.size(), 6u);
  for (const auto& [label, n] : counts) {
    EXPECT_GT(n, 0) << label;
    EXPECT_LE(n, 400) << label;
  }
}

TEST_F(NpssIntegrationTest, RemoteRunCostsVirtualTimeByNetworkDistance) {
  // The same remote component is cheaper on the LAN than across the WAN.
  auto run_with_placement = [&](const std::string& machine) {
    RemoteBackend backend(*system_, "sparc-ua");
    backend.place(AdaptedComponent::kCombustor, 0, {machine, ""});
    F100Engine engine;
    engine.set_hooks(backend.hooks());
    engine.set_solver_tolerances(5e-6, 1e-4);
    FlightCondition sls;
    backend.reset_clocks();
    engine.balance(1.0, sls);
    return backend.elapsed_virtual_us();
  };
  const util::SimTime lan = run_with_placement("sgi340-ua");
  const util::SimTime wan = run_with_placement("cray-lerc");
  EXPECT_GT(wan, 5 * lan);
}

TEST_F(NpssIntegrationTest, ProgramTimeIsTheSumOfItsCalls) {
  // TESS is one sequential program: the network time it waits is the sum
  // of its lock-step calls' round trips, whichever line carried each one,
  // not the busiest line's clock.
  RemoteBackend backend(*system_, "sparc-ua");
  backend.place(AdaptedComponent::kDuct, 0, {"cray-lerc", ""});
  backend.place(AdaptedComponent::kDuct, 1, {"cray-lerc", ""});
  F100Engine engine;
  engine.set_hooks(backend.hooks());
  engine.set_solver_tolerances(5e-6, 1e-4);
  const obs::Histogram& call_us =
      obs::Registry::global().histogram("rpc.client.virtual_latency_us");
  const double before = call_us.sum();
  backend.reset_clocks();
  engine.balance(1.0, FlightCondition{});
  auto counts = backend.call_counts();
  ASSERT_GT(counts["duct[0]"], 0);
  ASSERT_GT(counts["duct[1]"], 0);
  EXPECT_EQ(static_cast<double>(backend.elapsed_virtual_us()),
            call_us.sum() - before);
}

TEST_F(NpssIntegrationTest, MigrationMidTransientKeepsResultsCorrect) {
  // §4.2: a long-running computation's procedure moves between machines
  // (scheduled downtime); the stateless shaft procedure migrates and the
  // transient completes with correct physics.
  RemoteBackend backend(*system_, "sparc-ua");
  backend.place(AdaptedComponent::kShaft, 0, {"rs6000-lerc", ""});
  F100Engine engine;
  engine.set_hooks(backend.hooks());
  engine.set_solver_tolerances(5e-6, 1e-4);
  FlightCondition sls;
  tess::SteadyResult steady = engine.balance(1.0, sls);

  tess::FuelSchedule throttle = [](double) { return 1.27; };
  // First half of the transient...
  tess::TransientResult first = engine.transient(
      steady.performance.speeds, throttle, sls, 0.5, 0.02,
      solvers::IntegratorKind::kModifiedEuler);
  // ...move the shaft computation to the Convex mid-run...
  backend.quit();  // would race a live line otherwise
  RemoteBackend backend2(*system_, "sparc-ua");
  backend2.place(AdaptedComponent::kShaft, 0, {"convex-lerc", ""});
  engine.set_hooks(backend2.hooks());
  // ...and finish.
  tess::TransientResult second = engine.transient(
      first.history.back().performance.speeds, throttle, sls, 0.5, 0.02,
      solvers::IntegratorKind::kModifiedEuler);

  F100Engine local;
  local.set_solver_tolerances(5e-6, 1e-4);
  tess::SteadyResult lsteady = local.balance(1.0, sls);
  tess::TransientResult ltr = local.transient(
      lsteady.performance.speeds, throttle, sls, 1.0, 0.02,
      solvers::IntegratorKind::kModifiedEuler);
  EXPECT_NEAR(second.history.back().performance.speeds[0] /
                  ltr.history.back().performance.speeds[0],
              1.0, 2e-3);
}

TEST_F(NpssIntegrationTest, AsyncCallsOverlapAcrossInstancesAndMatchSync) {
  // Two duct instances on two machines, each with its own client/line:
  // call_async may overlap them on the wire, and the results must equal
  // the synchronous path's exactly (same compiled plans both ways).
  RemoteBackend backend(*system_, "sparc-ua");
  backend.place(AdaptedComponent::kDuct, 0, {"sparc-lerc", ""});
  backend.place(AdaptedComponent::kDuct, 1, {"rs6000-lerc", ""});

  const uts::ValueList args0 = {
      uts::Value::real_array({102.0, 288.15, 101325.0, 20.0}),
      uts::Value::real(0.02), uts::Value::real_array({0, 0, 0, 0})};
  const uts::ValueList args1 = {
      uts::Value::real_array({95.0, 600.0, 250000.0, 20.0}),
      uts::Value::real(0.05), uts::Value::real_array({0, 0, 0, 0})};

  rpc::PendingCall f0 = backend.call_async(AdaptedComponent::kDuct, 0, args0);
  rpc::PendingCall f1 = backend.call_async(AdaptedComponent::kDuct, 1, args1);
  uts::ValueList r0 = f0.get().values_or_raise();
  uts::ValueList r1 = f1.get().values_or_raise();

  tess::ComponentHooks hooks = backend.hooks();
  tess::StationArray s0 =
      hooks.duct(0, {102.0, 288.15, 101325.0, 20.0}, 0.02);
  tess::StationArray s1 = hooks.duct(1, {95.0, 600.0, 250000.0, 20.0}, 0.05);
  std::vector<double> a0 = r0[2].as_real_vector();
  std::vector<double> a1 = r1[2].as_real_vector();
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(a0[i], s0[i]) << "duct[0] station " << i;
    EXPECT_DOUBLE_EQ(a1[i], s1[i]) << "duct[1] station " << i;
  }

  // Unplaced instances have no line to fire on.
  EXPECT_THROW(
      (void)backend.call_async(AdaptedComponent::kNozzle, 0, args0),
      util::LookupError);
}

}  // namespace
}  // namespace npss
