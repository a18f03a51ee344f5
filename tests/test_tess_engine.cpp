// Whole-engine tests: steady balance by both TESS methods, physical trends
// with throttle and altitude, transient behaviour under all four
// integrators, and solver bookkeeping.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "tess/engine.hpp"

namespace npss::tess {
namespace {

TEST(Turbojet, BalancesAtDesignFuelFlow) {
  TurbojetEngine engine;
  SteadyResult r = engine.balance(engine.design_fuel_flow(), {});
  EXPECT_GT(r.performance.thrust, 10e3);
  EXPECT_LT(r.performance.thrust, 100e3);
  EXPECT_GT(r.performance.t4, 900.0);
  EXPECT_LT(r.performance.t4, 1800.0);
  EXPECT_GT(r.performance.surge_margins[0], 0.0);
  EXPECT_LT(std::abs(r.performance.accelerations[0]), 1.0);
}

TEST(Turbojet, ThrottleTrendsAreMonotone) {
  TurbojetEngine engine;
  double last_thrust = 0.0, last_n = 0.0, last_t4 = 0.0;
  for (double wf : {0.55, 0.7, 0.85, 1.0}) {
    SteadyResult r = engine.balance(wf, {});
    EXPECT_GT(r.performance.thrust, last_thrust) << "wf=" << wf;
    EXPECT_GT(r.performance.speeds[0], last_n);
    EXPECT_GT(r.performance.t4, last_t4);
    last_thrust = r.performance.thrust;
    last_n = r.performance.speeds[0];
    last_t4 = r.performance.t4;
  }
}

TEST(Turbojet, EvaluateRejectsWrongStateCount) {
  TurbojetEngine engine;
  EXPECT_THROW((void)engine.evaluate({1.0, 2.0}, 0.8, {}),
               util::ModelError);
}

TEST(F100, BalancesWithPlausibleCycle) {
  F100Engine engine;
  SteadyResult r = engine.balance(engine.design_fuel_flow(), {});
  const Performance& p = r.performance;
  EXPECT_GT(p.thrust, 40e3);
  EXPECT_LT(p.thrust, 90e3);
  EXPECT_GT(p.opr, 15.0);
  EXPECT_LT(p.opr, 30.0);
  EXPECT_GT(p.t4, 1400.0);
  EXPECT_LT(p.t4, 1800.0);
  EXPECT_GT(p.airflow, 70.0);
  EXPECT_LT(p.airflow, 130.0);
  EXPECT_GT(p.surge_margins[0], 0.0);
  EXPECT_GT(p.surge_margins[1], 0.0);
  // Both spools essentially balanced.
  EXPECT_LT(std::abs(p.accelerations[0]), 1.0);
  EXPECT_LT(std::abs(p.accelerations[1]), 1.0);
  // Stations exposed for monitoring.
  EXPECT_TRUE(p.stations.contains("st4"));
  EXPECT_GT(p.stations.at("st4").Pt, p.stations.at("st2").Pt * 10);
}

TEST(F100, BothSteadyMethodsAgree) {
  F100Engine engine;
  SteadyResult newton = engine.balance(1.0, {});
  SteadyResult march = engine.balance(1.0, {}, SteadyMethod::kRk4March);
  EXPECT_NEAR(march.performance.speeds[0] / newton.performance.speeds[0],
              1.0, 2e-3);
  EXPECT_NEAR(march.performance.speeds[1] / newton.performance.speeds[1],
              1.0, 2e-3);
  EXPECT_NEAR(march.performance.thrust / newton.performance.thrust, 1.0,
              5e-3);
}

TEST(F100, AltitudeLapseReducesThrust) {
  F100Engine engine;
  SteadyResult sls = engine.balance(1.0, {});
  FlightCondition cruise{9000.0, 0.8, 0.0};
  SteadyResult alt = engine.balance(0.62, cruise);
  EXPECT_LT(alt.performance.thrust, sls.performance.thrust);
  EXPECT_LT(alt.performance.airflow, sls.performance.airflow);
}

TEST(F100, HotDayRaisesT4AtFixedFuel) {
  F100Engine engine;
  SteadyResult std_day = engine.balance(1.0, {});
  FlightCondition hot{0.0, 0.0, 20.0};
  SteadyResult hot_day = engine.balance(1.0, hot);
  EXPECT_GT(hot_day.performance.t4, std_day.performance.t4);
}

class F100Transient : public ::testing::TestWithParam<solvers::IntegratorKind> {
};

TEST_P(F100Transient, ThrottleStepSettlesAtNewSteadyState) {
  F100Engine engine;
  SteadyResult from = engine.balance(1.0, {});
  SteadyResult to = engine.balance(1.2, {});
  FuelSchedule step = [](double t) { return t < 0.05 ? 1.0 : 1.2; };
  TransientResult tr =
      engine.transient(from.performance.speeds, step, {}, 15.0, 0.02,
                       GetParam());
  const Performance& end = tr.history.back().performance;
  EXPECT_NEAR(end.speeds[0] / to.performance.speeds[0], 1.0, 2e-3)
      << solvers::integrator_name(GetParam());
  EXPECT_NEAR(end.speeds[1] / to.performance.speeds[1], 1.0, 2e-3);
  // Spool speeds rose monotonically (no overshoot oscillation at this
  // gentle step).
  for (std::size_t i = 1; i < tr.history.size(); ++i) {
    EXPECT_GE(tr.history[i].performance.speeds[1] + 1.0,
              tr.history[i - 1].performance.speeds[1]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllIntegrators, F100Transient,
                         ::testing::ValuesIn(solvers::all_integrators()),
                         [](const auto& info) {
                           std::string n(solvers::integrator_name(info.param));
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(F100, TransientSamplesAreUniform) {
  F100Engine engine;
  SteadyResult steady = engine.balance(1.0, {});
  FuelSchedule constant = [](double) { return 1.0; };
  TransientResult tr = engine.transient(
      steady.performance.speeds, constant, {}, 0.3, 0.05,
      solvers::IntegratorKind::kModifiedEuler);
  ASSERT_EQ(tr.history.size(), 7u);  // t=0 plus 6 steps
  for (std::size_t i = 1; i < tr.history.size(); ++i) {
    EXPECT_NEAR(tr.history[i].t - tr.history[i - 1].t, 0.05, 1e-12);
  }
  // From steady state under constant fuel, nothing moves.
  EXPECT_NEAR(tr.history.back().performance.speeds[0] /
                  steady.performance.speeds[0],
              1.0, 1e-5);
}

TEST(F100, SetshaftRunsOncePerBalance) {
  // The ecorr factors from setshaft are sampled once per steady run and
  // reused, per §3.3 ("called once at the start of a steady-state
  // computation").
  F100Engine engine;
  int setshaft_calls = 0;
  ComponentHooks hooks = ComponentHooks::local();
  auto base = hooks.setshaft;
  hooks.setshaft = [&setshaft_calls, base](int spool,
                                           const StationArray& ecom,
                                           int incom,
                                           const StationArray& etur,
                                           int intur) {
    ++setshaft_calls;
    return base(spool, ecom, incom, etur, intur);
  };
  engine.set_hooks(hooks);
  engine.balance(1.0, {});
  EXPECT_EQ(setshaft_calls, 2);  // one per spool
  engine.balance(1.0, {});
  EXPECT_EQ(setshaft_calls, 4);  // fresh run, fresh setshaft
}

/// All-local hooks that count the calls each component receives.
struct CountingHooks {
  int combustor = 0, duct = 0, nozzle = 0, setshaft = 0;
  std::vector<int> shaft = std::vector<int>(2, 0);  ///< per spool

  ComponentHooks hooks() {
    ComponentHooks h = ComponentHooks::local();
    h.combustor = [this, base = h.combustor](int i, const StationArray& in,
                                             double wf, double eff,
                                             double dp) {
      ++combustor;
      return base(i, in, wf, eff, dp);
    };
    h.duct = [this, base = h.duct](int i, const StationArray& in, double dp) {
      ++duct;
      return base(i, in, dp);
    };
    h.nozzle = [this, base = h.nozzle](int i, const StationArray& in,
                                       double area, double pamb) {
      ++nozzle;
      return base(i, in, area, pamb);
    };
    h.setshaft = [this, base = h.setshaft](int spool, const StationArray& ecom,
                                           int incom, const StationArray& etur,
                                           int intur) {
      ++setshaft;
      return base(spool, ecom, incom, etur, intur);
    };
    h.shaft = [this, base = h.shaft](int spool, const StationArray& ecom,
                                     int incom, const StationArray& etur,
                                     int intur, double ecorr, double xspool,
                                     double xmyi) {
      ++shaft.at(static_cast<std::size_t>(spool));
      return base(spool, ecom, incom, etur, intur, ecorr, xspool, xmyi);
    };
    return h;
  }
};

TEST(F100, HeunTransientEvaluatesTwicePerStepPlusOnce) {
  // The sample evaluation at each accepted state is the next step's first
  // stage: N Heun steps cost 2N + 1 engine evaluations, one shaft call per
  // spool each.
  F100Engine engine;
  SteadyResult steady = engine.balance(1.0, {});
  CountingHooks count;
  engine.set_hooks(count.hooks());
  FuelSchedule step = [](double t) { return t < 0.1 ? 1.0 : 1.27; };
  constexpr int kSteps = 25;
  TransientResult tr = engine.transient(
      steady.performance.speeds, step, {}, kSteps * 0.02, 0.02,
      solvers::IntegratorKind::kModifiedEuler);
  ASSERT_EQ(tr.history.size(), static_cast<std::size_t>(kSteps + 1));
  EXPECT_EQ(tr.rhs_evaluations, 2 * kSteps);
  EXPECT_EQ(count.shaft[0], 2 * kSteps + 1);
  EXPECT_EQ(count.shaft[1], 2 * kSteps + 1);
  EXPECT_EQ(count.setshaft, 0);  // ecorr carries over from the balance
}

TEST(F100, FlowPathCallsEqualFlowMatchResiduals) {
  // Every combustor / duct / nozzle call is one residual of the inner flow
  // match: nothing re-marches the gas path at the solution afterwards.
  F100Engine engine;
  CountingHooks count;
  engine.set_hooks(count.hooks());
  int residuals = 0;
  int evaluations = 0;
  for (double wf : {1.0, 1.01, 1.03, 0.98, 0.98}) {
    Performance p = engine.evaluate(engine.design_states(), wf, {});
    EXPECT_GE(p.flow_evaluations, 1);
    residuals += p.flow_evaluations;
    ++evaluations;
  }
  EXPECT_EQ(count.combustor, residuals);
  EXPECT_EQ(count.duct, 2 * residuals);  // bypass duct and tailpipe
  EXPECT_EQ(count.nozzle, residuals);
  EXPECT_EQ(count.shaft[0], evaluations);
  EXPECT_EQ(count.shaft[1], evaluations);
}

TEST(Turbojet, FlowPathCallsEqualFlowMatchResiduals) {
  TurbojetEngine engine;
  CountingHooks count;
  engine.set_hooks(count.hooks());
  int residuals = 0;
  for (double wf : {0.80, 0.82, 0.78}) {
    residuals +=
        engine.evaluate(engine.design_speeds(), wf, {}).flow_evaluations;
  }
  EXPECT_EQ(count.combustor, residuals);
  EXPECT_EQ(count.duct, residuals);
  EXPECT_EQ(count.nozzle, residuals);
  EXPECT_EQ(count.shaft[0], 3);
}

TEST(F100, LoosenedToleranceCruiseBalanceConvergesByNewton) {
  // At the remote tolerances (flow 5e-6) a balance probe must clear the
  // flow match's tolerance, or its Jacobian column comes out near zero and
  // Newton walks off the maps. The cruise point then balances by Newton
  // alone, in a few evaluations, at the default-tolerance answer.
  const FlightCondition cruise{11000.0, 0.85, 0.0};
  F100Engine reference;
  const Performance want = reference.balance(0.62, cruise).performance;

  F100Engine engine;
  engine.set_solver_tolerances(5e-6, 1e-4);
  CountingHooks count;
  engine.set_hooks(count.hooks());
  const Performance got = engine.balance(0.62, cruise).performance;

  for (std::size_t i = 0; i < want.speeds.size(); ++i) {
    EXPECT_NEAR(got.speeds[i] / want.speeds[i], 1.0, 1e-3) << "spool " << i;
  }
  EXPECT_NEAR(got.thrust / want.thrust, 1.0, 1e-3);
  const int evaluations = (count.shaft[0] + count.shaft[1]) / 2;
  EXPECT_LE(evaluations, 20);
}

TEST(F100, ConvergenceFailureIsReported) {
  F100Engine engine;
  // An absurd fuel flow drives the flow match out of map range.
  EXPECT_THROW((void)engine.balance(25.0, {}), util::ConvergenceError);
}

TEST(F100, SfcConsistency) {
  F100Engine engine;
  SteadyResult r = engine.balance(1.0, {});
  EXPECT_NEAR(r.performance.sfc,
              r.performance.fuel_flow / r.performance.thrust, 1e-12);
}

}  // namespace
}  // namespace npss::tess
