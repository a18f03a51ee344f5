#include "tess/engine.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "util/status.hpp"

namespace npss::tess {

namespace {

double clampd(double v, double lo, double hi) {
  return std::clamp(v, lo, hi);
}

// The engine drivers' metric handles, resolved once.
struct EngineMetrics {
  obs::Histogram& balance_iterations;
  obs::Histogram& step_flow_iterations;
  obs::Counter& transient_steps;
  obs::Counter& rhs_evaluations;
};

EngineMetrics& engine_metrics() {
  static EngineMetrics m = [] {
    obs::Registry& reg = obs::Registry::global();
    const std::vector<double>& bounds = obs::default_iteration_bounds();
    return EngineMetrics{
        reg.histogram("tess.engine.balance_iterations", bounds),
        reg.histogram("tess.engine.step_flow_iterations", bounds),
        reg.counter("tess.engine.transient_steps"),
        reg.counter("tess.engine.rhs_evaluations")};
  }();
  return m;
}

void record_iterations(obs::Histogram& histogram, double iterations) {
  if (obs::enabled()) histogram.record(iterations);
}

/// Engine evaluations of one driver run at one flight condition, reusing
/// the last one for an integrator stage at the state just evaluated.
solvers::LastEvaluation<Performance> last_evaluation(
    EngineModel& engine, const FlightCondition& flight) {
  return solvers::LastEvaluation<Performance>(
      [&engine, &flight](const std::vector<double>& states, double wf) {
        return engine.evaluate(states, wf, flight);
      });
}

}  // namespace

// --- Shared drivers -----------------------------------------------------------

SteadyResult EngineModel::balance(double wf, const FlightCondition& flight,
                                  SteadyMethod method) {
  reset_run();  // setshaft runs once per steady computation, as in TESS
  const std::vector<double> design = design_states();
  const std::vector<double> scales = balance_scales();
  const int n = num_states();

  if (method == SteadyMethod::kNewtonRaphson) {
    solvers::NewtonOptions opt;
    opt.tolerance = balance_tolerance_;
    opt.max_iterations = 60;
    // Each Jacobian column carries the flow match's error (up to its
    // tolerance) divided by the probe, so a probe of 100x that tolerance
    // keeps the error near 1% of the column; a probe inside the tolerance
    // would return the flow match unchanged and a zero column.
    opt.fd_step = std::max(1e-5, 100.0 * flow_tolerance_);
    Performance last;
    auto residual = [&](const std::vector<double>& x) {
      std::vector<double> states(n);
      for (int i = 0; i < n; ++i) states[i] = x[i] * design[i];
      last = evaluate(states, wf, flight);
      std::vector<double> r(n);
      for (int i = 0; i < n; ++i) {
        r[i] = last.accelerations[i] / scales[i];
      }
      return r;
    };
    const solvers::NewtonResult nr =
        solvers::newton_solve(residual, std::vector<double>(n, 1.0), opt);
    // newton_solve's last residual was at the solution, so `last` is the
    // evaluation there.
    SteadyResult result;
    result.performance = std::move(last);
    result.iterations = nr.iterations;
    result.residual = nr.residual_norm;
    record_iterations(engine_metrics().balance_iterations, result.iterations);
    return result;
  }

  // Pseudo-transient march to equilibrium; the volume state (if any) is
  // stiff, so the march uses Gear while the pure-spool model keeps RK4.
  auto integrator = solvers::make_integrator(
      num_states() > num_spools() ? solvers::IntegratorKind::kGear
                                  : solvers::IntegratorKind::kRungeKutta4);
  std::vector<double> states = design;
  const double dt = 0.05;
  int steps = 0;
  auto eval = last_evaluation(*this, flight);
  solvers::OdeFn rhs = [&](double, const std::vector<double>& y) {
    return eval(y, wf).accelerations;
  };
  while (steps < 20000) {
    const Performance& perf = eval(states, wf);
    double worst = 0.0;
    for (int i = 0; i < n; ++i) {
      // Settle to 0.5 rpm/s equivalent on every state.
      worst = std::max(worst,
                       std::abs(perf.accelerations[i]) * 1000.0 / scales[i]);
    }
    if (worst < 0.5) {
      SteadyResult result;
      result.performance = perf;
      result.iterations = steps;
      result.residual = worst;
      record_iterations(engine_metrics().balance_iterations, result.iterations);
      return result;
    }
    states = integrator->step(rhs, steps * dt, states, dt);
    ++steps;
  }
  throw util::ConvergenceError("steady march did not settle in " +
                               std::to_string(steps) + " steps");
}

TransientResult EngineModel::transient(const std::vector<double>& initial_speeds,
                                       const FuelSchedule& schedule,
                                       const FlightCondition& flight,
                                       double t_end, double dt,
                                       solvers::IntegratorKind kind) {
  auto integrator = solvers::make_integrator(kind);
  TransientResult result;
  auto eval = last_evaluation(*this, flight);
  solvers::OdeFn rhs = [&](double t, const std::vector<double>& y) {
    return eval(y, schedule(t)).accelerations;
  };
  result.history.push_back(
      TransientSample{0.0, eval(initial_speeds, schedule(0.0))});
  auto observer = [&](double t, const std::vector<double>& y) {
    Performance p = eval(y, schedule(t));
    record_iterations(engine_metrics().step_flow_iterations,
                      p.flow_iterations);
    if (obs::enabled()) engine_metrics().transient_steps.add();
    result.history.push_back(TransientSample{t, std::move(p)});
  };
  solvers::integrate(*integrator, rhs, 0.0, t_end, dt, initial_speeds,
                     observer);
  result.rhs_evaluations = integrator->evaluations();
  if (obs::enabled()) {
    engine_metrics().rhs_evaluations.add(
        static_cast<std::uint64_t>(result.rhs_evaluations));
  }
  return result;
}

void EngineModel::reset_run() { ecorr_.clear(); }

solvers::NewtonResult EngineModel::solve_flow_match(
    const solvers::ResidualFn& residual, std::size_t unknowns,
    int max_iterations) {
  if (flow_warm_start_.size() != unknowns) {
    flow_warm_start_.assign(unknowns, 1.0);
  }
  solvers::NewtonOptions opt;
  opt.tolerance = flow_tolerance_;
  opt.max_iterations = max_iterations;
  solvers::NewtonResult nr =
      solvers::newton_solve(residual, flow_warm_start_, opt, flow_jacobian_);
  flow_warm_start_ = nr.solution;
  return nr;
}

// --- Turbojet -------------------------------------------------------------------

TurbojetEngine::TurbojetEngine(TurbojetConfig config)
    : config_(std::move(config)),
      cmap_(&compressor_map(config_.compressor_map)),
      tmap_(&turbine_map(config_.turbine_map)) {}

Performance TurbojetEngine::evaluate(const std::vector<double>& speeds,
                                     double wf,
                                     const FlightCondition& flight) {
  if (speeds.size() != 1) {
    throw util::ModelError("turbojet expects one spool speed");
  }
  const double n = speeds[0];
  const double w_design = cmap_->design_corrected_flow();

  CompressorResult comp;
  TurbineResult turb;
  GasState st7;
  StationArray noz{};
  GasState st2, st4;

  auto flow_residual = [&](const std::vector<double>& u) {
    const double w2 = clampd(u[0], 0.05, 3.0) * w_design;
    const double pr_t = clampd(u[1], 0.3, 2.5) * tmap_->design_pr();
    st2 = inlet(flight, w2).out;
    comp = compressor(st2, *cmap_, n, config_.n_design);
    StationArray burn = hooks_.combustor(0, to_array(comp.out), wf,
                                         config_.burner_eff,
                                         config_.burner_dp);
    st4 = from_array(burn);
    turb = turbine(st4, *tmap_, pr_t, n, config_.n_design);
    StationArray tail =
        hooks_.duct(0, to_array(turb.out), config_.tailpipe_dp);
    st7 = from_array(tail);
    noz = hooks_.nozzle(0, tail, config_.nozzle_area,
                        flight.ambient_pressure());
    return std::vector<double>{
        (st4.W - turb.flow_demand) / w_design,
        (st7.W - noz[0]) / w_design,
    };
  };

  // The last residual was at the solution: the stations describe it.
  const solvers::NewtonResult nr = solve_flow_match(flow_residual, 2, 80);

  Performance perf;
  perf.airflow = st2.W;
  perf.fuel_flow = wf;
  perf.t4 = st4.Tt;
  perf.opr = comp.out.Pt / st2.Pt;
  perf.speeds = speeds;
  perf.states = speeds;
  perf.surge_margins = {comp.surge_margin};
  perf.flow_iterations = nr.iterations;
  perf.flow_evaluations = nr.function_evaluations;
  perf.stations = {{"st2", st2},      {"st3", comp.out},
                   {"st4", st4},      {"st5", turb.out},
                   {"st7", st7}};

  const double ram = inlet(flight, st2.W).ram_drag;
  perf.thrust = noz[1] - ram;
  perf.sfc = wf / std::max(perf.thrust, 1.0);

  const double dh_c = enthalpy(comp.out.Tt) - enthalpy(st2.Tt);
  const double dh_t =
      enthalpy(st4.Tt, st4.far) - enthalpy(turb.out.Tt, st4.far);
  StationArray ecom{comp.power, st2.W, dh_c, comp.point.eff};
  StationArray etur{turb.power, st4.W, dh_t, turb.point.eff};
  if (ecorr_.empty()) {
    ecorr_ = {hooks_.setshaft(0, ecom, 1, etur, 1)};
  }
  perf.accelerations = {hooks_.shaft(0, ecom, 1, etur, 1, ecorr_[0], n,
                                     config_.inertia)};
  return perf;
}

// --- F100 two-spool mixed turbofan -------------------------------------------------

F100Engine::F100Engine(F100Config config)
    : config_(std::move(config)),
      fan_map_(&compressor_map(config_.fan_map)),
      hpc_map_(&compressor_map(config_.hpc_map)),
      hpt_map_(&turbine_map(config_.hpt_map)),
      lpt_map_(&turbine_map(config_.lpt_map)) {}

std::vector<double> F100Engine::design_states() const {
  if (!volume_dynamics()) return design_speeds();
  // Third state: mixer plenum total pressure near its design value.
  return {config_.n1_design, config_.n2_design, 3.1e5};
}

std::vector<double> F100Engine::balance_scales() const {
  if (!volume_dynamics()) return {1000.0, 1000.0};
  // The plenum pressure derivative is in Pa/s with a ~ms time constant.
  return {1000.0, 1000.0, 1e9};
}

Performance F100Engine::evaluate(const std::vector<double>& states, double wf,
                                 const FlightCondition& flight) {
  const bool vol = volume_dynamics();
  if (static_cast<int>(states.size()) != num_states()) {
    throw util::ModelError("f100 expects " + std::to_string(num_states()) +
                           " states, got " + std::to_string(states.size()));
  }
  const double n1 = states[0], n2 = states[1];
  // Clamp the plenum pressure into its physical envelope so integrator
  // predictors probing far-out states cannot push the flow match off the
  // maps entirely.
  const double pt6_state = vol ? clampd(states[2], 0.4e5, 1.0e6) : 0.0;
  const double w_design = fan_map_->design_corrected_flow();

  GasState st2, st13, st25, st3, st4, st45, st5, st16, st16d, st6, st7;
  CompressorResult fan, hpc;
  TurbineResult hpt, lpt;
  MixerResult mixer;
  StationArray noz{};

  // March the gas path for one candidate operating point. In volume mode
  // pr_lpt < 0 means "derive the LPT expansion from the plenum pressure".
  auto march = [&](double w2, double bpr, double pr_hpt, double pr_lpt) {
    st2 = inlet(flight, w2).out;
    fan = compressor(st2, *fan_map_, n1, config_.n1_design);
    st13 = fan.out;

    // Splitter: core and bypass share the fan exit total state.
    st25 = st13;
    st25.W = st13.W / (1.0 + bpr);
    st16 = st13;
    st16.W = st13.W - st25.W;

    BleedResult bl = bleed(st25, config_.bleed_fraction);
    hpc = compressor(bl.out, *hpc_map_, n2, config_.n2_design);
    st3 = hpc.out;

    // Start/part-power bleed: below the threshold HP speed a
    // compressor-exit bleed valve opens progressively, pulling extra flow
    // through the HPC so its operating point stays off the surge line —
    // the operability fix real engines use at low power.
    const double n2_rel = n2 / config_.n2_design;
    GasState st3b = st3;
    if (n2_rel < config_.start_bleed_below) {
      const double open =
          std::min(1.0, (config_.start_bleed_below - n2_rel) /
                            std::max(config_.start_bleed_below - 0.60, 1e-6));
      st3b = bleed(st3, config_.start_bleed_max * open).out;
    }

    StationArray burn = hooks_.combustor(0, to_array(st3b), wf,
                                         config_.burner_eff,
                                         config_.burner_dp);
    st4 = from_array(burn);

    hpt = turbine(st4, *hpt_map_, pr_hpt, n2, config_.n2_design);
    st45 = hpt.out;
    if (pr_lpt < 0.0) {
      // Intercomponent-volume mode: the LPT exhausts into the plenum.
      pr_lpt = std::max(st45.Pt * (1.0 - config_.mixer_dp) / pt6_state,
                        1.0 + 1e-6);
    }
    lpt = turbine(st45, *lpt_map_, pr_lpt, n1, config_.n1_design);
    st5 = lpt.out;

    StationArray bdx =
        hooks_.duct(0, to_array(st16), config_.bypass_duct_dp);
    st16d = from_array(bdx);

    mixer = mix(st5, st16d, config_.mixer_dp);
    st6 = mixer.out;
    if (vol) st6.Pt = pt6_state;
    StationArray tail =
        hooks_.duct(1, to_array(st6), config_.tailpipe_dp);
    st7 = from_array(tail);
    noz = hooks_.nozzle(0, tail, config_.nozzle_area,
                        flight.ambient_pressure());
  };

  solvers::NewtonResult nr;
  if (vol) {
    // The plenum pressure dictates the fan back-pressure, so the fan
    // operating point — and with it the inlet flow — follows directly
    // from the map (no unknown): the classic intercomponent-volume
    // formulation, which keeps the fast pressure physics out of the
    // Newton iteration entirely.
    const GasState free_stream = inlet(flight, 1.0).out;
    const double nc_rel =
        (n1 / std::sqrt(free_stream.theta())) / config_.n1_design;
    const double pr_fan_needed =
        pt6_state / ((1.0 - config_.bypass_duct_dp) *
                     (1.0 - config_.mixer_dp)) /
        free_stream.Pt;
    CompressorPoint fan_pt = fan_map_->at_pr(nc_rel, pr_fan_needed);
    const double w2 =
        fan_pt.wc * free_stream.delta() / std::sqrt(free_stream.theta());

    auto residual = [&](const std::vector<double>& u) {
      const double bpr = clampd(u[0], 0.02, 8.0) * 0.7;
      const double pr_hpt = clampd(u[1], 0.3, 2.5) * hpt_map_->design_pr();
      march(w2, bpr, pr_hpt, -1.0);
      return std::vector<double>{
          (st4.W - hpt.flow_demand) / w_design,
          (st45.W - lpt.flow_demand) / w_design,
      };
    };
    nr = solve_flow_match(residual, 2);
  } else {
    auto residual = [&](const std::vector<double>& u) {
      march(clampd(u[0], 0.05, 3.0) * w_design,
            clampd(u[1], 0.02, 8.0) * 0.7,
            clampd(u[2], 0.3, 2.5) * hpt_map_->design_pr(),
            clampd(u[3], 0.3, 2.5) * lpt_map_->design_pr());
      return std::vector<double>{
          (st4.W - hpt.flow_demand) / w_design,
          (st45.W - lpt.flow_demand) / w_design,
          mixer.pressure_imbalance,
          (st7.W - noz[0]) / w_design,
      };
    };
    nr = solve_flow_match(residual, 4);
  }
  // Either way the last march was at the solution: the stations describe it.

  Performance perf;
  perf.airflow = st2.W;
  perf.fuel_flow = wf;
  perf.t4 = st4.Tt;
  perf.opr = st3.Pt / st2.Pt;
  perf.speeds = {n1, n2};
  perf.states = states;
  perf.surge_margins = {fan.surge_margin, hpc.surge_margin};
  perf.flow_iterations = nr.iterations;
  perf.flow_evaluations = nr.function_evaluations;
  perf.stations = {{"st2", st2},   {"st13", st13}, {"st25", st25},
                   {"st3", st3},   {"st4", st4},   {"st45", st45},
                   {"st5", st5},   {"st16", st16}, {"st6", st6},
                   {"st7", st7}};

  const double ram = inlet(flight, st2.W).ram_drag;
  perf.thrust = noz[1] - ram;
  perf.sfc = wf / std::max(perf.thrust, 1.0);

  // LP shaft: fan absorbed vs LPT delivered; HP shaft: HPC vs HPT (the
  // paper's two shaft-module instances, "low speed shaft" in Figure 2).
  const double dh_fan = enthalpy(st13.Tt) - enthalpy(st2.Tt);
  const double dh_hpc = enthalpy(st3.Tt) - enthalpy(st25.Tt);
  const double dh_hpt =
      enthalpy(st4.Tt, st4.far) - enthalpy(st45.Tt, st4.far);
  const double dh_lpt =
      enthalpy(st45.Tt, st45.far) - enthalpy(st5.Tt, st45.far);
  StationArray ecom_lp{fan.power, st2.W, dh_fan, fan.point.eff};
  StationArray etur_lp{lpt.power, st45.W, dh_lpt, lpt.point.eff};
  StationArray ecom_hp{hpc.power, st25.W, dh_hpc, hpc.point.eff};
  StationArray etur_hp{hpt.power, st4.W, dh_hpt, hpt.point.eff};
  if (ecorr_.empty()) {
    ecorr_ = {hooks_.setshaft(0, ecom_lp, 1, etur_lp, 1),
              hooks_.setshaft(1, ecom_hp, 1, etur_hp, 1)};
  }
  perf.accelerations = {
      hooks_.shaft(0, ecom_lp, 1, etur_lp, 1, ecorr_[0], n1,
                   config_.inertia_lp),
      hooks_.shaft(1, ecom_hp, 1, etur_hp, 1, ecorr_[1], n2,
                   config_.inertia_hp),
  };
  if (vol) {
    // Plenum filling/emptying: the nozzle passes what the plenum
    // pressure drives through it; any imbalance charges the volume.
    perf.accelerations.push_back(
        volume_dpdt(st6, config_.mixer_volume_m3, st5.W + st16d.W, noz[0]));
  }
  return perf;
}

}  // namespace npss::tess
