#include "npss/network_driver.hpp"

#include <cmath>

#include "check/flowlint.hpp"
#include "obs/metrics.hpp"
#include "solvers/newton.hpp"
#include "solvers/ode.hpp"
#include "util/log.hpp"
#include "util/status.hpp"

namespace npss::glue {

namespace {

void record_driver_iterations(const char* name, double iterations) {
  if (!obs::enabled()) return;
  obs::Registry::global()
      .histogram(std::string("npss.driver.") + name,
                 obs::default_iteration_bounds())
      .record(iterations);
}

/// Network evaluations of one driver run, reusing the last one for an
/// integrator stage at the speeds just evaluated (the network still holds
/// that evaluation).
solvers::LastEvaluation<std::vector<double>> last_evaluation(
    NetworkEngineDriver& driver) {
  return solvers::LastEvaluation<std::vector<double>>(
      [&driver](const std::vector<double>& speeds, double fuel_flow) {
        driver.set_speeds(speeds);
        return driver.evaluate_flow(fuel_flow);
      });
}

}  // namespace

F100NetworkNames build_f100_network(flow::Network& net,
                                    F100NetworkNames names) {
  register_tess_modules();

  net.add(names.system, "tess-system");
  net.add(names.inlet, "tess-inlet");
  net.add(names.lp_shaft, "tess-shaft");
  net.add(names.hp_shaft, "tess-shaft");
  net.add(names.fan, "tess-compressor");
  net.add(names.splitter, "tess-splitter");
  net.add(names.bleed, "tess-bleed");
  net.add(names.hpc, "tess-compressor");
  net.add(names.burner, "tess-combustor");
  net.add(names.hpt, "tess-turbine");
  net.add(names.lpt, "tess-turbine");
  net.add(names.bypass_duct, "tess-duct");
  net.add(names.mixer, "tess-mixer");
  net.add(names.tailpipe, "tess-duct");
  net.add(names.nozzle, "tess-nozzle");

  // Widget setup matching the F100Config defaults.
  flow::Module& inlet = net.module(names.inlet);
  inlet.widget("W").set_real(102.0);

  flow::Module& fan = net.module(names.fan);
  fan.widget("map").set_text("f100_fan.map");
  fan.widget("design-speed").set_real(10400.0);
  fan.widget("shaft").set_text(names.lp_shaft);

  flow::Module& hpc = net.module(names.hpc);
  hpc.widget("map").set_text("f100_hpc.map");
  hpc.widget("design-speed").set_real(13450.0);
  hpc.widget("shaft").set_text(names.hp_shaft);

  net.module(names.bleed).widget("fraction").set_real(0.05);
  net.module(names.burner).widget("dp").set_real(0.05);

  flow::Module& hpt = net.module(names.hpt);
  hpt.widget("map").set_text("f100_hpt.map");
  hpt.widget("design-speed").set_real(13450.0);
  hpt.widget("shaft").set_text(names.hp_shaft);
  hpt.widget("pr").set_real(3.1);

  flow::Module& lpt = net.module(names.lpt);
  lpt.widget("map").set_text("f100_lpt.map");
  lpt.widget("design-speed").set_real(10400.0);
  lpt.widget("shaft").set_text(names.lp_shaft);
  lpt.widget("pr").set_real(2.3);

  net.module(names.bypass_duct).widget("dp").set_real(0.03);
  net.module(names.mixer).widget("dp").set_real(0.02);
  net.module(names.tailpipe).widget("dp").set_real(0.01);

  flow::Module& nozzle = net.module(names.nozzle);
  nozzle.widget("area").set_real(0.23);
  nozzle.widget("pamb").set_real(tess::kPref);

  flow::Module& lp = net.module(names.lp_shaft);
  lp.widget("moment-inertia").set_real(40.0);
  lp.widget("spool-speed").set_real(10400.0);
  lp.widget("spool-speed-op").set_real(10400.0);

  flow::Module& hp = net.module(names.hp_shaft);
  hp.widget("moment-inertia").set_real(25.0);
  hp.widget("spool-speed").set_real(13450.0);
  hp.widget("spool-speed-op").set_real(13450.0);

  // The airflow through the engine (Figure 2).
  net.connect(names.inlet, "out", names.fan, "in");
  net.connect(names.fan, "out", names.splitter, "in");
  net.connect(names.splitter, "core", names.bleed, "in");
  net.connect(names.bleed, "out", names.hpc, "in");
  net.connect(names.hpc, "out", names.burner, "in");
  net.connect(names.burner, "out", names.hpt, "in");
  net.connect(names.hpt, "out", names.lpt, "in");
  net.connect(names.lpt, "out", names.mixer, "core");
  net.connect(names.splitter, "bypass", names.bypass_duct, "in");
  net.connect(names.bypass_duct, "out", names.mixer, "bypass");
  net.connect(names.mixer, "out", names.tailpipe, "in");
  net.connect(names.tailpipe, "out", names.nozzle, "in");
  // Energy terms into the shafts (the shaft receives data from the
  // upstream compressor, as the paper describes for Figure 2).
  net.connect(names.fan, "ecom", names.lp_shaft, "ecom");
  net.connect(names.lpt, "etur", names.lp_shaft, "etur");
  net.connect(names.hpc, "ecom", names.hp_shaft, "ecom");
  net.connect(names.hpt, "etur", names.hp_shaft, "etur");

  return names;
}

NetworkEngineDriver::NetworkEngineDriver(flow::Network& net,
                                         F100NetworkNames names)
    : net_(&net), names_(std::move(names)) {
  // Engine-config lint at startup: run flow_lint's static pass over the
  // serialized form of the network we were handed. Warnings (serialization
  // hazards, isolated modules) are logged; hard findings (dangling ports,
  // type mismatches, undeclared cycles) abort before the first evaluate,
  // with positions into the serialized text.
  check::FlowLintResult lint = check::lint_network_text(
      "<engine-network>", net.save_to_text(), check::ModuleCatalog::from_factory());
  for (const check::Diagnostic& d : lint.diags) {
    if (d.severity == check::Severity::kWarning) {
      NPSS_LOG_WARN("npss.driver", "flow-lint: ", check::to_string(d));
    }
  }
  if (!lint.ok()) {
    std::string msg = "engine network failed flow-lint:";
    for (const check::Diagnostic& d : lint.diags) {
      if (d.severity == check::Severity::kError) {
        msg += "\n  " + check::to_string(d);
      }
    }
    throw util::GraphError(msg);
  }
}

SystemModule& NetworkEngineDriver::system() {
  return dynamic_cast<SystemModule&>(net_->module(names_.system));
}

ShaftModule& NetworkEngineDriver::lp_shaft() {
  return dynamic_cast<ShaftModule&>(net_->module(names_.lp_shaft));
}

ShaftModule& NetworkEngineDriver::hp_shaft() {
  return dynamic_cast<ShaftModule&>(net_->module(names_.hp_shaft));
}

double NetworkEngineDriver::current_thrust() const {
  const flow::Module& nozzle = net_->module(names_.nozzle);
  const flow::Module& inlet = net_->module(names_.inlet);
  double ram = 0.0;
  if (inlet.outputs()[1].value) ram = inlet.outputs()[1].value->as_real();
  double gross = 0.0;
  for (const flow::OutputPort& p : nozzle.outputs()) {
    if (p.name == "thrust" && p.value) gross = p.value->as_real();
  }
  return gross - ram;
}

double NetworkEngineDriver::current_t4() const {
  const flow::Module& burner = net_->module(names_.burner);
  for (const flow::OutputPort& p : burner.outputs()) {
    if (p.name == "out" && p.value) {
      return station_from_value(*p.value).Tt;
    }
  }
  return 0.0;
}

std::vector<double> NetworkEngineDriver::current_speeds() const {
  auto& self = const_cast<NetworkEngineDriver&>(*this);
  return {self.lp_shaft().speed(), self.hp_shaft().speed()};
}

void NetworkEngineDriver::set_speeds(const std::vector<double>& speeds) {
  lp_shaft().set_speed(speeds[0]);
  hp_shaft().set_speed(speeds[1]);
}

std::vector<double> NetworkEngineDriver::evaluate_flow(double fuel_flow) {
  net_->module(names_.burner).widget("wfuel").set_real(fuel_flow);

  const double w_design =
      tess::compressor_map(net_->module(names_.fan).widget("map").text())
          .design_corrected_flow();
  flow::Module& inlet = net_->module(names_.inlet);
  flow::Module& splitter = net_->module(names_.splitter);
  flow::Module& hpt = net_->module(names_.hpt);
  flow::Module& lpt = net_->module(names_.lpt);

  auto read_real = [&](const std::string& module,
                       const std::string& port) {
    for (const flow::OutputPort& p : net_->module(module).outputs()) {
      if (p.name == port && p.value) return p.value->as_real();
    }
    throw util::GraphError("no value on " + module + "." + port);
  };

  auto residual = [&](const std::vector<double>& u) {
    inlet.widget("W").set_real(std::clamp(u[0], 0.05, 3.0) * w_design);
    splitter.widget("bpr").set_real(std::clamp(u[1], 0.02, 8.0) * 0.7);
    hpt.widget("pr").set_real(std::clamp(u[2], 0.3, 2.5) * 3.1);
    lpt.widget("pr").set_real(std::clamp(u[3], 0.3, 2.5) * 2.3);
    net_->evaluate();
    return std::vector<double>{
        read_real(names_.hpt, "flow-error"),
        read_real(names_.lpt, "flow-error"),
        read_real(names_.mixer, "p-imbalance"),
        read_real(names_.nozzle, "w-error"),
    };
  };

  if (warm_start_.empty()) warm_start_ = {1.0, 1.0, 1.0, 1.0};
  solvers::NewtonOptions opt;
  opt.tolerance = flow_tolerance_;
  opt.max_iterations = 100;
  // The last network evaluation was at the solution: the ports hold it.
  solvers::NewtonResult nr =
      solvers::newton_solve(residual, warm_start_, opt, flow_jacobian_);
  warm_start_ = nr.solution;

  record_driver_iterations("flow_newton_iterations", nr.iterations);
  if (obs::enabled()) {
    obs::Registry::global().counter("npss.driver.flow_evaluations").add();
  }
  return {read_real(names_.lp_shaft, "accel"),
          read_real(names_.hp_shaft, "accel")};
}

NetworkSteadyResult NetworkEngineDriver::balance(double fuel_flow) {
  lp_shaft().clear_setshaft();
  hp_shaft().clear_setshaft();
  const std::vector<double> design = {
      net_->module(names_.fan).widget("design-speed").real(),
      net_->module(names_.hpc).widget("design-speed").real()};

  NetworkSteadyResult result;
  if (system().steady_method() == tess::SteadyMethod::kNewtonRaphson) {
    auto residual = [&](const std::vector<double>& x) {
      set_speeds({x[0] * design[0], x[1] * design[1]});
      std::vector<double> accel = evaluate_flow(fuel_flow);
      return std::vector<double>{accel[0] / 1000.0, accel[1] / 1000.0};
    };
    solvers::NewtonOptions opt;
    opt.tolerance = balance_tolerance_;
    opt.max_iterations = 60;
    // The last residual set the solution's speeds and evaluated there.
    solvers::NewtonResult nr =
        solvers::newton_solve(residual, {1.0, 1.0}, opt);
    result.iterations = nr.iterations;
  } else {
    // RK4 pseudo-transient march.
    auto integrator =
        solvers::make_integrator(solvers::IntegratorKind::kRungeKutta4);
    auto eval = last_evaluation(*this);
    solvers::OdeFn rhs = [&](double, const std::vector<double>& y) {
      return eval(y, fuel_flow);
    };
    std::vector<double> speeds = design;
    int steps = 0;
    while (steps < 20000) {
      const std::vector<double>& accel = eval(speeds, fuel_flow);
      if (std::max(std::abs(accel[0]), std::abs(accel[1])) < 0.5) break;
      speeds = integrator->step(rhs, steps * 0.05, speeds, 0.05);
      ++steps;
    }
    if (steps >= 20000) {
      throw util::ConvergenceError("network RK4 march did not settle");
    }
    result.iterations = steps;
  }
  record_driver_iterations("balance_iterations", result.iterations);
  result.speeds = current_speeds();
  result.thrust = current_thrust();
  result.t4 = current_t4();
  return result;
}

std::vector<NetworkTransientSample> NetworkEngineDriver::run_transient(
    const tess::FuelSchedule& schedule, double t_end, double dt) {
  auto integrator = solvers::make_integrator(system().transient_method());
  std::vector<NetworkTransientSample> history;

  auto eval = last_evaluation(*this);
  solvers::OdeFn rhs = [&](double t, const std::vector<double>& y) {
    return eval(y, schedule(t));
  };
  std::vector<double> speeds = current_speeds();
  eval(speeds, schedule(0.0));
  history.push_back(
      NetworkTransientSample{0.0, speeds, current_thrust(), current_t4()});
  double t = 0.0;
  while (t < t_end - 1e-12) {
    const double step = std::min(dt, t_end - t);
    speeds = integrator->step(rhs, t, speeds, step);
    t += step;
    eval(speeds, schedule(t));
    if (obs::enabled()) {
      obs::Registry::global().counter("npss.driver.transient_steps").add();
    }
    history.push_back(
        NetworkTransientSample{t, speeds, current_thrust(), current_t4()});
  }
  return history;
}

std::vector<NetworkTransientSample>
NetworkEngineDriver::run_configured_transient() {
  SystemModule& sys = system();
  const double wf = sys.widget("fuel-flow").real();
  const double t_end = sys.widget("transient-seconds").real();
  const double dt = sys.widget("time-step").real();
  tess::FuelSchedule schedule = [wf](double) { return wf; };
  return run_transient(schedule, t_end, dt);
}

}  // namespace npss::glue
