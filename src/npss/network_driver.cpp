#include "npss/network_driver.hpp"

#include <algorithm>

#include "check/flowlint.hpp"
#include "util/log.hpp"
#include "util/status.hpp"

namespace npss::glue {

namespace {

double port_real(const flow::Module& module, const std::string& port) {
  for (const flow::OutputPort& p : module.outputs()) {
    if (p.name == port && p.value) return p.value->as_real();
  }
  throw util::GraphError("no value on " + module.instance_name() + "." +
                         port);
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

NetworkEngine::NetworkEngine(flow::Network& net, F100NetworkNames names)
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
      NPSS_LOG_WARN("npss.network", "flow-lint: ", check::to_string(d));
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

SystemModule& NetworkEngine::system() const {
  return dynamic_cast<SystemModule&>(net_->module(names_.system));
}

ShaftModule& NetworkEngine::lp_shaft() const {
  return dynamic_cast<ShaftModule&>(net_->module(names_.lp_shaft));
}

ShaftModule& NetworkEngine::hp_shaft() const {
  return dynamic_cast<ShaftModule&>(net_->module(names_.hp_shaft));
}

std::vector<double> NetworkEngine::design_speeds() const {
  return {net_->module(names_.fan).widget("design-speed").real(),
          net_->module(names_.hpc).widget("design-speed").real()};
}

double NetworkEngine::design_fuel_flow() const {
  return system().widget("fuel-flow").real();
}

void NetworkEngine::reset_run() {
  EngineModel::reset_run();
  lp_shaft().clear_setshaft();
  hp_shaft().clear_setshaft();
}

tess::Performance NetworkEngine::evaluate(const std::vector<double>& speeds,
                                          double wf,
                                          const tess::FlightCondition& flight) {
  if (speeds.size() != 2) {
    throw util::ModelError("f100 network expects two spool speeds, got " +
                           std::to_string(speeds.size()));
  }
  flow::Module& inlet = net_->module(names_.inlet);
  inlet.widget("altitude").set_real(flight.altitude_m);
  inlet.widget("mach").set_real(flight.mach);
  inlet.widget("dT-isa").set_real(flight.dT_isa);
  net_->module(names_.nozzle).widget("pamb").set_real(
      flight.ambient_pressure());
  lp_shaft().set_speed(speeds[0]);
  hp_shaft().set_speed(speeds[1]);
  net_->module(names_.burner).widget("wfuel").set_real(wf);

  const double w_design =
      tess::compressor_map(net_->module(names_.fan).widget("map").text())
          .design_corrected_flow();
  flow::Module& splitter = net_->module(names_.splitter);
  flow::Module& hpt = net_->module(names_.hpt);
  flow::Module& lpt = net_->module(names_.lpt);
  const flow::Module& mixer = net_->module(names_.mixer);
  const flow::Module& nozzle = net_->module(names_.nozzle);

  auto residual = [&](const std::vector<double>& u) {
    inlet.widget("W").set_real(std::clamp(u[0], 0.05, 3.0) * w_design);
    splitter.widget("bpr").set_real(std::clamp(u[1], 0.02, 8.0) * 0.7);
    hpt.widget("pr").set_real(std::clamp(u[2], 0.3, 2.5) * 3.1);
    lpt.widget("pr").set_real(std::clamp(u[3], 0.3, 2.5) * 2.3);
    net_->evaluate();
    return std::vector<double>{
        port_real(hpt, "flow-error"),
        port_real(lpt, "flow-error"),
        port_real(mixer, "p-imbalance"),
        port_real(nozzle, "w-error"),
    };
  };
  // The last network evaluation was at the solution: the ports hold it.
  const solvers::NewtonResult nr = solve_flow_match(residual, 4);

  tess::Performance perf;
  perf.fuel_flow = wf;
  perf.speeds = speeds;
  perf.states = speeds;
  perf.accelerations = {port_real(lp_shaft(), "accel"),
                        port_real(hp_shaft(), "accel")};
  perf.thrust = port_real(nozzle, "thrust") - port_real(inlet, "ram-drag");
  for (const flow::OutputPort& p : net_->module(names_.burner).outputs()) {
    if (p.name == "out" && p.value) perf.t4 = station_from_value(*p.value).Tt;
  }
  perf.flow_iterations = nr.iterations;
  perf.flow_evaluations = nr.function_evaluations;
  return perf;
}

}  // namespace npss::glue
