#include "npss/modules.hpp"

#include <cmath>

#include "flow/network.hpp"
#include "npss/procedures.hpp"
#include "obs/metrics.hpp"
#include "tess/components.hpp"
#include "util/log.hpp"
#include "util/status.hpp"

namespace npss::glue {

using flow::ModuleSpec;
using tess::GasState;
using tess::StationArray;
using uts::Value;
using uts::ValueList;

const uts::Type& station_type() {
  static const uts::Type type = uts::Type::record({
      {"W", uts::Type::real_double()},
      {"Tt", uts::Type::real_double()},
      {"Pt", uts::Type::real_double()},
      {"FAR", uts::Type::real_double()},
  });
  return type;
}

const uts::Type& energy_type() {
  static const uts::Type type =
      uts::Type::array(4, uts::Type::real_double());
  return type;
}

uts::Value station_to_value(const GasState& s) {
  return Value::record({Value::real(s.W), Value::real(s.Tt),
                        Value::real(s.Pt), Value::real(s.far)});
}

GasState station_from_value(const Value& v) {
  const ValueList& f = v.items();
  return GasState{f[0].as_real(), f[1].as_real(), f[2].as_real(),
                  f[3].as_real()};
}

uts::Value energy_to_value(const StationArray& a) {
  return Value::real_array({a[0], a[1], a[2], a[3]});
}

StationArray energy_from_value(const Value& v) {
  std::vector<double> r = v.as_real_vector();
  return {r[0], r[1], r[2], r[3]};
}

namespace {

/// Shaft lookup used by compressor and turbine modules: the spool a
/// turbomachine rides on is named by its "shaft" widget (TESS wired this
/// through the network; a name reference keeps the graph acyclic, as the
/// speed genuinely is state, not dataflow).
ShaftModule& shaft_by_name(flow::Module& self) {
  const std::string name = self.widget("shaft").text();
  if (!self.network() || !self.network()->has(name)) {
    throw util::GraphError("module '" + self.instance_name() +
                           "': no shaft module named '" + name + "'");
  }
  auto* shaft = dynamic_cast<ShaftModule*>(&self.network()->module(name));
  if (!shaft) {
    throw util::GraphError("module '" + name + "' is not a tess-shaft");
  }
  return *shaft;
}

Value station_wire_value(const StationArray& a) {
  return Value::real_array({a[0], a[1], a[2], a[3]});
}

StationArray station_wire_from(const Value& v) {
  std::vector<double> r = v.as_real_vector();
  return {r[0], r[1], r[2], r[3]};
}

}  // namespace

// --- AdaptedModule ---------------------------------------------------------------

bool AdaptedModule::remote() const {
  return widget("machine").text() != kLocalMachine;
}

void AdaptedModule::placement_widgets(ModuleSpec& spec,
                                      const std::string& default_path) {
  NpssRuntime& rt = npss_runtime();
  std::vector<std::string> choices =
      rt.configured() ? rt.machine_choices()
                      : std::vector<std::string>{kLocalMachine};
  spec.radio_buttons("machine", std::move(choices), kLocalMachine);
  spec.typein_string("path", default_path);
}

rpc::Line& AdaptedModule::remote_line() {
  NpssRuntime& rt = npss_runtime();
  if (!rt.configured()) {
    throw util::ModelError("module '" + instance_name() +
                           "': NPSS runtime not configured for remote "
                           "computation");
  }
  const std::string machine = widget("machine").text();
  const std::string path = widget("path").text();
  const std::string key = machine + ":" + path;
  if (!line_ || contacted_machine_ != key) {
    if (line_) line_->quit();
    line_.reset();  // before the session it was opened from
    session_ = rt.schooner->make_session(rt.avs_machine);
    line_ = session_->open_line(rpc::LineOptions{}.with_name(instance_name()));
    line_->contact_schx(machine, path);
    bind_imports(*line_);
    contacted_machine_ = key;
  }
  return *line_;
}

bool AdaptedModule::remote_invoke(rpc::RemoteProc& proc, ValueList args,
                                  ValueList* out) {
  NpssRuntime& rt = npss_runtime();
  rpc::CallResult result = proc.call(std::move(args), rt.call_options);
  if (result.ok()) {
    *out = std::move(result.values);
    return true;
  }
  if (!rt.local_fallback) result.status.raise_if_error();
  degraded_ = true;
  NPSS_LOG_WARN("npss.glue", "module '", instance_name(),
                "' degraded to local compute: ", result.status.to_string(),
                " (", result.attempt_count(), " attempt(s))");
  if (obs::enabled()) {
    obs::Registry::global().counter("npss.remote.degraded_calls").add();
  }
  return false;
}

void AdaptedModule::destroy() {
  if (line_) {
    line_->quit();  // sch_i_quit: the Manager tears down only this line
    line_.reset();
    session_.reset();
    contacted_machine_.clear();
  }
}

// --- Inlet -----------------------------------------------------------------------

void InletModule::spec(ModuleSpec& spec) {
  spec.typein_real("altitude", 0.0);
  spec.typein_real("mach", 0.0);
  spec.typein_real("dT-isa", 0.0);
  spec.typein_real("W", 100.0);
  spec.output("out", station_type());
  spec.output("ram-drag", uts::Type::real_double());
}

void InletModule::compute() {
  tess::FlightCondition flight{widget("altitude").real(),
                               widget("mach").real(),
                               widget("dT-isa").real()};
  tess::InletResult r = tess::inlet(flight, widget("W").real());
  out("out", station_to_value(r.out));
  out_real("ram-drag", r.ram_drag);
}

// --- Compressor -------------------------------------------------------------------

void CompressorModule::spec(ModuleSpec& spec) {
  spec.browser("map", "f100_fan.map");
  spec.typein_real("design-speed", 10400.0);
  spec.typein_string("shaft", "shaft");
  spec.input("in", station_type());
  spec.output("out", station_type());
  spec.output("ecom", energy_type());
  spec.output("surge-margin", uts::Type::real_double());
  spec.output("power", uts::Type::real_double());
}

void CompressorModule::compute() {
  const GasState in_state = station_from_value(in("in"));
  const tess::CompressorMap& map =
      tess::compressor_map(widget("map").text());
  const double n = shaft_by_name(*this).speed();
  tess::CompressorResult r =
      tess::compressor(in_state, map, n, widget("design-speed").real());
  const double dh =
      tess::enthalpy(r.out.Tt, in_state.far) -
      tess::enthalpy(in_state.Tt, in_state.far);
  out("out", station_to_value(r.out));
  out("ecom", energy_to_value({r.power, in_state.W, dh, r.point.eff}));
  out_real("surge-margin", r.surge_margin);
  out_real("power", r.power);
}

// --- Splitter ---------------------------------------------------------------------

void SplitterModule::spec(ModuleSpec& spec) {
  spec.typein_real("bpr", 0.7);
  spec.input("in", station_type());
  spec.output("core", station_type());
  spec.output("bypass", station_type());
}

void SplitterModule::compute() {
  GasState in_state = station_from_value(in("in"));
  const double bpr = widget("bpr").real();
  GasState core = in_state;
  core.W = in_state.W / (1.0 + bpr);
  GasState bypass = in_state;
  bypass.W = in_state.W - core.W;
  out("core", station_to_value(core));
  out("bypass", station_to_value(bypass));
}

// --- Bleed ------------------------------------------------------------------------

void BleedModule::spec(ModuleSpec& spec) {
  spec.dial("fraction", 0.05, 0.0, 0.5);
  spec.input("in", station_type());
  spec.output("out", station_type());
  spec.output("bleed", station_type());
}

void BleedModule::compute() {
  tess::BleedResult r = tess::bleed(station_from_value(in("in")),
                                    widget("fraction").real());
  out("out", station_to_value(r.out));
  out("bleed", station_to_value(r.bleed));
}

// --- Turbine ----------------------------------------------------------------------

void TurbineModule::spec(ModuleSpec& spec) {
  spec.browser("map", "f100_hpt.map");
  spec.typein_real("design-speed", 13450.0);
  spec.typein_string("shaft", "shaft");
  spec.typein_real("pr", 3.0);
  spec.input("in", station_type());
  spec.output("out", station_type());
  spec.output("etur", energy_type());
  spec.output("flow-error", uts::Type::real_double());
}

void TurbineModule::compute() {
  const GasState in_state = station_from_value(in("in"));
  const tess::TurbineMap& map = tess::turbine_map(widget("map").text());
  const double n = shaft_by_name(*this).speed();
  tess::TurbineResult r = tess::turbine(in_state, map, widget("pr").real(),
                                        n, widget("design-speed").real());
  const double dh =
      tess::enthalpy(in_state.Tt, in_state.far) -
      tess::enthalpy(r.out.Tt, in_state.far);
  out("out", station_to_value(r.out));
  out("etur", energy_to_value({r.power, in_state.W, dh, r.point.eff}));
  out_real("flow-error",
           (in_state.W - r.flow_demand) / std::max(in_state.W, 1e-6));
}

// --- Mixer ------------------------------------------------------------------------

void MixerModule::spec(ModuleSpec& spec) {
  spec.typein_real("dp", 0.02);
  spec.input("core", station_type());
  spec.input("bypass", station_type());
  spec.output("out", station_type());
  spec.output("p-imbalance", uts::Type::real_double());
}

void MixerModule::compute() {
  tess::MixerResult r =
      tess::mix(station_from_value(in("core")),
                station_from_value(in("bypass")), widget("dp").real());
  out("out", station_to_value(r.out));
  out_real("p-imbalance", r.pressure_imbalance);
}

// --- Duct (adapted) -----------------------------------------------------------------

void DuctModule::spec(ModuleSpec& spec) {
  spec.typein_real("dp", 0.02);
  placement_widgets(spec, kDuctPath);
  spec.input("in", station_type());
  spec.output("out", station_type());
}

void DuctModule::bind_imports(rpc::Line& line) {
  duct_ = line.import_proc("duct", duct_import_spec());
}

void DuctModule::compute() {
  const GasState in_state = station_from_value(in("in"));
  const double dp = widget("dp").real();
  if (!remote()) {
    out("out", station_to_value(tess::duct(in_state, dp)));
    return;
  }
  remote_line();
  ValueList reply;
  if (!remote_invoke(*duct_,
                     {station_wire_value(tess::to_array(in_state)),
                      Value::real(dp), Value::real_array({0, 0, 0, 0})},
                     &reply)) {
    out("out", station_to_value(tess::duct(in_state, dp)));
    return;
  }
  out("out",
      station_to_value(tess::from_array(station_wire_from(reply[2]))));
}

// --- Combustor (adapted) --------------------------------------------------------------

void CombustorModule::spec(ModuleSpec& spec) {
  spec.typein_real("wfuel", 1.27);
  spec.typein_real("eff", 0.985);
  spec.typein_real("dp", 0.05);
  // Transient control-schedule trim (§3.2's stator-angle schedules,
  // reduced to an efficiency trim knob for the level-1 model).
  spec.dial("trim", 1.0, 0.8, 1.2);
  placement_widgets(spec, kCombustorPath);
  spec.input("in", station_type());
  spec.output("out", station_type());
}

void CombustorModule::bind_imports(rpc::Line& line) {
  combustor_ = line.import_proc("combustor", combustor_import_spec());
}

void CombustorModule::compute() {
  const GasState in_state = station_from_value(in("in"));
  const double wf = widget("wfuel").real();
  const double eff = widget("eff").real() * widget("trim").real();
  const double dp = widget("dp").real();
  if (!remote()) {
    out("out", station_to_value(tess::combustor(in_state, wf, eff, dp).out));
    return;
  }
  remote_line();
  ValueList reply;
  if (!remote_invoke(*combustor_,
                     {station_wire_value(tess::to_array(in_state)),
                      Value::real(wf), Value::real(eff), Value::real(dp),
                      Value::real_array({0, 0, 0, 0})},
                     &reply)) {
    out("out", station_to_value(tess::combustor(in_state, wf, eff, dp).out));
    return;
  }
  out("out",
      station_to_value(tess::from_array(station_wire_from(reply[4]))));
}

// --- Nozzle (adapted) ----------------------------------------------------------------

void NozzleModule::spec(ModuleSpec& spec) {
  spec.typein_real("area", 0.23);
  spec.typein_real("pamb", tess::kPref);
  placement_widgets(spec, kNozzlePath);
  spec.input("in", station_type());
  spec.output("w-error", uts::Type::real_double());
  spec.output("thrust", uts::Type::real_double());
}

void NozzleModule::bind_imports(rpc::Line& line) {
  nozzle_ = line.import_proc("nozzle", nozzle_import_spec());
}

void NozzleModule::compute() {
  const GasState in_state = station_from_value(in("in"));
  const double area = widget("area").real();
  const double pamb = widget("pamb").real();
  double w_required = 0.0, thrust = 0.0;
  if (!remote()) {
    tess::NozzleResult r = tess::nozzle(in_state, area, pamb);
    w_required = r.w_required;
    thrust = r.thrust;
  } else {
    remote_line();
    ValueList reply;
    if (remote_invoke(*nozzle_,
                      {station_wire_value(tess::to_array(in_state)),
                       Value::real(area), Value::real(pamb),
                       Value::real_array({0, 0, 0, 0})},
                      &reply)) {
      StationArray r = station_wire_from(reply[3]);
      w_required = r[0];
      thrust = r[1];
    } else {
      tess::NozzleResult r = tess::nozzle(in_state, area, pamb);
      w_required = r.w_required;
      thrust = r.thrust;
    }
  }
  out_real("w-error",
           (in_state.W - w_required) / std::max(in_state.W, 1e-6));
  out_real("thrust", thrust);
}

// --- Shaft (adapted) ----------------------------------------------------------------

void ShaftModule::spec(ModuleSpec& spec) {
  // The paper's control panel: moment inertia, spool speed, spool
  // speed-op (Figure 2's low speed shaft panel).
  spec.typein_real("moment-inertia", 40.0);
  spec.typein_real("spool-speed", 10400.0);
  spec.typein_real("spool-speed-op", 10400.0);
  placement_widgets(spec, kShaftPath);
  spec.input("ecom", energy_type());
  spec.input("etur", energy_type());
  spec.output("accel", uts::Type::real_double());
  spec.output("speed", uts::Type::real_double());
}

void ShaftModule::bind_imports(rpc::Line& line) {
  shaft_ = line.import_proc("shaft", shaft_import_spec());
  setshaft_ = line.import_proc("setshaft", shaft_import_spec());
}

void ShaftModule::run_setshaft() {
  const StationArray ecom = energy_from_value(in("ecom"));
  const StationArray etur = energy_from_value(in("etur"));
  if (!remote()) {
    ecorr_ = tess::setshaft(ecom.data(), 1, etur.data(), 1);
  } else {
    remote_line();
    ValueList reply;
    if (remote_invoke(*setshaft_,
                      {energy_to_value(ecom), Value::integer(1),
                       energy_to_value(etur), Value::integer(1),
                       Value::real(0)},
                      &reply)) {
      ecorr_ = reply[4].as_real();
    } else {
      ecorr_ = tess::setshaft(ecom.data(), 1, etur.data(), 1);
    }
  }
  have_ecorr_ = true;
}

void ShaftModule::compute() {
  // An interactive spool-speed widget change resets the state.
  if (widget("spool-speed").changed()) {
    speed_ = widget("spool-speed").real();
  }
  if (!has_in("ecom") || !has_in("etur")) {
    out_real("accel", 0.0);
    out_real("speed", speed_);
    return;
  }
  if (!have_ecorr_) run_setshaft();
  const StationArray ecom = energy_from_value(in("ecom"));
  const StationArray etur = energy_from_value(in("etur"));
  const double inertia = widget("moment-inertia").real();
  if (!remote()) {
    accel_ = tess::shaft(ecom.data(), 1, etur.data(), 1, ecorr_, speed_,
                         inertia);
  } else {
    remote_line();
    ValueList reply;
    if (remote_invoke(*shaft_,
                      {energy_to_value(ecom), Value::integer(1),
                       energy_to_value(etur), Value::integer(1),
                       Value::real(ecorr_), Value::real(speed_),
                       Value::real(inertia), Value::real(0)},
                      &reply)) {
      accel_ = reply[7].as_real();
    } else {
      accel_ = tess::shaft(ecom.data(), 1, etur.data(), 1, ecorr_, speed_,
                           inertia);
    }
  }
  out_real("accel", accel_);
  out_real("speed", speed_);
}

// --- System -----------------------------------------------------------------------

void SystemModule::spec(ModuleSpec& spec) {
  spec.radio_buttons("steady-method", {"Newton-Raphson", "Runge-Kutta 4"},
                     "Newton-Raphson");
  spec.radio_buttons(
      "transient-method",
      {"Modified Euler", "Runge-Kutta 4", "Adams", "Gear"},
      "Modified Euler");
  spec.typein_real("fuel-flow", 1.27);
  spec.typein_real("transient-seconds", 1.0);
  spec.typein_real("time-step", 0.02);
}

tess::SteadyMethod SystemModule::steady_method() const {
  return widget("steady-method").text() == "Runge-Kutta 4"
             ? tess::SteadyMethod::kRk4March
             : tess::SteadyMethod::kNewtonRaphson;
}

solvers::IntegratorKind SystemModule::transient_method() const {
  const std::string& m = widget("transient-method").text();
  if (m == "Runge-Kutta 4") return solvers::IntegratorKind::kRungeKutta4;
  if (m == "Adams") return solvers::IntegratorKind::kAdams;
  if (m == "Gear") return solvers::IntegratorKind::kGear;
  return solvers::IntegratorKind::kModifiedEuler;
}

void register_tess_modules() {
  static bool done = [] {
    flow::ModuleFactory& f = flow::ModuleFactory::instance();
    f.register_type("tess-inlet",
                    [] { return std::make_unique<InletModule>(); });
    f.register_type("tess-compressor",
                    [] { return std::make_unique<CompressorModule>(); });
    f.register_type("tess-splitter",
                    [] { return std::make_unique<SplitterModule>(); });
    f.register_type("tess-bleed",
                    [] { return std::make_unique<BleedModule>(); });
    f.register_type("tess-turbine",
                    [] { return std::make_unique<TurbineModule>(); });
    f.register_type("tess-mixer",
                    [] { return std::make_unique<MixerModule>(); });
    f.register_type("tess-duct",
                    [] { return std::make_unique<DuctModule>(); });
    f.register_type("tess-combustor",
                    [] { return std::make_unique<CombustorModule>(); });
    f.register_type("tess-nozzle",
                    [] { return std::make_unique<NozzleModule>(); });
    f.register_type("tess-shaft",
                    [] { return std::make_unique<ShaftModule>(); });
    f.register_type("tess-system",
                    [] { return std::make_unique<SystemModule>(); });
    return true;
  }();
  (void)done;
}

}  // namespace npss::glue
