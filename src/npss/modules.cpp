#include "npss/modules.hpp"

#include <cmath>

#include "flow/network.hpp"
#include "npss/procedures.hpp"
#include "tess/components.hpp"
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

AdaptedClient& AdaptedModule::client() {
  NpssRuntime& rt = npss_runtime();
  const std::string& machine = widget("machine").text();
  const std::string& path = widget("path").text();
  const std::string key = remote() ? machine + ":" + path : "";
  if (key != placed_at_) {
    destroy();  // the old line goes before the session it was opened from
    if (!key.empty()) {
      if (!rt.configured()) {
        throw util::ModelError("module '" + instance_name() +
                               "': NPSS runtime not configured for remote "
                               "computation");
      }
      session_ = rt.schooner->make_session(rt.avs_machine);
      client_ = AdaptedClient(*session_, component_, instance_name(),
                              Placement{machine, path});
      placed_at_ = key;
    }
  }
  client_.set_call_options(rt.call_options);
  client_.set_local_fallback(rt.local_fallback);
  return client_;
}

void AdaptedModule::destroy() {
  client_.quit();  // sch_i_quit: the Manager tears down only this line
  client_ = AdaptedClient();
  session_.reset();
  placed_at_.clear();
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
  out("ecom", station_value({r.power, in_state.W, dh, r.point.eff}));
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
  out("etur", station_value({r.power, in_state.W, dh, r.point.eff}));
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

void DuctModule::compute() {
  const GasState in_state = station_from_value(in("in"));
  out("out", station_to_value(tess::from_array(client().duct(
                 tess::to_array(in_state), widget("dp").real()))));
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

void CombustorModule::compute() {
  const GasState in_state = station_from_value(in("in"));
  const double eff = widget("eff").real() * widget("trim").real();
  out("out", station_to_value(tess::from_array(client().combustor(
                 tess::to_array(in_state), widget("wfuel").real(), eff,
                 widget("dp").real()))));
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

void NozzleModule::compute() {
  const GasState in_state = station_from_value(in("in"));
  // [w_required, thrust, v_exit, choked]
  const StationArray r = client().nozzle(
      tess::to_array(in_state), widget("area").real(), widget("pamb").real());
  out_real("w-error", (in_state.W - r[0]) / std::max(in_state.W, 1e-6));
  out_real("thrust", r[1]);
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

void ShaftModule::run_setshaft() {
  ecorr_ = client().setshaft(station_from(in("ecom")), 1,
                             station_from(in("etur")), 1);
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
  const StationArray ecom = station_from(in("ecom"));
  const StationArray etur = station_from(in("etur"));
  accel_ = client().shaft(ecom, 1, etur, 1, ecorr_, speed_,
                          widget("moment-inertia").real());
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
