// The TESS engine-component modules for the flow executive — the Figure 2
// network. Stations travel between modules as UTS records; each module
// mirrors its TESS counterpart's widgets (the shaft module's
// moment-inertia / spool-speed / spool-speed-op panel is reproduced from
// the paper's Figure 2 description). The four adapted module types carry
// the two §3.3 widgets — radio buttons choosing the remote machine and a
// type-in for the executable pathname — and implement the three code
// additions of §3.3: widget declaration in spec(), sch_contact_schx at the
// top of compute(), and sch_i_quit in destroy().
#pragma once

#include <memory>

#include "flow/module.hpp"
#include "npss/remote_backend.hpp"
#include "npss/runtime.hpp"
#include "tess/engine.hpp"

namespace npss::glue {

/// Port type for engine stations: record of W, Tt, Pt, FAR.
const uts::Type& station_type();
/// Port type for shaft energy terms: array[4] of double (station_value).
const uts::Type& energy_type();

uts::Value station_to_value(const tess::GasState& s);
tess::GasState station_from_value(const uts::Value& v);

// --- Adapted-module machinery ------------------------------------------------

/// Mixin for the four adapted module types: owns the machine/path widgets
/// and the module's AdaptedClient (the glue RemoteBackend also runs).
class AdaptedModule : public flow::Module {
 public:
  /// True when the machine widget selects a remote machine.
  bool remote() const;

  void destroy() override;  ///< sch_i_quit (§3.3)

 protected:
  explicit AdaptedModule(AdaptedComponent component)
      : component_(component) {}

  /// Declare the two placement widgets (§3.3's add-to-spec step).
  void placement_widgets(flow::ModuleSpec& spec,
                         const std::string& default_path);
  /// The module's client, carrying NpssRuntime::call_options and
  /// local_fallback: placed where the machine/path widgets say (the
  /// sch_contact_schx at the top of compute, §3.3) and re-placed whenever
  /// they change (interactive user placement, §4.2); unplaced, computing
  /// locally, while the machine widget reads <local>.
  AdaptedClient& client();

 private:
  AdaptedComponent component_;
  std::unique_ptr<rpc::Session> session_;  ///< outlives client_'s line
  AdaptedClient client_;
  std::string placed_at_;  ///< client_'s "machine:path"; empty = local
};

// --- Engine modules ------------------------------------------------------------

class InletModule final : public flow::Module {
 public:
  std::string type_name() const override { return "tess-inlet"; }
  void spec(flow::ModuleSpec& spec) override;
  void compute() override;
};

class CompressorModule final : public flow::Module {
 public:
  std::string type_name() const override { return "tess-compressor"; }
  void spec(flow::ModuleSpec& spec) override;
  void compute() override;
};

class SplitterModule final : public flow::Module {
 public:
  std::string type_name() const override { return "tess-splitter"; }
  void spec(flow::ModuleSpec& spec) override;
  void compute() override;
};

class BleedModule final : public flow::Module {
 public:
  std::string type_name() const override { return "tess-bleed"; }
  void spec(flow::ModuleSpec& spec) override;
  void compute() override;
};

class TurbineModule final : public flow::Module {
 public:
  std::string type_name() const override { return "tess-turbine"; }
  void spec(flow::ModuleSpec& spec) override;
  void compute() override;
};

class MixerModule final : public flow::Module {
 public:
  std::string type_name() const override { return "tess-mixer"; }
  void spec(flow::ModuleSpec& spec) override;
  void compute() override;
};

/// Adapted: total-pressure-loss duct.
class DuctModule final : public AdaptedModule {
 public:
  DuctModule() : AdaptedModule(AdaptedComponent::kDuct) {}
  std::string type_name() const override { return "tess-duct"; }
  void spec(flow::ModuleSpec& spec) override;
  void compute() override;
};

/// Adapted: combustor with transient stator-angle control schedule
/// widgets (§3.2 mentions transient control schedules for the compressor,
/// combustor and nozzle; modeled here as a fuel-efficiency trim vs time).
class CombustorModule final : public AdaptedModule {
 public:
  CombustorModule() : AdaptedModule(AdaptedComponent::kCombustor) {}
  std::string type_name() const override { return "tess-combustor"; }
  void spec(flow::ModuleSpec& spec) override;
  void compute() override;
};

/// Adapted: convergent nozzle.
class NozzleModule final : public AdaptedModule {
 public:
  NozzleModule() : AdaptedModule(AdaptedComponent::kNozzle) {}
  std::string type_name() const override { return "tess-nozzle"; }
  void spec(flow::ModuleSpec& spec) override;
  void compute() override;
};

/// Adapted: shaft with the paper's widget panel. Holds the spool-speed
/// state; NetworkEngine sets it before each network evaluation.
class ShaftModule final : public AdaptedModule {
 public:
  ShaftModule() : AdaptedModule(AdaptedComponent::kShaft) {}
  std::string type_name() const override { return "tess-shaft"; }
  void spec(flow::ModuleSpec& spec) override;
  void compute() override;

  double speed() const { return speed_; }
  void set_speed(double rpm) { speed_ = rpm; }
  double acceleration() const { return accel_; }
  /// Run setshaft (once per steady computation, §3.3).
  void run_setshaft();
  void clear_setshaft() { have_ecorr_ = false; }

 private:
  double speed_ = 0.0;
  double accel_ = 0.0;
  double ecorr_ = 1.0;
  bool have_ecorr_ = false;
};

/// The system module: overall control of the simulation run with the
/// §3.2 solution-method widgets. Carries no ports; NetworkEngine's
/// callers pass its methods to balance() and transient().
class SystemModule final : public flow::Module {
 public:
  std::string type_name() const override { return "tess-system"; }
  void spec(flow::ModuleSpec& spec) override;
  void compute() override {}

  tess::SteadyMethod steady_method() const;
  solvers::IntegratorKind transient_method() const;
};

/// Register every TESS module type with the flow::ModuleFactory.
void register_tess_modules();

}  // namespace npss::glue
