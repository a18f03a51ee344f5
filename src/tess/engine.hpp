// Whole-engine models: the F100-class two-spool mixed-flow turbofan of
// Figure 2 and a single-spool turbojet (the simplest "partial engine" a
// user can bring up, §2.4). Both expose the same EngineModel interface:
//
//   evaluate(speeds, wf, flight)  — solve the internal flow-matching
//       problem (map operating points, turbine PRs, bypass split, nozzle
//       continuity) by Newton-Raphson at frozen spool speeds, returning
//       performance plus spool accelerations from the shaft procedures;
//       every engine solves the match through solve_flow_match(), which
//       warm-starts from the last solution and carries the Jacobian
//       (solvers::JacobianCarry) between calls;
//   balance(...)                  — steady state: find spool speeds with
//       zero acceleration, via Newton-Raphson or an RK4 pseudo-transient
//       march (TESS's two steady-state methods, §3.2);
//   transient(...)                — integrate spool dynamics under a fuel
//       schedule with any of the four TESS transient integrators.
//
// The four adapted components compute through ComponentHooks so the same
// model runs all-local or with any subset remote over Schooner.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "solvers/newton.hpp"
#include "solvers/ode.hpp"
#include "tess/remote_seam.hpp"

namespace npss::tess {

/// Cycle outputs of one thermodynamic evaluation.
struct Performance {
  double thrust = 0.0;        ///< net thrust [N]
  double airflow = 0.0;       ///< inlet mass flow [kg/s]
  double fuel_flow = 0.0;     ///< [kg/s]
  double sfc = 0.0;           ///< thrust-specific fuel consumption [kg/(N s)]
  double t4 = 0.0;            ///< combustor exit total temperature [K]
  double opr = 0.0;           ///< overall pressure ratio
  std::vector<double> speeds;        ///< spool speeds [rpm]
  std::vector<double> states;        ///< full state vector (speeds [+ Pt])
  std::vector<double> accelerations; ///< d(state)/dt
  std::vector<double> surge_margins; ///< per compressor
  std::map<std::string, GasState> stations;
  int flow_iterations = 0;    ///< inner Newton iterations
  int flow_evaluations = 0;   ///< inner residual evaluations (gas-path marches)
};

enum class SteadyMethod : std::uint8_t {
  kNewtonRaphson = 0,  ///< TESS steady option 1
  kRk4March,           ///< TESS steady option 2 (pseudo-transient)
};

struct SteadyResult {
  Performance performance;
  int iterations = 0;
  double residual = 0.0;
};

struct TransientSample {
  double t = 0.0;
  Performance performance;
};

struct TransientResult {
  std::vector<TransientSample> history;
  long rhs_evaluations = 0;
};

/// Fuel schedule: fuel flow [kg/s] as a function of time [s].
using FuelSchedule = std::function<double(double)>;

class EngineModel {
 public:
  virtual ~EngineModel() = default;

  virtual std::string name() const = 0;
  virtual int num_spools() const = 0;
  virtual std::vector<double> design_speeds() const = 0;
  virtual double design_fuel_flow() const = 0;

  /// Dynamic states: the spool speeds, plus any intercomponent-volume
  /// pressures (the F100 with mixer_volume_m3 > 0 appends the plenum
  /// total pressure, which makes the system stiff — the configuration
  /// TESS's Gear option exists for).
  virtual int num_states() const { return num_spools(); }
  virtual std::vector<double> design_states() const {
    return design_speeds();
  }
  /// Per-state scale dividing d(state)/dt in the balance residual.
  virtual std::vector<double> balance_scales() const {
    return std::vector<double>(static_cast<std::size_t>(num_states()),
                               1000.0);
  }

  /// Thermodynamic evaluation at frozen states (speeds [+ pressures]).
  /// Throws util::ConvergenceError if the internal flow match fails.
  virtual Performance evaluate(const std::vector<double>& states, double wf,
                               const FlightCondition& flight) = 0;

  ComponentHooks& hooks() { return hooks_; }
  void set_hooks(ComponentHooks hooks) { hooks_ = std::move(hooks); }

  /// Solver tolerances. The inner (flow-match) and outer (balance)
  /// tolerances default to tight values for all-local computation; when
  /// the adapted components run remotely their values cross the wire as
  /// UTS single-precision floats (the paper's specs, §3.3), so the
  /// attainable residual floor rises to ~1e-6 and callers must loosen
  /// these — the same numerical reality the original faced.
  void set_solver_tolerances(double flow_tol, double balance_tol) {
    flow_tolerance_ = flow_tol;
    balance_tolerance_ = balance_tol;
  }
  double flow_tolerance() const { return flow_tolerance_; }
  double balance_tolerance() const { return balance_tolerance_; }

  /// Steady-state balance at fuel flow `wf` (§3.2's engine "balancing")
  /// by the one method asked for. Throws util::ConvergenceError when it
  /// does not settle; no method falls back to the other.
  SteadyResult balance(double wf, const FlightCondition& flight,
                       SteadyMethod method = SteadyMethod::kNewtonRaphson);

  /// Transient from `initial` speeds under `schedule`, sampled each step.
  TransientResult transient(const std::vector<double>& initial_speeds,
                            const FuelSchedule& schedule,
                            const FlightCondition& flight, double t_end,
                            double dt, solvers::IntegratorKind integrator);

  /// Reset per-run bookkeeping (the setshaft call happens again on the
  /// next balance, as in TESS where it runs once per steady computation).
  virtual void reset_run();

 protected:
  EngineModel() : hooks_(ComponentHooks::local()) {}

  /// Solve the internal flow match F(u) = 0 over `unknowns` normalized
  /// unknowns: Newton-Raphson at the flow tolerance, warm-started from the
  /// previous solution (all ones the first time) and carrying the Jacobian
  /// from one call to the next. The last `residual` call is at the
  /// returned solution, so whatever it leaves behind describes it.
  solvers::NewtonResult solve_flow_match(const solvers::ResidualFn& residual,
                                         std::size_t unknowns,
                                         int max_iterations = 100);

  /// Shaft-correction factors (from setshaft), one per spool; filled
  /// lazily on first evaluation of a run.
  std::vector<double> ecorr_;
  ComponentHooks hooks_;
  double flow_tolerance_ = 1e-9;
  double balance_tolerance_ = 1e-7;

 private:
  std::vector<double> flow_warm_start_;
  solvers::JacobianCarry flow_jacobian_;
};

// --- Concrete engines ---------------------------------------------------------

struct TurbojetConfig {
  std::string compressor_map = "turbojet_compressor.map";
  std::string turbine_map = "turbojet_turbine.map";
  double n_design = 7500.0;       ///< rpm
  double inertia = 110.0;         ///< kg m^2
  double burner_eff = 0.985;
  double burner_dp = 0.05;
  double tailpipe_dp = 0.02;
  double nozzle_area = 0.212;     ///< m^2
  double design_wf = 0.80;        ///< kg/s
};

class TurbojetEngine final : public EngineModel {
 public:
  explicit TurbojetEngine(TurbojetConfig config = {});

  std::string name() const override { return "turbojet"; }
  int num_spools() const override { return 1; }
  std::vector<double> design_speeds() const override {
    return {config_.n_design};
  }
  double design_fuel_flow() const override { return config_.design_wf; }

  Performance evaluate(const std::vector<double>& speeds, double wf,
                       const FlightCondition& flight) override;

  const TurbojetConfig& config() const { return config_; }

 private:
  TurbojetConfig config_;
  const CompressorMap* cmap_;
  const TurbineMap* tmap_;
};

struct F100Config {
  std::string fan_map = "f100_fan.map";
  std::string hpc_map = "f100_hpc.map";
  std::string hpt_map = "f100_hpt.map";
  std::string lpt_map = "f100_lpt.map";
  double n1_design = 10400.0;  ///< LP spool rpm
  double n2_design = 13450.0;  ///< HP spool rpm
  double inertia_lp = 40.0;    ///< kg m^2
  double inertia_hp = 25.0;
  double bleed_fraction = 0.05;
  double burner_eff = 0.985;
  double burner_dp = 0.05;
  double bypass_duct_dp = 0.03;
  double mixer_dp = 0.02;
  double tailpipe_dp = 0.01;
  double nozzle_area = 0.23;   ///< m^2
  double design_wf = 1.27;     ///< kg/s
  /// Start/part-power bleed valve: opens progressively below this
  /// relative HP speed, bleeding up to start_bleed_max of compressor
  /// discharge flow overboard to hold HPC surge margin at low power.
  double start_bleed_below = 0.87;
  double start_bleed_max = 0.12;
  /// Intercomponent mixing-volume size. Zero (default) models the mixer
  /// quasi-steadily; positive values add the plenum pressure as a dynamic
  /// state with dPt/dt = gamma R T (W_in - W_out) / V — a millisecond
  /// time constant that demands an implicit (Gear) integrator at
  /// engine-transient step sizes.
  double mixer_volume_m3 = 0.0;
};

class F100Engine final : public EngineModel {
 public:
  explicit F100Engine(F100Config config = {});

  std::string name() const override { return "f100"; }
  int num_spools() const override { return 2; }
  std::vector<double> design_speeds() const override {
    return {config_.n1_design, config_.n2_design};
  }
  double design_fuel_flow() const override { return config_.design_wf; }

  bool volume_dynamics() const { return config_.mixer_volume_m3 > 0.0; }
  int num_states() const override { return volume_dynamics() ? 3 : 2; }
  std::vector<double> design_states() const override;
  std::vector<double> balance_scales() const override;

  Performance evaluate(const std::vector<double>& states, double wf,
                       const FlightCondition& flight) override;

  const F100Config& config() const { return config_; }

 private:
  F100Config config_;
  const CompressorMap* fan_map_;
  const CompressorMap* hpc_map_;
  const TurbineMap* hpt_map_;
  const TurbineMap* lpt_map_;
};

}  // namespace npss::tess
