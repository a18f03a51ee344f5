// The Figure 2 network: a builder assembling the F100 engine model in a
// flow::Network from TESS modules, and the engine driver that balances and
// flies it by iterating network evaluations — the role the TESS system
// module plays inside the prototype executive.
#pragma once

#include <string>
#include <vector>

#include "flow/network.hpp"
#include "npss/modules.hpp"
#include "solvers/newton.hpp"

namespace npss::glue {

/// Instance names of the F100 network's modules.
struct F100NetworkNames {
  std::string system = "system";
  std::string inlet = "inlet";
  std::string fan = "fan";
  std::string splitter = "splitter";
  std::string bleed = "bleed";
  std::string hpc = "hpc";
  std::string burner = "burner";
  std::string hpt = "hpt";
  std::string lpt = "lpt";
  std::string bypass_duct = "bypass-duct";
  std::string mixer = "mixer";
  std::string tailpipe = "tailpipe";
  std::string nozzle = "nozzle";
  std::string lp_shaft = "lp-shaft";
  std::string hp_shaft = "hp-shaft";
};

/// Build the F100 engine network (Figure 2) into `net`; the network must
/// be empty. Registers the TESS module types first.
F100NetworkNames build_f100_network(flow::Network& net,
                                    F100NetworkNames names = {});

struct NetworkSteadyResult {
  std::vector<double> speeds;  ///< {LP, HP} rpm
  double thrust = 0.0;
  double t4 = 0.0;
  int iterations = 0;
};

struct NetworkTransientSample {
  double t = 0.0;
  std::vector<double> speeds;
  double thrust = 0.0;
  double t4 = 0.0;
};

/// Drives an F100 network: the balancing/transient logic the TESS system
/// module performs, expressed as repeated network evaluations.
class NetworkEngineDriver {
 public:
  NetworkEngineDriver(flow::Network& net, F100NetworkNames names = {});

  /// Loosen solver tolerances (needed when adapted modules run remotely:
  /// their values cross the wire as UTS single floats).
  void set_tolerances(double flow_tol, double balance_tol) {
    flow_tolerance_ = flow_tol;
    balance_tolerance_ = balance_tol;
  }

  /// One thermodynamic evaluation at the current shaft speeds and the
  /// given fuel flow: solves the flow-match unknowns by Newton over
  /// repeated network evaluations. Returns spool accelerations.
  std::vector<double> evaluate_flow(double fuel_flow);

  /// Steady-state balance at `fuel_flow`, honoring the system module's
  /// steady-method widget.
  NetworkSteadyResult balance(double fuel_flow);

  /// Transient under a fuel schedule, honoring the transient-method
  /// widget; starts from the network's current shaft speeds.
  std::vector<NetworkTransientSample> run_transient(
      const tess::FuelSchedule& schedule, double t_end, double dt);

  /// Convenience: run the transient configured on the system module's
  /// widgets (fuel-flow step, transient-seconds, time-step).
  std::vector<NetworkTransientSample> run_configured_transient();

  double current_thrust() const;
  double current_t4() const;
  std::vector<double> current_speeds() const;
  void set_speeds(const std::vector<double>& speeds);

  SystemModule& system();
  ShaftModule& lp_shaft();
  ShaftModule& hp_shaft();

 private:
  flow::Network* net_;
  F100NetworkNames names_;
  std::vector<double> warm_start_;
  solvers::JacobianCarry flow_jacobian_;
  double flow_tolerance_ = 1e-9;
  double balance_tolerance_ = 1e-7;
};

}  // namespace npss::glue
