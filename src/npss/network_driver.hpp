// The Figure 2 network: a builder assembling the F100 engine model in a
// flow::Network from TESS modules, and the EngineModel that balances and
// flies it by iterating network evaluations.
#pragma once

#include <string>
#include <vector>

#include "flow/network.hpp"
#include "npss/modules.hpp"
#include "tess/engine.hpp"

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

/// The F100 network as an EngineModel: each evaluation writes the flight
/// condition, shaft speeds and fuel flow into the network's widgets and
/// solves the flow match over repeated network evaluations, so the
/// balance, RK4 march and transient are EngineModel's — the role the TESS
/// system module plays inside the prototype executive. Placement lives in
/// the adapted modules' widgets; the EngineModel hooks are not used.
class NetworkEngine final : public tess::EngineModel {
 public:
  /// Lints the network's serialized form first; throws util::GraphError
  /// on hard findings.
  NetworkEngine(flow::Network& net, F100NetworkNames names = {});

  std::string name() const override { return "f100-network"; }
  int num_spools() const override { return 2; }
  std::vector<double> design_speeds() const override;
  double design_fuel_flow() const override;

  tess::Performance evaluate(const std::vector<double>& speeds, double wf,
                             const tess::FlightCondition& flight) override;

  /// Also clears both shaft modules' setshaft correction.
  void reset_run() override;

  /// The solution-method widgets: pass steady_method() to balance() and
  /// transient_method() to transient().
  SystemModule& system() const;

 private:
  ShaftModule& lp_shaft() const;
  ShaftModule& hp_shaft() const;

  flow::Network* net_;
  F100NetworkNames names_;
};

}  // namespace npss::glue
