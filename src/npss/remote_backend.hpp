// RemoteBackend — binds an EngineModel's ComponentHooks to Schooner remote
// procedures, reproducing §3.3's adapted modules at the engine-model level
// (the path the Table 1 / Table 2 experiments use).
//
// Placement is per *component instance*: the F100 has two duct and two
// shaft instances, and in the paper each AVS module instance registers
// with the Manager and owns its remote process — same-named procedures in
// different lines, the very scenario that forced the §4.2 lines extension.
// Each placed instance therefore gets its own AdaptedClient — the same
// glue the Figure 2 flow modules use — whose line is opened from the
// backend's one Session.
// Unplaced instances keep computing locally, so any subset of the adapted
// components can be remote, as in the paper's module-by-module tests.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rpc/schooner.hpp"
#include "tess/engine.hpp"

namespace npss::glue {

enum class AdaptedComponent : std::uint8_t {
  kShaft = 0,
  kDuct,
  kCombustor,
  kNozzle,
};

std::string_view adapted_component_name(AdaptedComponent c);

struct Placement {
  std::string machine;
  std::string path;  ///< empty = conventional install path
};

/// One adapted component instance's client — the glue both the engine
/// model's hooks (RemoteBackend) and the Figure 2 flow modules
/// (AdaptedModule) call through. A placed client owns a line named after
/// the instance, contacted with sch_contact_schx, and the component's
/// import stubs; its five ComponentHooks-shaped calls pack the
/// procedure's arguments and read its result slot. When a remote call
/// fails terminally (per the CallOptions) and local fallback is on, the
/// call degrades to tess::ComponentHooks::local() for that evaluation,
/// logs it and counts npss.remote.degraded_calls — the run completes
/// instead of aborting the solve; with fallback off it raises the
/// terminal status as its Error subclass. An unplaced (default) client
/// computes locally.
class AdaptedClient {
 public:
  AdaptedClient() = default;
  /// Open a line named `name` from `session` (which must outlive it),
  /// contact the component's process per `placement`, import its stubs.
  AdaptedClient(rpc::Session& session, AdaptedComponent component,
                const std::string& name, const Placement& placement);

  bool placed() const { return line_ != nullptr; }
  /// The placed client's line (its name is the degradation label).
  rpc::Line& line() const { return *line_; }

  tess::StationArray duct(const tess::StationArray& in, double dp);
  tess::StationArray combustor(const tess::StationArray& in, double wf,
                               double eff, double dp);
  tess::StationArray nozzle(const tess::StationArray& in, double area,
                            double pamb);
  double setshaft(const tess::StationArray& ecom, int incom,
                  const tess::StationArray& etur, int intur);
  double shaft(const tess::StationArray& ecom, int incom,
               const tess::StationArray& etur, int intur, double ecorr,
               double xspool, double xmyi);

  /// Issue the primary procedure (duct/combustor/nozzle/shaft) with the
  /// client's CallOptions and return it in flight; no fallback.
  rpc::PendingCall call_async(uts::ValueList args);

  void set_call_options(const rpc::CallOptions& opts) { options_ = opts; }
  void set_local_fallback(bool on) { local_fallback_ = on; }

  /// Remote calls, stale-binding recoveries, degraded evaluations and
  /// failovers on this placement.
  int calls() const;
  int stale_retries() const;
  int degraded_calls() const { return degraded_calls_; }
  int failovers() const { return failovers_; }

  /// sch_i_quit (no-op when unplaced); the Line destructor also quits.
  void quit();

 private:
  /// Run `proc` remotely; false when it failed and the caller computes
  /// locally (after recording the degradation).
  bool call(rpc::RemoteProc& proc, uts::ValueList args, uts::ValueList* out);

  std::unique_ptr<rpc::Line> line_;
  std::unique_ptr<rpc::RemoteProc> primary_;    ///< duct/combustor/nozzle/shaft
  std::unique_ptr<rpc::RemoteProc> secondary_;  ///< setshaft
  rpc::CallOptions options_ = rpc::CallOptions::legacy();
  bool local_fallback_ = true;
  int degraded_calls_ = 0;
  int failovers_ = 0;
};

class RemoteBackend {
 public:
  RemoteBackend(rpc::SchoonerSystem& system, std::string avs_machine);
  ~RemoteBackend();

  /// Place instance `instance` of `component` remotely: opens a line,
  /// issues sch_contact_schx, and builds the import stubs.
  void place(AdaptedComponent component, int instance,
             const Placement& placement);

  /// Hooks for EngineModel::set_hooks(): each placed instance's
  /// AdaptedClient (degrading to local physics as it describes), local
  /// compute for the rest.
  tess::ComponentHooks hooks();

  /// Deadline/retry/failover policy for every remote call, on current and
  /// future placements (default: rpc::CallOptions::legacy()).
  void set_call_options(const rpc::CallOptions& opts);
  const rpc::CallOptions& call_options() const { return options_; }

  /// Degrade to the local compute hook when a remote call fails (default
  /// on), on current and future placements. When off, hook failures raise
  /// the terminal status as its Error subclass.
  void set_local_fallback(bool on);

  /// "component[instance]" labels that have degraded to local compute at
  /// least once, and how many hook evaluations fell back in total.
  std::vector<std::string> degraded_instances() const;
  int degraded_calls() const { return sum(&AdaptedClient::degraded_calls); }
  /// Calls recovered by migration-based failover across all stubs.
  int failovers() const { return sum(&AdaptedClient::failovers); }

  /// Async call seam: issue instance's primary procedure with the
  /// backend's CallOptions and return it in flight, so calls on
  /// different placed instances (each owns its line) overlap on the
  /// wire. Args follow the import signature of the placed component's
  /// primary procedure. Throws util::LookupError when the instance is not
  /// placed remotely.
  rpc::PendingCall call_async(AdaptedComponent component, int instance,
                              uts::ValueList args);

  /// sch_move: migrate a placed instance's process to another machine
  /// (§4.2). Moving any procedure of the process moves its siblings too
  /// (setshaft travels with shaft). Returns the new process address.
  std::string move(AdaptedComponent component, int instance,
                   const std::string& machine, const std::string& path = "",
                   bool transfer_state = false);

  /// Remote calls per "component[instance]" so far.
  std::map<std::string, int> call_counts() const;
  int total_calls() const { return sum(&AdaptedClient::calls); }

  /// Stale-binding recoveries across all stubs (each moved stub pays one
  /// on its first post-move call).
  int total_stale_retries() const {
    return sum(&AdaptedClient::stale_retries);
  }

  /// Virtual time (network + marshal) the program has waited on its hook
  /// calls since the last placement or reset_clocks(). The engine is one
  /// sequential program: each hook call starts its line at program time
  /// and program time moves to where the call ended, so lock-step calls
  /// add up. call_async calls are outside this clock.
  util::SimTime elapsed_virtual_us() const { return program_us_ - base_us_; }
  /// Re-base the program clock: program time becomes the latest line
  /// clock, and elapsed_virtual_us() reads 0.
  void reset_clocks();

  /// sch_i_quit on every line (also run by the destructor).
  void quit();

 private:
  /// The placed instance's client, or nullptr when it computes locally.
  AdaptedClient* find(AdaptedComponent c, int instance);
  /// find(), throwing util::LookupError naming `what` when unplaced.
  AdaptedClient& require(AdaptedComponent c, int instance, const char* what);
  /// Run one hook call `call(client)` on the instance's client — placed,
  /// or a local one — on program time.
  template <typename Call>
  auto on_program_time(AdaptedComponent c, int instance, Call call);
  /// `count` summed over the placed instances' clients.
  int sum(int (AdaptedClient::*count)() const) const;

  rpc::SchoonerSystem* system_;
  std::string avs_machine_;
  /// Opened on first placement; outlives every instance's line.
  std::unique_ptr<rpc::Session> session_;
  std::map<std::pair<AdaptedComponent, int>, AdaptedClient> instances_;
  rpc::CallOptions options_ = rpc::CallOptions::legacy();
  bool local_fallback_ = true;
  /// Unplaced instances call through this client, which computes locally.
  AdaptedClient local_;
  /// The program's virtual clock, and its value at the last re-base.
  util::SimTime program_us_ = 0;
  util::SimTime base_us_ = 0;
};

}  // namespace npss::glue
