// RemoteBackend — binds an EngineModel's ComponentHooks to Schooner remote
// procedures, reproducing §3.3's adapted modules at the engine-model level
// (the path the Table 1 / Table 2 experiments use).
//
// Placement is per *component instance*: the F100 has two duct and two
// shaft instances, and in the paper each AVS module instance registers
// with the Manager and owns its remote process — same-named procedures in
// different lines, the very scenario that forced the §4.2 lines extension.
// Each placed instance therefore gets its own rpc::Line, opened from the
// backend's one Session.
// Unplaced instances keep computing locally, so any subset of the adapted
// components can be remote, as in the paper's module-by-module tests.
#pragma once

#include <map>
#include <memory>
#include <set>
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

class RemoteBackend {
 public:
  RemoteBackend(rpc::SchoonerSystem& system, std::string avs_machine);
  ~RemoteBackend();

  /// Place instance `instance` of `component` remotely: opens a line,
  /// issues sch_contact_schx, and builds the import stubs.
  void place(AdaptedComponent component, int instance,
             const Placement& placement);

  /// Hooks for EngineModel::set_hooks(): remote where placed, local else.
  /// When a placed instance's remote call fails terminally (per the
  /// configured CallOptions) and local fallback is on, the hook degrades
  /// to the local physics for that evaluation and the degradation is
  /// recorded (npss.remote.degraded_calls counter + degraded_instances())
  /// — the run completes instead of aborting the solve.
  tess::ComponentHooks hooks();

  /// Deadline/retry/failover policy for every remote call, on current and
  /// future placements (default: rpc::CallOptions::legacy()).
  void set_call_options(const rpc::CallOptions& opts) { options_ = opts; }
  const rpc::CallOptions& call_options() const { return options_; }

  /// Degrade to the local compute hook when a remote call fails (default
  /// on). When off, hook failures raise the terminal status as its Error
  /// subclass, as the pre-fault-tolerance glue did.
  void set_local_fallback(bool on) { local_fallback_ = on; }

  /// "component[instance]" labels that have degraded to local compute at
  /// least once, and how many hook evaluations fell back in total.
  std::vector<std::string> degraded_instances() const;
  int degraded_calls() const { return degraded_calls_; }
  /// Calls recovered by migration-based failover across all stubs.
  int failovers() const { return failovers_; }

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
  int total_calls() const;

  /// Stale-binding recoveries across all stubs (each moved stub pays one
  /// on its first post-move call).
  int total_stale_retries() const;

  /// Worst per-line elapsed virtual time (network + marshal; the engine's
  /// calls are sequential so lines see disjoint slices of the same wall
  /// clock — the maximum is the end-to-end cost).
  util::SimTime elapsed_virtual_us() const;
  void reset_clocks();

  /// sch_i_quit on every line (also run by the destructor).
  void quit();

 private:
  struct Instance {
    std::unique_ptr<rpc::Line> line;
    std::unique_ptr<rpc::RemoteProc> primary;   ///< duct/combustor/nozzle/shaft
    std::unique_ptr<rpc::RemoteProc> secondary; ///< setshaft
    util::SimTime clock_base = 0;
  };

  Instance* find(AdaptedComponent c, int instance);

  /// The one fault-tolerant hook path: runs the stub with the backend's
  /// CallOptions; on success fills `out` and returns true. On terminal
  /// failure records the degradation and returns false (hook falls back
  /// to local physics) — or raises when local fallback is off.
  bool remote_call(rpc::RemoteProc& proc, const std::string& label,
                   uts::ValueList args, uts::ValueList* out);

  rpc::SchoonerSystem* system_;
  std::string avs_machine_;
  /// Opened on first placement; outlives every instance's line.
  std::unique_ptr<rpc::Session> session_;
  std::map<std::pair<AdaptedComponent, int>, Instance> instances_;
  rpc::CallOptions options_ = rpc::CallOptions::legacy();
  bool local_fallback_ = true;
  std::set<std::string> degraded_;
  int degraded_calls_ = 0;
  int failovers_ = 0;
};

}  // namespace npss::glue
