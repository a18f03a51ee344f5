// The Schooner Manager.
//
// One Manager serves a whole (multi-line) Schooner program: it starts and
// stops remote processes through the per-machine Servers, keeps the
// exported-procedure mapping tables, and performs runtime type checking of
// imports against exports (§3.1). This is the *extended* Manager of §4.2:
//
//  * it is persistent — explicitly started and stopped, surviving any
//    number of simulation runs;
//  * it manages multiple lines, each a sequential thread of control with
//    its own procedure name database, so duplicate procedure names may
//    exist across lines (the F100 network needs this, Figure 2);
//  * shutdown is line-scoped: a quit (or error) tears down only the
//    procedures of the affected line;
//  * Fortran name-case synonyms (§4.1): each binding is reachable through
//    its exact, lower-, and upper-case names;
//  * procedures can be moved between machines during execution, with an
//    optional state transfer, and clients recover through the
//    stale-cache/lookup path;
//  * shared procedures live in a separate database consulted after the
//    caller's line.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "rpc/io.hpp"
#include "rpc/message.hpp"
#include "uts/spec.hpp"

namespace npss::rpc {

/// Serialize a signature as a parseable declaration ("export name prog(...)").
std::string signature_text(uts::DeclKind kind, const std::string& name,
                           const uts::Signature& sig);

/// Parse the single declaration in `text`.
uts::ProcDecl parse_signature_text(const std::string& text);

/// The Manager's policy, declared once. SchoonerSystem hands every replica
/// the same copy (SystemOptions extends it with the group's layout).
struct ManagerConfig {
  /// --- Admission control (multi-tenant session layer, DESIGN.md §15) --
  /// Most lines the Manager will carry at once; a kRegisterLine beyond it
  /// is answered with a kLineRejected error reply and the client backs
  /// off (Session::open_line). 0 = unlimited (the historical behavior).
  int max_lines = 0;
  /// Per-line outstanding-call quota granted at admission (kLineAck.n).
  /// Enforced client-side by the line's LineBudget — the Manager states
  /// the policy once instead of refereeing every call. 0 = unlimited.
  int line_call_quota = 0;

  /// Strict static-check mode: when set, every export a process registers
  /// is cross-checked against `static_manifest` (the "exports" table of a
  /// `uts_check --json` run over the configuration's spec files, see
  /// check::load_manifest_json). An export that is absent from the
  /// manifest, or whose signature differs incompatibly from the
  /// statically checked one, is rejected at registration — before any
  /// call is issued.
  bool strict_static_check = false;
  /// canonical procedure name -> export declaration text.
  std::map<std::string, std::string> static_manifest;
  /// Per-spec-file content hashes from the manifest's "files" section.
  /// When non-empty, a strict-mode exporter whose spec hash (kExport
  /// msg.c) is not listed triggers a *stale manifest* warning — the spec
  /// text changed since uts_check ran — which is distinct from an
  /// incompatible drift: stale-but-compatible exports are admitted with a
  /// warning, incompatible ones are rejected.
  std::vector<std::string> manifest_spec_hashes;

  /// --- Replicated control plane (src/meta/) ---------------------------
  /// Leader heartbeat period and follower election-timeout base, in host
  /// milliseconds (see meta::election_timeout_ms for the stagger rule).
  int heartbeat_ms = 15;
  int election_base_ms = 60;
  /// Seed for the deterministic election schedule: same seed, same crash,
  /// same winner — the fault suite's reproducibility contract.
  std::uint64_t election_seed = 1;
  /// Compact the changelog into a snapshot every N appends (0 = never).
  std::uint64_t snapshot_interval = 32;
};

/// The Manager's event counts, summed over the group by
/// SchoonerSystem::stats(). Every field is one row of manager_events().
struct ManagerStats {
  std::uint64_t lines_created = 0;
  /// kRegisterLine refusals from the max_lines admission gate.
  std::uint64_t lines_rejected = 0;
  std::uint64_t processes_started = 0;
  std::uint64_t lookups = 0;
  std::uint64_t type_check_failures = 0;
  std::uint64_t moves = 0;
  std::uint64_t lines_shut_down = 0;
  /// Strict-mode exports whose signature matched the manifest exactly.
  std::uint64_t static_check_passes = 0;
  std::uint64_t static_check_failures = 0;
  /// Strict-mode exports admitted although their spec hash (or signature,
  /// compatibly) drifted from the manifest: the manifest is stale.
  std::uint64_t stale_manifest_warnings = 0;
  /// Rebinds/migrations refused because the offered export surface is
  /// incompatible with what the client (or the manifest) compiled against.
  std::uint64_t compat_rejects = 0;
  /// Replicated control plane, counted on the replica they happen on.
  std::uint64_t leader_elections = 0;   ///< times a replica won a term
  std::uint64_t log_appends = 0;        ///< changelog records appended
  std::uint64_t snapshot_installs = 0;  ///< snapshots captured or received
};

/// Every event a Manager replica counts, in manager_events() row order.
enum class ManagerEvent : std::uint8_t {
  kLinesCreated,
  kLinesRejected,
  kProcessesStarted,
  kLookups,
  kTypeCheckFailures,
  kMoves,
  kLinesShutDown,
  kStaticCheckPasses,
  kStaticCheckFailures,
  kStaleManifestWarnings,
  kCompatRejects,
  kLeaderElections,
  kLogAppends,
  kSnapshotInstalls,
};
inline constexpr std::size_t kManagerEventCount =
    static_cast<std::size_t>(ManagerEvent::kSnapshotInstalls) + 1;

/// One event's ManagerStats field and its registry counter.
struct ManagerEventRow {
  std::uint64_t ManagerStats::*field;
  obs::Counter& counter;
};

/// The table of Manager events (src/rpc/metrics.cpp), indexed by
/// ManagerEvent; its registry handles are resolved on first use.
const std::array<ManagerEventRow, kManagerEventCount>& manager_events();

/// One replica's live count of each event. The replica's fiber records
/// while SchoonerSystem::stats() reads from the caller's thread, so each
/// count is a relaxed atomic: an independent tally, not a sync point.
class ManagerTally {
 public:
  /// Count `n` of `event` here and, when obs is on, in its registry
  /// counter.
  void record(ManagerEvent event, std::uint64_t n = 1);
  /// Add this replica's counts to `stats`, one table row at a time.
  void add_to(ManagerStats& stats) const;

 private:
  std::array<std::atomic<std::uint64_t>, kManagerEventCount> counts_{};
};

/// The Manager's process body; spawned by SchoonerSystem. `servers` maps
/// each machine name to its Server's address.
void manager_main(sim::ProcessContext& ctx, const ManagerConfig& config,
                  const std::map<std::string, std::string>& servers,
                  std::shared_ptr<ManagerTally> tally);

}  // namespace npss::rpc
