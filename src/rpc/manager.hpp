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

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rpc/io.hpp"
#include "rpc/message.hpp"
#include "uts/spec.hpp"

namespace npss::rpc {

/// Serialize a signature as a parseable declaration ("export name prog(...)").
std::string signature_text(uts::DeclKind kind, const std::string& name,
                           const uts::Signature& sig);

/// Parse the single declaration in `text`.
uts::ProcDecl parse_signature_text(const std::string& text);

struct ManagerConfig {
  /// machine name -> Server address (SchoonerSystem fills this in).
  std::map<std::string, std::string> servers;

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
  /// `uts_check --json` run over the configuration's spec files). An export
  /// that is absent from the manifest, or whose signature differs from the
  /// statically checked one, is rejected at registration — before any call
  /// is issued. Outcomes are recorded as the
  /// rpc.manager.static_check_{pass,fail} counters.
  bool strict = false;
  /// canonical procedure name -> export declaration text
  /// (check::load_manifest_json output).
  std::map<std::string, std::string> static_manifest;
  /// Per-spec-file content hashes from the manifest's "files" section.
  /// When non-empty, a strict-mode exporter whose spec hash (kExport
  /// msg.c) is not listed triggers a *stale manifest* warning — the spec
  /// text changed since uts_check ran — which is distinct from an
  /// incompatible drift: stale-but-compatible exports are admitted with a
  /// warning, incompatible ones are rejected.
  std::vector<std::string> manifest_spec_hashes;

  /// --- Replicated control plane (src/meta/) ---------------------------
  /// Every Manager process is one replica of a group (a lone Manager is
  /// a one-member group): it waits for the kMetaConfig handshake naming
  /// every replica, then enters the leader/follower protocol.
  /// Leader heartbeat period (host ms). Follower election timeouts are
  /// derived from election_base_ms via meta::election_timeout_ms.
  int heartbeat_ms = 15;
  int election_base_ms = 60;
  /// Seed for the deterministic election rank/timeout schedule; the fault
  /// suite's same-seed-same-recovery contract extends to elections.
  std::uint64_t election_seed = 1;
  /// Compact the changelog into a snapshot every N appends (0 = never).
  std::uint64_t snapshot_interval = 32;
};

/// Counters the benches read after a run (exposed through ManagerHandle).
struct ManagerStats {
  std::uint64_t lines_created = 0;
  /// kRegisterLine refusals from the max_lines admission gate.
  std::uint64_t lines_rejected = 0;
  std::uint64_t processes_started = 0;
  std::uint64_t lookups = 0;
  std::uint64_t type_check_failures = 0;
  std::uint64_t moves = 0;
  std::uint64_t lines_shut_down = 0;
  std::uint64_t static_check_failures = 0;
  /// Strict-mode exports admitted although their spec hash (or signature,
  /// compatibly) drifted from the manifest: the manifest is stale.
  std::uint64_t stale_manifest_warnings = 0;
  /// Rebinds/migrations refused because the offered export surface is
  /// incompatible with what the client (or the manifest) compiled against.
  std::uint64_t compat_rejects = 0;
  /// Replicated control plane (counted on the replica they happen on;
  /// SchoonerSystem::manager_stats sums across the group).
  std::uint64_t leader_elections = 0;   ///< times this replica won a term
  std::uint64_t log_appends = 0;        ///< changelog records appended here
  std::uint64_t snapshot_installs = 0;  ///< snapshots captured or received
};

/// The live counters a running replica increments. Atomic field by
/// field: each counter is bumped by its replica's fiber, on whichever
/// thread runs it, while SchoonerSystem::stats() sums across the group
/// from the test/bench thread, so plain uint64 fields would be a data
/// race. Relaxed order is enough — each counter is an independent tally,
/// not a synchronization point.
struct ManagerCounters {
  std::atomic<std::uint64_t> lines_created{0};
  std::atomic<std::uint64_t> lines_rejected{0};
  std::atomic<std::uint64_t> processes_started{0};
  std::atomic<std::uint64_t> lookups{0};
  std::atomic<std::uint64_t> type_check_failures{0};
  std::atomic<std::uint64_t> moves{0};
  std::atomic<std::uint64_t> lines_shut_down{0};
  std::atomic<std::uint64_t> static_check_failures{0};
  std::atomic<std::uint64_t> stale_manifest_warnings{0};
  std::atomic<std::uint64_t> compat_rejects{0};
  std::atomic<std::uint64_t> leader_elections{0};
  std::atomic<std::uint64_t> log_appends{0};
  std::atomic<std::uint64_t> snapshot_installs{0};

  /// The copyable view callers aggregate and compare.
  ManagerStats snapshot() const {
    ManagerStats s;
    s.lines_created = lines_created.load(std::memory_order_relaxed);
    s.lines_rejected = lines_rejected.load(std::memory_order_relaxed);
    s.processes_started = processes_started.load(std::memory_order_relaxed);
    s.lookups = lookups.load(std::memory_order_relaxed);
    s.type_check_failures =
        type_check_failures.load(std::memory_order_relaxed);
    s.moves = moves.load(std::memory_order_relaxed);
    s.lines_shut_down = lines_shut_down.load(std::memory_order_relaxed);
    s.static_check_failures =
        static_check_failures.load(std::memory_order_relaxed);
    s.stale_manifest_warnings =
        stale_manifest_warnings.load(std::memory_order_relaxed);
    s.compat_rejects = compat_rejects.load(std::memory_order_relaxed);
    s.leader_elections = leader_elections.load(std::memory_order_relaxed);
    s.log_appends = log_appends.load(std::memory_order_relaxed);
    s.snapshot_installs = snapshot_installs.load(std::memory_order_relaxed);
    return s;
  }
};

/// The Manager's process body; spawned by SchoonerSystem.
void manager_main(sim::ProcessContext& ctx, const ManagerConfig& config,
                  std::shared_ptr<ManagerCounters> stats);

}  // namespace npss::rpc
