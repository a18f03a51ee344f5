// SchoonerSystem: boots the runtime onto a virtual cluster — one Server
// per machine, then the persistent Manager — and tears it down again. This
// is the umbrella header for the Schooner core; most applications need
// only this plus host.hpp (to define procedure images) and client.hpp.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "rpc/client.hpp"
#include "rpc/host.hpp"
#include "rpc/manager.hpp"
#include "rpc/message.hpp"
#include "rpc/server.hpp"
#include "sim/cluster.hpp"

namespace npss::rpc {

/// Boot-time knobs beyond the machine layout. `strict_static_check` turns
/// on the Manager's manifest cross-check: every export registered at
/// runtime must match the `uts_check --json` manifest in `static_manifest`
/// (see check::load_manifest_json), or the exporting process is rejected
/// at startup — before any call is issued.
struct SystemOptions {
  bool strict_static_check = false;
  std::map<std::string, std::string> static_manifest;
  /// Per-spec-file sha256 hashes from the manifest (check::Manifest
  /// spec_hashes). Lets the Manager tell a *stale* manifest (spec text
  /// changed after uts_check ran) apart from an incompatible export.
  std::vector<std::string> manifest_spec_hashes;

  /// --- Replicated control plane (src/meta/) ---------------------------
  /// Number of Manager replicas. 1 (the default) is a one-member group;
  /// >= 2 survive crashes: replica 0 starts on `manager_machine` as the
  /// term-1 leader, the rest on `replica_machines` (round-robin over the
  /// cluster when empty).
  int manager_replicas = 1;
  std::vector<std::string> replica_machines;
  /// Leader heartbeat period and follower election-timeout base, in host
  /// milliseconds (see meta::election_timeout_ms for the stagger rule).
  int heartbeat_ms = 15;
  int election_base_ms = 60;
  /// Seed for the deterministic election schedule: same seed, same crash,
  /// same winner — the fault suite's reproducibility contract.
  std::uint64_t election_seed = 1;
  /// Compact the changelog into a snapshot every N appends (0 = never).
  std::uint64_t snapshot_interval = 32;

  /// --- Multi-tenant session layer (DESIGN.md §15) ---------------------
  /// Most concurrent lines the Manager admits; registration beyond it is
  /// refused with kLineRejected and Session::open_line backs off.
  /// 0 = unlimited.
  int max_lines = 0;
  /// Per-line outstanding-call quota granted at admission and enforced by
  /// the line's LineBudget. 0 = unlimited.
  int line_call_quota = 0;
};

class SchoonerSystem {
 public:
  /// Start one Server on every machine currently in `cluster`, then the
  /// Manager on `manager_machine`.
  SchoonerSystem(sim::Cluster& cluster, const std::string& manager_machine,
                 SystemOptions options = {});

  ~SchoonerSystem();
  SchoonerSystem(const SchoonerSystem&) = delete;
  SchoonerSystem& operator=(const SchoonerSystem&) = delete;

  sim::Cluster& cluster() { return *cluster_; }
  const std::string& manager_address() const { return manager_address_; }

  /// Addresses of every Manager replica, indexed by replica id. Size 1
  /// for a one-member group. Clients use the full list to rediscover the
  /// leader after a failover.
  const std::vector<std::string>& manager_replica_addresses() const {
    return replica_addresses_;
  }

  /// Open a Session on `machine`: one Manager connection from which many
  /// lightweight Line handles are created (session.open_line(...)). The
  /// Session must not outlive this system.
  std::unique_ptr<Session> make_session(const std::string& machine);

  /// Runtime counters accumulated by the Manager. With a replica group
  /// this is the sum over all replicas (each keeps its own tallies, so no
  /// replica thread ever writes another's counters); read it only after
  /// the group quiesces (e.g. post-stop) for an exact figure.
  ManagerStats stats() const;

  /// Stop the Manager (and through it every remaining line) and the
  /// Servers. Idempotent; also run by the destructor.
  void stop();

  bool running() const { return running_; }

 private:
  sim::Cluster* cluster_;
  std::string manager_address_;
  std::vector<std::string> replica_addresses_;
  /// The group's slowest election timeout, handed to every Session.
  int leader_settle_ms_ = 0;
  std::map<std::string, std::string> server_addresses_;
  /// One live counter block per replica (index-aligned with
  /// replica_addresses_); stats() sums snapshots across the group.
  std::vector<std::shared_ptr<ManagerCounters>> stats_;
  bool running_ = false;
};

}  // namespace npss::rpc
