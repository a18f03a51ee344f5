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

/// Boot-time knobs: the Manager's policy (ManagerConfig) plus the layout
/// of its replica group.
struct SystemOptions : ManagerConfig {
  /// Number of Manager replicas. 1 (the default) is a one-member group;
  /// >= 2 survive crashes: replica 0 starts on `manager_machine` as the
  /// term-1 leader, the rest on `replica_machines` (round-robin over the
  /// cluster when empty).
  int manager_replicas = 1;
  std::vector<std::string> replica_machines;
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

  /// The Manager's event counts. With a replica group this is the sum
  /// over all replicas (each records into its own ManagerTally); read it
  /// only after the group quiesces (e.g. post-stop) for an exact figure.
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
  /// One tally per replica (index-aligned with replica_addresses_).
  std::vector<std::shared_ptr<ManagerTally>> tallies_;
  bool running_ = false;
};

}  // namespace npss::rpc
