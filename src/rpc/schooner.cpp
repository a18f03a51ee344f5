#include "rpc/schooner.hpp"

#include <algorithm>

#include "meta/election.hpp"
#include "util/log.hpp"

namespace npss::rpc {

SchoonerSystem::SchoonerSystem(sim::Cluster& cluster,
                               const std::string& manager_machine,
                               SystemOptions options)
    : cluster_(&cluster) {
  for (const std::string& machine : cluster.machine_names()) {
    sim::EndpointPtr ep = cluster.spawn(machine, "schx-server", server_main);
    server_addresses_[machine] = ep->address();
  }

  const int replicas = std::max(options.manager_replicas, 1);
  leader_settle_ms_ =
      meta::slowest_election_timeout_ms(replicas, options.election_base_ms);

  // Replica i's home: replica 0 on manager_machine, the rest on the
  // requested machines (round-robin over the cluster when unspecified).
  std::vector<std::string> homes{manager_machine};
  std::vector<std::string> pool = options.replica_machines.empty()
                                      ? cluster.machine_names()
                                      : options.replica_machines;
  for (int i = 1; i < replicas; ++i) {
    homes.push_back(pool[static_cast<std::size_t>(i - 1) % pool.size()]);
  }
  for (int i = 0; i < replicas; ++i) {
    auto tally = std::make_shared<ManagerTally>();
    tallies_.push_back(tally);
    sim::EndpointPtr ep = cluster.spawn(
        homes[static_cast<std::size_t>(i)], "schx-manager",
        [config = static_cast<const ManagerConfig&>(options),
         servers = server_addresses_, tally](sim::ProcessContext& ctx) {
          manager_main(ctx, config, servers, tally);
        });
    replica_addresses_.push_back(ep->address());
  }
  manager_address_ = replica_addresses_.front();

  // Membership handshake: addresses exist only now, so each replica
  // learns the group (and its own index) in one synchronous exchange.
  // Replica 0 wakes as the term-1 leader once its ack is in; a lone
  // replica is a one-member group.
  sim::EndpointPtr ep = cluster.create_endpoint(manager_machine, "schx-boot");
  MessageIo io(cluster, ep);
  for (int i = 0; i < replicas; ++i) {
    Message cfg;
    cfg.kind = MessageKind::kMetaConfig;
    cfg.n = i;
    for (int j = 0; j < replicas; ++j) {
      cfg.table.emplace_back(std::to_string(j),
                             replica_addresses_[static_cast<std::size_t>(j)]);
    }
    io.call(replica_addresses_[static_cast<std::size_t>(i)], std::move(cfg));
  }
  cluster.retire_endpoint(ep->address());
  running_ = true;
}

ManagerStats SchoonerSystem::stats() const {
  ManagerStats total;
  for (const auto& tally : tallies_) tally->add_to(total);
  return total;
}

SchoonerSystem::~SchoonerSystem() {
  try {
    stop();
  } catch (...) {
  }
}

std::unique_ptr<Session> SchoonerSystem::make_session(
    const std::string& machine) {
  std::vector<std::string> replicas =
      replica_addresses_.size() > 1 ? replica_addresses_
                                    : std::vector<std::string>{};
  return std::make_unique<Session>(*cluster_, machine, manager_address_,
                                   std::move(replicas), leader_settle_ms_);
}

void SchoonerSystem::stop() {
  if (!running_) return;
  running_ = false;
  // Stop every Manager replica through a throwaway endpoint on its own
  // machine. The leader (whichever replica holds the role by now) tears
  // down the remaining lines; followers and crashed replicas just exit.
  for (const std::string& address : replica_addresses_) {
    sim::EndpointPtr ep;
    try {
      std::string machine = address.substr(0, address.find('/'));
      ep = cluster_->create_endpoint(machine, "schx-stopper");
      MessageIo io(*cluster_, ep);
      io.call_within(address, Message{.kind = MessageKind::kManagerStop},
                     /*host_grace_ms=*/500);
    } catch (const util::Error& e) {
      NPSS_LOG_WARN("schooner", "manager stop (", address,
                    ") failed: ", e.what());
    }
    if (ep) cluster_->retire_endpoint(ep->address());
  }
  for (const auto& [machine, address] : server_addresses_) {
    try {
      std::string mgr_machine = machine;
      sim::EndpointPtr ep =
          cluster_->create_endpoint(machine, "schx-stopper");
      MessageIo io(*cluster_, ep);
      Message stop;
      stop.kind = MessageKind::kShutdownProc;
      stop.seq = io.next_seq();
      stop.a = "system stop";
      io.send(address, std::move(stop));
      cluster_->retire_endpoint(ep->address());
    } catch (const util::Error&) {
      // Server already gone.
    }
  }
}

}  // namespace npss::rpc
