// The virtual heterogeneous cluster.
//
// A Cluster owns named Machines (each with an arch::ArchDescriptor and a
// site), a routing table of LinkProfiles keyed by site pair, a registry of
// installed "program images" (the simulated executables the user's pathname
// widget points at, §3.3), and the live processes. A process is a fiber
// (fiber.hpp) bound to an Endpoint: a mailbox plus a virtual clock on some
// machine. Message delivery stamps envelopes with
//   sender_clock + link.transfer_time(bytes)
// and receivers join their clock with the stamp on receipt, so elapsed
// virtual time along any sequential call chain is deterministic regardless
// of host scheduling.
#pragma once

#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/arch.hpp"
#include "sim/fiber.hpp"
#include "sim/network.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/mutex.hpp"
#include "util/status.hpp"
#include "util/string_pair.hpp"
#include "util/thread_annotations.hpp"

namespace npss::sim {

struct Machine {
  std::string name;
  const arch::ArchDescriptor* arch = nullptr;
  std::string site;
};

struct Envelope {
  /// The sender's address, shared with its Endpoint: a frame carries a
  /// reference to it rather than a copy.
  std::shared_ptr<const std::string> from;
  util::SimTime stamp = 0;
  util::Bytes payload;
};

class Cluster;

/// A process's communication end: mailbox + virtual clock on a machine.
/// The owner may be one of the cluster's process fibers or any other
/// thread (a client, a test); a fiber parks on an empty mailbox, any
/// other thread drives the cluster's fibers while the baton is free and
/// otherwise blocks (fiber.hpp).
class Endpoint {
 public:
  Endpoint(Scheduler& sched, const Machine& machine, std::string address)
      : sched_(&sched),
        machine_(&machine),
        address_(std::make_shared<const std::string>(std::move(address))) {}

  const std::string& address() const { return *address_; }
  const Machine& machine() const { return *machine_; }
  const arch::ArchDescriptor& arch() const { return *machine_->arch; }
  util::VirtualClock& clock() { return clock_; }

  /// Blocking receive; joins the clock with the envelope stamp.
  /// Returns nullopt once the endpoint is closed and drained.
  std::optional<Envelope> receive() { return wait(Scheduler::kNever); }

  std::optional<Envelope> try_receive();

  /// Receive bounded by *host* time — the detection mechanism behind call
  /// deadlines: a dropped frame means the matching reply will never
  /// arrive, and the host-side wait is how the caller notices. Returns
  /// nullopt on timeout or once closed and drained (check closed()).
  std::optional<Envelope> receive_for(std::chrono::milliseconds timeout) {
    return wait(Scheduler::Clock::now() + timeout);
  }

  void close();
  bool closed() const;

 private:
  friend class Cluster;
  /// Queue an envelope; false (dropping it) once closed.
  bool push(Envelope env);
  std::optional<Envelope> wait(Scheduler::Clock::time_point deadline);
  std::optional<Envelope> wait_on_fiber(Fiber* self,
                                        Scheduler::Clock::time_point deadline);
  std::optional<Envelope> wait_on_thread(Scheduler::Clock::time_point deadline);
  /// Pop the front envelope into the clock, or nullopt when empty.
  std::optional<Envelope> take() SCHOONER_REQUIRES(mu_);
  /// After waking a fiber from outside the scheduler: run it here.
  void drive_if_woken(bool woke);

  Scheduler* sched_;
  const Machine* machine_;
  std::shared_ptr<const std::string> address_;
  util::VirtualClock clock_;
  /// Leaf except for sim.Scheduler, taken to wake a parked owner.
  mutable util::Mutex mu_{"sim.Mailbox"};
  util::CondVar cv_;
  std::deque<Envelope> items_ SCHOONER_GUARDED_BY(mu_);
  bool closed_ SCHOONER_GUARDED_BY(mu_) = false;
  /// The owner fiber while it is parked here.
  Fiber* waiter_ SCHOONER_GUARDED_BY(mu_) = nullptr;
  /// Non-fiber threads blocked in cv_.
  int thread_waiters_ SCHOONER_GUARDED_BY(mu_) = 0;
};

using EndpointPtr = std::shared_ptr<Endpoint>;

/// Execution context handed to a spawned program image.
class ProcessContext {
 public:
  ProcessContext(Cluster& cluster, EndpointPtr self,
                 std::vector<std::string> args)
      : cluster_(&cluster), self_(std::move(self)), args_(std::move(args)) {}

  Cluster& cluster() { return *cluster_; }
  Endpoint& self() { return *self_; }
  EndpointPtr self_ptr() { return self_; }
  const std::vector<std::string>& args() const { return args_; }

  /// Account `microseconds` of work at a reference machine's speed; the
  /// clock advances scaled by this machine's relative CPU speed.
  void compute(double microseconds);

  void send(const std::string& to, util::Bytes payload);

 private:
  Cluster* cluster_;
  EndpointPtr self_;
  std::vector<std::string> args_;
};

using ProgramImage = std::function<void(ProcessContext&)>;

class Cluster {
 public:
  Cluster();
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- Topology ---------------------------------------------------------
  Machine& add_machine(const std::string& name, const std::string& arch_key,
                       const std::string& site);
  const Machine& machine(const std::string& name) const;
  bool has_machine(const std::string& name) const;
  std::vector<std::string> machine_names() const;

  /// Route between two sites (both directions).
  void set_site_link(const std::string& site_a, const std::string& site_b,
                     const LinkProfile& profile);

  /// Take a site pair's link down (sends fail with NoRouteError) or bring
  /// it back up — WAN outages were a fact of life on the 1993 Internet.
  void set_link_up(const std::string& site_a, const std::string& site_b,
                   bool up);
  /// Link used between distinct machines of the same site.
  void set_intra_site_link(const LinkProfile& profile);
  /// Link used between processes on the same machine.
  void set_intra_machine_link(const LinkProfile& profile);

  /// The link profile a frame between these machines would ride. By
  /// value: the routing table may be reconfigured (set_link,
  /// set_link_up) while senders are in flight, so a reference into it
  /// would be read off-lock. send() reads the route under its own lock
  /// instead and copies nothing.
  LinkProfile route(const Machine& from, const Machine& to) const;

  // --- Program images (simulated executables) ----------------------------
  void install_image(const std::string& machine, const std::string& path,
                     ProgramImage image);
  bool has_image(const std::string& machine, const std::string& path) const;

  // --- Processes ----------------------------------------------------------
  /// A mailbox for a caller-driven participant (no fiber is spawned); the
  /// caller runs its own logic and receives on the returned endpoint.
  EndpointPtr create_endpoint(const std::string& machine,
                              const std::string& label);

  /// Spawn `image` as a process (a fiber) on `machine`. From a thread that
  /// is not one of this cluster's fibers, the new process runs until it
  /// first waits before spawn returns.
  EndpointPtr spawn(const std::string& machine, const std::string& label,
                    ProgramImage image, std::vector<std::string> args = {});

  /// Spawn an installed image by path. Throws util::NoSuchImageError if the
  /// path is not installed on that machine.
  EndpointPtr spawn_image(const std::string& machine, const std::string& path,
                          const std::string& label,
                          std::vector<std::string> args = {});

  /// Remove an endpoint from the address space (its queue is closed; late
  /// sends to the address fail). Idempotent.
  void retire_endpoint(const std::string& address);

  /// Kill a process without any protocol goodbye: the mailbox closes,
  /// queued traffic is lost, in-flight callers see NoRouteError on their
  /// next send and silence on their current wait — the Server-crash event
  /// the fault-tolerant call path must survive. Idempotent.
  void crash_process(const std::string& address);

  /// Crash every process whose endpoint lives on `machine` (a whole-host
  /// failure). Returns the number of processes killed.
  int crash_machine(const std::string& machine);

  bool endpoint_alive(const std::string& address) const;

  // --- Messaging ----------------------------------------------------------
  /// Deliver `payload` from `from` to the endpoint at `to`. Throws
  /// util::NoRouteError if the destination does not exist (any more) —
  /// the signal the Schooner client runtime turns into stale-binding
  /// recovery. Also advances the sender's clock by the send overhead.
  void send(Endpoint& from, const std::string& to, util::Bytes payload);

  /// Close every endpoint and wait for every process to exit.
  void shutdown();

  /// Processes spawned and not yet exited. An exited process has already
  /// given back its stack and endpoint.
  std::size_t live_processes() const;

  // --- Accounting ---------------------------------------------------------
  struct Traffic {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };
  /// Total traffic, and per link-profile-name traffic.
  Traffic traffic() const;
  std::map<std::string, Traffic> traffic_by_link() const;
  void reset_traffic();

  // --- Fault injection ----------------------------------------------------
  /// Network partition: frames between any machine in `group_a` and any
  /// machine in `group_b` are *silently dropped* — exactly what a real
  /// partition looks like to the endpoints (no error, just silence), so
  /// peers only notice through missing heartbeats and timed-out waits.
  /// Partitions stack; machines absent from both groups keep full
  /// connectivity. Throws NoSuchMachineError on unknown names.
  void partition(const std::vector<std::string>& group_a,
                 const std::vector<std::string>& group_b);
  /// Remove every partition (links resume instantly).
  void heal();
  /// Frames swallowed by partitions so far.
  std::uint64_t partition_drops() const;

  /// Seed the deterministic fault schedule (resets schedule positions).
  void set_fault_seed(std::uint64_t seed);
  /// Inject faults on every frame carried by the named link profile.
  void set_link_faults(const std::string& link_name, const FaultSpec& spec);
  void clear_faults();
  FaultInjector::Stats fault_stats() const;
  /// Crashes delivered through crash_process()/crash_machine() so far.
  std::uint64_t crashes() const;

 private:
  /// A configured route: its profile and the per-link-name traffic slot
  /// it counts into, so a send finds both without hashing the name.
  struct Link {
    LinkProfile profile;
    Traffic* traffic = nullptr;  ///< a node of traffic_by_link_
  };
  /// (site, site), the lesser name first.
  using SitePair = util::StringPair;

  /// Bind `profile` to its traffic slot, creating the slot on first use.
  Link make_link(const LinkProfile& profile) SCHOONER_REQUIRES(mu_);
  /// The link between two machines; throws NoRouteError when the sites
  /// are unlinked or their link is down. The reference is only good
  /// while mu_ is held.
  const Link& link_between(const Machine& from, const Machine& to) const
      SCHOONER_REQUIRES(mu_);
  /// True when an active partition separates the two machines.
  bool partitioned(const Machine& from, const Machine& to) const
      SCHOONER_REQUIRES(mu_);

  /// One coarse lock over all cluster state. Standalone in the lock
  /// hierarchy except for the util.Logger / obs.Registry leaves taken by
  /// logging and drop accounting; critically, send() never holds it
  /// while pushing into an endpoint's mailbox (sim.Mailbox, its own
  /// lock), so delivery cannot order sim.Cluster against mailbox waits
  /// (lock_hierarchy.md).
  mutable util::Mutex mu_{"sim.Cluster"};
  std::map<std::string, Machine> machines_ SCHOONER_GUARDED_BY(mu_);
  std::map<SitePair, Link, util::StringPairLess> site_links_
      SCHOONER_GUARDED_BY(mu_);
  std::set<SitePair, util::StringPairLess> links_down_ SCHOONER_GUARDED_BY(mu_);
  Link intra_site_ SCHOONER_GUARDED_BY(mu_);
  Link intra_machine_ SCHOONER_GUARDED_BY(mu_);
  std::unordered_map<std::string, EndpointPtr> endpoints_
      SCHOONER_GUARDED_BY(mu_);
  std::map<std::pair<std::string, std::string>, ProgramImage> images_
      SCHOONER_GUARDED_BY(mu_);
  std::uint64_t next_pid_ SCHOONER_GUARDED_BY(mu_) = 1;
  Traffic traffic_ SCHOONER_GUARDED_BY(mu_);
  /// One slot per link-profile name ever configured; reset_traffic()
  /// zeroes the slots but keeps them, since Links point at them.
  std::map<std::string, Traffic> traffic_by_link_ SCHOONER_GUARDED_BY(mu_);
  FaultInjector faults_ SCHOONER_GUARDED_BY(mu_);
  std::uint64_t crashes_ SCHOONER_GUARDED_BY(mu_) = 0;
  /// Active partitions as (group_a, group_b) machine-name sets.
  std::vector<std::pair<std::set<std::string>, std::set<std::string>>>
      partitions_ SCHOONER_GUARDED_BY(mu_);
  std::uint64_t partition_drops_ SCHOONER_GUARDED_BY(mu_) = 0;
  /// Runs every process. Declared last so it is destroyed first: its
  /// driver thread stops before the state above goes away.
  Scheduler sched_;
};

}  // namespace npss::sim
