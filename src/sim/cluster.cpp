#include "sim/cluster.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace npss::sim {

using util::NoRouteError;
using util::NoSuchImageError;
using util::NoSuchMachineError;

// --- Endpoint mailbox --------------------------------------------------------

std::optional<Envelope> Endpoint::take() {
  if (items_.empty()) return std::nullopt;
  std::optional<Envelope> env(std::move(items_.front()));
  items_.pop_front();
  clock_.join(env->stamp);
  return env;
}

std::optional<Envelope> Endpoint::try_receive() {
  util::MutexLock lock(mu_);
  return take();
}

void Endpoint::drive_if_woken(bool woke) {
  if (woke && !sched_->current()) sched_->drive_woken();
}

bool Endpoint::push(Envelope env) {
  bool woke = false;
  {
    util::MutexLock lock(mu_);
    if (closed_) return false;
    items_.push_back(std::move(env));
    // Woken under the lock: the waiter must retake it before it can
    // return, let alone exit, so the pointer stays valid for wake().
    if (waiter_) woke = sched_->wake(std::exchange(waiter_, nullptr));
    if (thread_waiters_ > 0) cv_.notify_all();
  }
  drive_if_woken(woke);
  return true;
}

void Endpoint::close() {
  bool woke = false;
  {
    util::MutexLock lock(mu_);
    closed_ = true;
    if (waiter_) woke = sched_->wake(std::exchange(waiter_, nullptr));
    if (thread_waiters_ > 0) cv_.notify_all();
  }
  drive_if_woken(woke);
}

bool Endpoint::closed() const {
  util::MutexLock lock(mu_);
  return closed_;
}

std::optional<Envelope> Endpoint::wait(Scheduler::Clock::time_point deadline) {
  if (Fiber* self = sched_->current()) return wait_on_fiber(self, deadline);
  return wait_on_thread(deadline);
}

std::optional<Envelope> Endpoint::wait_on_fiber(
    Fiber* self, Scheduler::Clock::time_point deadline) {
  while (true) {
    {
      util::MutexLock lock(mu_);
      if (waiter_ == self) waiter_ = nullptr;
      if (auto env = take()) return env;
      if (closed_) return std::nullopt;
      if (deadline != Scheduler::kNever &&
          Scheduler::Clock::now() >= deadline) {
        return std::nullopt;
      }
      waiter_ = self;
    }
    sched_->park(self, deadline);
  }
}

std::optional<Envelope> Endpoint::wait_on_thread(
    Scheduler::Clock::time_point deadline) {
  const std::function<bool()> satisfied = [this, deadline] {
    {
      util::MutexLock lock(mu_);
      if (!items_.empty() || closed_) return true;
    }
    return deadline != Scheduler::kNever &&
           Scheduler::Clock::now() >= deadline;
  };
  while (true) {
    {
      util::MutexLock lock(mu_);
      if (auto env = take()) return env;
      if (closed_) return std::nullopt;
      if (deadline != Scheduler::kNever &&
          Scheduler::Clock::now() >= deadline) {
        return std::nullopt;
      }
    }
    // Run the fibers this wait depends on, here, while the baton is free.
    if (sched_->drive_until(satisfied)) continue;
    // Someone else holds the baton (or nothing is ready yet): whoever
    // runs the fiber that answers pushes here and wakes this wait.
    util::MutexLock lock(mu_);
    ++thread_waiters_;
    while (items_.empty() && !closed_) {
      if (deadline == Scheduler::kNever) {
        cv_.wait(lock);
      } else if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        break;
      }
    }
    --thread_waiters_;
    if (auto env = take()) return env;
    return std::nullopt;
  }
}

// --- ProcessContext ----------------------------------------------------------

void ProcessContext::compute(double microseconds) {
  const double speed = self_->arch().cpu_speed;
  self_->clock().advance(
      static_cast<util::SimTime>(microseconds / std::max(speed, 1e-6)));
}

void ProcessContext::send(const std::string& to, util::Bytes payload) {
  cluster_->send(*self_, to, std::move(payload));
}

namespace {

/// A site pair in its canonical (ordered) form, as views.
std::pair<std::string_view, std::string_view> site_key(std::string_view a,
                                                       std::string_view b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace

Cluster::Cluster() {
  util::MutexLock lock(mu_);
  intra_site_ = make_link(link_profile("ethernet-lan"));
  intra_machine_ = make_link(link_profile("loopback"));
}

Cluster::~Cluster() { shutdown(); }

Machine& Cluster::add_machine(const std::string& name,
                              const std::string& arch_key,
                              const std::string& site) {
  util::MutexLock lock(mu_);
  auto [it, inserted] = machines_.try_emplace(
      name, Machine{name, &arch::arch_catalog(arch_key), site});
  if (!inserted) {
    throw NoSuchMachineError("machine '" + name + "' already exists");
  }
  return it->second;
}

const Machine& Cluster::machine(const std::string& name) const {
  util::MutexLock lock(mu_);
  auto it = machines_.find(name);
  if (it == machines_.end()) {
    throw NoSuchMachineError("unknown machine '" + name + "'");
  }
  return it->second;
}

bool Cluster::has_machine(const std::string& name) const {
  util::MutexLock lock(mu_);
  return machines_.contains(name);
}

std::vector<std::string> Cluster::machine_names() const {
  util::MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(machines_.size());
  for (const auto& [name, m] : machines_) names.push_back(name);
  return names;
}

Cluster::Link Cluster::make_link(const LinkProfile& profile) {
  return Link{profile, &traffic_by_link_[profile.name]};
}

void Cluster::set_site_link(const std::string& site_a,
                            const std::string& site_b,
                            const LinkProfile& profile) {
  util::MutexLock lock(mu_);
  site_links_[{std::min(site_a, site_b), std::max(site_a, site_b)}] =
      make_link(profile);
}

void Cluster::set_link_up(const std::string& site_a,
                          const std::string& site_b, bool up) {
  util::MutexLock lock(mu_);
  SitePair key{std::min(site_a, site_b), std::max(site_a, site_b)};
  if (up) {
    links_down_.erase(key);
  } else {
    links_down_.insert(std::move(key));
  }
}

void Cluster::set_intra_site_link(const LinkProfile& profile) {
  util::MutexLock lock(mu_);
  intra_site_ = make_link(profile);
}

void Cluster::set_intra_machine_link(const LinkProfile& profile) {
  util::MutexLock lock(mu_);
  intra_machine_ = make_link(profile);
}

const Cluster::Link& Cluster::link_between(const Machine& from,
                                           const Machine& to) const {
  if (from.name == to.name) return intra_machine_;
  if (from.site == to.site) return intra_site_;
  const auto key = site_key(from.site, to.site);
  if (!links_down_.empty() && links_down_.contains(key)) {
    throw NoRouteError("link between sites '" + from.site + "' and '" +
                       to.site + "' is down");
  }
  auto it = site_links_.find(key);
  if (it == site_links_.end()) {
    throw NoRouteError("no link configured between sites '" + from.site +
                       "' and '" + to.site + "'");
  }
  return it->second;
}

bool Cluster::partitioned(const Machine& from, const Machine& to) const {
  for (const auto& [group_a, group_b] : partitions_) {
    if ((group_a.contains(from.name) && group_b.contains(to.name)) ||
        (group_b.contains(from.name) && group_a.contains(to.name))) {
      return true;
    }
  }
  return false;
}

LinkProfile Cluster::route(const Machine& from, const Machine& to) const {
  util::MutexLock lock(mu_);
  return link_between(from, to).profile;
}

void Cluster::install_image(const std::string& machine,
                            const std::string& path, ProgramImage image) {
  util::MutexLock lock(mu_);
  if (!machines_.contains(machine)) {
    throw NoSuchMachineError("install_image: unknown machine '" + machine +
                             "'");
  }
  images_[{machine, path}] = std::move(image);
}

bool Cluster::has_image(const std::string& machine,
                        const std::string& path) const {
  util::MutexLock lock(mu_);
  return images_.contains({machine, path});
}

EndpointPtr Cluster::create_endpoint(const std::string& machine,
                                     const std::string& label) {
  util::MutexLock lock(mu_);
  auto it = machines_.find(machine);
  if (it == machines_.end()) {
    throw NoSuchMachineError("create_endpoint: unknown machine '" + machine +
                             "'");
  }
  std::string address =
      machine + "/" + label + "#" + std::to_string(next_pid_++);
  auto ep = std::make_shared<Endpoint>(sched_, it->second, address);
  endpoints_[address] = ep;
  return ep;
}

EndpointPtr Cluster::spawn(const std::string& machine,
                           const std::string& label, ProgramImage image,
                           std::vector<std::string> args) {
  EndpointPtr ep = create_endpoint(machine, label);
  sched_.spawn([this, ep, image = std::move(image),
                args = std::move(args)]() mutable {
    ProcessContext ctx(*this, ep, std::move(args));
    try {
      image(ctx);
    } catch (const std::exception& e) {
      NPSS_LOG_ERROR("sim", "process ", ep->address(),
                     " died with exception: ", e.what());
    }
    retire_endpoint(ep->address());
  });
  return ep;
}

EndpointPtr Cluster::spawn_image(const std::string& machine,
                                 const std::string& path,
                                 const std::string& label,
                                 std::vector<std::string> args) {
  ProgramImage image;
  {
    util::MutexLock lock(mu_);
    auto it = images_.find({machine, path});
    if (it == images_.end()) {
      throw NoSuchImageError("no executable '" + path + "' on machine '" +
                             machine + "'");
    }
    image = it->second;
  }
  return spawn(machine, label, std::move(image), std::move(args));
}

void Cluster::retire_endpoint(const std::string& address) {
  EndpointPtr ep;
  {
    util::MutexLock lock(mu_);
    auto it = endpoints_.find(address);
    if (it == endpoints_.end()) return;
    ep = it->second;
    endpoints_.erase(it);
  }
  ep->close();
}

void Cluster::crash_process(const std::string& address) {
  {
    util::MutexLock lock(mu_);
    if (!endpoints_.contains(address)) return;
    ++crashes_;
  }
  NPSS_LOG_WARN("sim", "crash injected: process ", address, " killed");
  if (obs::enabled()) {
    obs::Registry::global().counter("sim.fault.crashes").add();
  }
  retire_endpoint(address);
}

int Cluster::crash_machine(const std::string& machine) {
  std::vector<std::string> victims;
  {
    util::MutexLock lock(mu_);
    for (const auto& [addr, ep] : endpoints_) {
      if (ep->machine().name == machine) victims.push_back(addr);
    }
  }
  for (const std::string& addr : victims) crash_process(addr);
  return static_cast<int>(victims.size());
}

bool Cluster::endpoint_alive(const std::string& address) const {
  util::MutexLock lock(mu_);
  return endpoints_.contains(address);
}

void Cluster::send(Endpoint& from, const std::string& to,
                   util::Bytes payload) {
  const std::size_t size = payload.size();
  EndpointPtr dest;
  util::SimTime stamp = 0;
  FaultAction action = FaultAction::kDeliver;
  {
    // One acquisition resolves the destination and its route, stamps the
    // frame and does the accounting; the link is read in place, since
    // the routing table cannot change under the lock.
    util::MutexLock lock(mu_);
    auto it = endpoints_.find(to);
    if (it == endpoints_.end()) {
      throw NoRouteError("no endpoint at address '" + to + "'");
    }
    dest = it->second;
    const Link& link = link_between(from.machine(), dest->machine());
    stamp = from.clock().now() + link.profile.transfer_time(size);
    // A partition swallows the frame silently: the sender gets no error
    // (unlike a link taken down), the receiver gets nothing — peers can
    // only notice through heartbeat/reply timeouts.
    if (!partitions_.empty() && partitioned(from.machine(), dest->machine())) {
      ++partition_drops_;
      NPSS_LOG_DEBUG("sim", from.address(), " -> ", to,
                     " DROPPED by partition");
      if (obs::enabled()) {
        obs::Registry::global().counter("sim.fault.partition_drop").add();
      }
      return;
    }
    ++traffic_.messages;
    traffic_.bytes += size;
    ++link.traffic->messages;
    link.traffic->bytes += size;
    if (faults_.active()) {
      util::SimTime extra = 0;
      action = faults_.next(link.profile.name, &extra);
      if (action == FaultAction::kDelay) stamp += extra;
    }
    if (action == FaultAction::kDrop) {
      NPSS_LOG_DEBUG("sim", from.address(), " -> ", to, " DROPPED on ",
                     link.profile.name);
    } else {
      NPSS_LOG_TRACE("sim", from.address(), " -> ", to, " (", size,
                     " bytes via ", link.profile.name, ")");
    }
  }
  if (action != FaultAction::kDeliver && obs::enabled()) {
    obs::Registry::global()
        .counter(std::string("sim.fault.") +
                 std::string(fault_action_name(action)))
        .add();
  }
  // The frame vanishes on the wire: the sender paid the send, the
  // receiver never hears about it. Callers recover via deadlines.
  if (action == FaultAction::kDrop) return;
  // Pushed outside the lock: sim.Cluster is never held into sim.Mailbox.
  if (action == FaultAction::kDuplicate) {
    dest->push(Envelope{from.address_, stamp, payload});
  }
  if (!dest->push(Envelope{from.address_, stamp, std::move(payload)})) {
    throw NoRouteError("endpoint '" + to + "' is closed");
  }
}

void Cluster::shutdown() {
  std::unordered_map<std::string, EndpointPtr> eps;
  {
    util::MutexLock lock(mu_);
    eps.swap(endpoints_);
  }
  for (auto& [addr, ep] : eps) ep->close();
  sched_.wait_all_exited();
}

std::size_t Cluster::live_processes() const { return sched_.live(); }

Cluster::Traffic Cluster::traffic() const {
  util::MutexLock lock(mu_);
  return traffic_;
}

std::map<std::string, Cluster::Traffic> Cluster::traffic_by_link() const {
  util::MutexLock lock(mu_);
  std::map<std::string, Traffic> carried;
  for (const auto& [name, t] : traffic_by_link_) {
    if (t.messages > 0) carried.emplace(name, t);
  }
  return carried;
}

void Cluster::reset_traffic() {
  util::MutexLock lock(mu_);
  traffic_ = {};
  for (auto& [name, t] : traffic_by_link_) t = {};
}

void Cluster::partition(const std::vector<std::string>& group_a,
                        const std::vector<std::string>& group_b) {
  util::MutexLock lock(mu_);
  std::set<std::string> a, b;
  for (const std::string& name : group_a) {
    if (!machines_.contains(name)) {
      throw NoSuchMachineError("partition: unknown machine '" + name + "'");
    }
    a.insert(name);
  }
  for (const std::string& name : group_b) {
    if (!machines_.contains(name)) {
      throw NoSuchMachineError("partition: unknown machine '" + name + "'");
    }
    b.insert(name);
  }
  NPSS_LOG_WARN("sim", "partition injected: ", a.size(), " machine(s) | ",
                b.size(), " machine(s)");
  partitions_.emplace_back(std::move(a), std::move(b));
}

void Cluster::heal() {
  util::MutexLock lock(mu_);
  if (!partitions_.empty()) {
    NPSS_LOG_WARN("sim", "partitions healed (", partitions_.size(),
                  " removed)");
  }
  partitions_.clear();
}

std::uint64_t Cluster::partition_drops() const {
  util::MutexLock lock(mu_);
  return partition_drops_;
}

void Cluster::set_fault_seed(std::uint64_t seed) {
  util::MutexLock lock(mu_);
  faults_.set_seed(seed);
}

void Cluster::set_link_faults(const std::string& link_name,
                              const FaultSpec& spec) {
  util::MutexLock lock(mu_);
  faults_.set_link_faults(link_name, spec);
}

void Cluster::clear_faults() {
  util::MutexLock lock(mu_);
  faults_.clear();
  faults_.reset_stats();
}

FaultInjector::Stats Cluster::fault_stats() const {
  util::MutexLock lock(mu_);
  return faults_.stats();
}

std::uint64_t Cluster::crashes() const {
  util::MutexLock lock(mu_);
  return crashes_;
}

}  // namespace npss::sim
