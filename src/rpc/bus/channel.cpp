#include "rpc/bus/channel.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/metrics.hpp"

namespace npss::rpc::bus {

namespace {

// The gauge is last-write-wins; the authoritative count lives here.
std::atomic<long> g_inflight{0};

void inflight_delta(long d) {
  const long now = g_inflight.fetch_add(d, std::memory_order_relaxed) + d;
  if (obs::enabled()) {
    bus_metrics().inflight_calls.set(static_cast<double>(now));
  }
}

}  // namespace

int tcp_connect_fd(const std::string& host, int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw util::CallError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw util::CallError("bad address '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    throw util::CallError("connect to " + host + ":" + std::to_string(port) +
                          " failed: " + std::strerror(err));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

// --- BusChannel -------------------------------------------------------------

std::shared_ptr<BusChannel> BusChannel::open(BusDispatcher& d,
                                             const std::string& host,
                                             int port) {
  const int fd = tcp_connect_fd(host, port);
  auto ch = std::shared_ptr<BusChannel>(new BusChannel());
  std::weak_ptr<BusChannel> weak = ch;
  ch->conn_ = d.adopt(
      fd,
      [weak](const std::shared_ptr<BusConnection>&, Message&& msg) {
        if (auto self = weak.lock()) self->on_frame(std::move(msg));
      },
      [weak](const std::shared_ptr<BusConnection>&, const util::Status& why) {
        if (auto self = weak.lock()) self->on_close(why);
      });
  return ch;
}

BusChannel::~BusChannel() {
  if (conn_) conn_->shutdown();
}

std::future<Message> BusChannel::send(
    std::uint64_t seq, const std::function<void(util::ByteWriter&)>& framer) {
  std::future<Message> fut;
  bool alone = false;
  {
    util::MutexLock lock(mu_);
    if (!open_.load(std::memory_order_relaxed)) {
      throw util::CallError("bus channel closed: " + close_status_.message());
    }
    // Register before the frame can hit the wire: the reply may race in
    // on the loop thread before send_frame even returns.
    fut = waiting_[seq].get_future();
    alone = waiting_.size() == 1;
  }
  inflight_delta(+1);
  bool queued = false;
  try {
    // The only call in flight (lock-step) writes through; a pipelined
    // window keeps coalescing on the loop.
    queued = conn_->send_frame(framer, alone ? SendHint::kWriteThrough
                                             : SendHint::kCoalesce);
  } catch (...) {
    abandon(seq);
    throw;
  }
  if (!queued) {
    // The connection died between the open_ check and the send; the
    // on_close sweep may or may not have seen our waiter. If it has not,
    // the loop thread has not closed the channel yet: close it here, so
    // a caller that sees this error also sees !alive() and a status. The
    // first close wins; the status is re-read under the lock.
    if (abandon(seq)) {
      on_close(util::Status(util::ErrorCode::kCallFailure,
                            "connection closed while sending"));
      throw util::CallError("bus channel closed: " + close_status().message());
    }
  }
  return fut;
}

bool BusChannel::abandon(std::uint64_t seq) {
  util::MutexLock lock(mu_);
  auto it = waiting_.find(seq);
  if (it == waiting_.end()) return false;
  waiting_.erase(it);
  inflight_delta(-1);
  return true;
}

void BusChannel::on_frame(Message&& msg) {
  std::promise<Message> waiter;
  {
    util::MutexLock lock(mu_);
    auto it = waiting_.find(msg.seq);
    if (it == waiting_.end()) {
      // The caller abandoned this seq (deadline) — the late reply is
      // dropped here instead of poisoning a future call.
      if (obs::enabled()) bus_metrics().abandoned_replies.add();
      return;
    }
    waiter = std::move(it->second);
    waiting_.erase(it);
  }
  inflight_delta(-1);
  waiter.set_value(std::move(msg));
}

void BusChannel::on_close(const util::Status& why) {
  std::map<std::uint64_t, std::promise<Message>> orphans;
  {
    util::MutexLock lock(mu_);
    if (!open_.load(std::memory_order_relaxed)) return;
    close_status_ = why;
    open_.store(false, std::memory_order_release);
    orphans.swap(waiting_);
  }
  if (!orphans.empty()) inflight_delta(-static_cast<long>(orphans.size()));
  for (auto& [seq, waiter] : orphans) {
    (void)seq;
    waiter.set_exception(std::make_exception_ptr(
        util::CallError("connection lost: " + why.message())));
  }
}

// --- TcpBus -----------------------------------------------------------------

TcpBus& TcpBus::instance() {
  static TcpBus bus;
  return bus;
}

std::shared_ptr<BusChannel> TcpBus::channel(const std::string& host,
                                            int port) {
  const std::string key = host + ":" + std::to_string(port);
  util::MutexLock lock(mu_);
  auto it = channels_.find(key);
  if (it != channels_.end() && it->second->alive()) return it->second;
  auto ch = BusChannel::open(dispatcher_, host, port);
  channels_[key] = ch;
  return ch;
}

}  // namespace npss::rpc::bus
