#include "rpc/bus/dispatcher.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/metrics.hpp"
#include "rpc/metrics.hpp"
#include "util/log.hpp"

namespace npss::rpc::bus {

BusMetrics& bus_metrics() {
  static BusMetrics m = [] {
    obs::Registry& reg = obs::Registry::global();
    return BusMetrics{reg.counter("rpc.bus.bytes_sent"),
                      reg.counter("rpc.bus.frames_coalesced"),
                      reg.counter("rpc.bus.frames_written_through"),
                      reg.gauge("rpc.bus.inflight_calls"),
                      reg.counter("rpc.bus.partial_reads"),
                      reg.counter("rpc.bus.abandoned_replies")};
  }();
  return m;
}

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

// --- BusConnection ----------------------------------------------------------

BusConnection::BusConnection(BusDispatcher* dispatcher, int fd,
                             FrameFn on_frame, CloseFn on_close)
    : dispatcher_(dispatcher),
      fd_(fd),
      on_frame_(std::move(on_frame)),
      on_close_(std::move(on_close)) {}

BusConnection::~BusConnection() = default;

bool BusConnection::send_frame(
    const std::function<void(util::ByteWriter&)>& framer, SendHint hint) {
  bool write_through = false;
  {
    util::MutexLock lock(out_mu_);
    if (!alive_.load(std::memory_order_relaxed)) return false;
    const std::size_t mark = pending_.size();
    try {
      framer(pending_);
    } catch (...) {
      pending_.truncate(mark);
      throw;
    }
    ++pending_frames_;
    queued_bytes_.fetch_add(pending_.size() - mark,
                            std::memory_order_relaxed);
    if (obs::enabled()) {
      RpcMetrics& m = rpc_metrics();
      m.frames_sent.add();
      m.bytes_sent.add(pending_.size() - mark - 4);  // sans length prefix
    }
    // Write through only when this frame is the whole backlog and no
    // thread owns the socket's output.
    if (hint == SendHint::kWriteThrough && mark == 0 &&
        !writing_.load(std::memory_order_relaxed) && segs_.empty() &&
        write_error_.is_ok()) {
      writing_.store(true, std::memory_order_relaxed);
      take_pending();
      write_through = true;
    }
  }
  if (!write_through) {
    dispatcher_->wake();
    return true;
  }
  if (obs::enabled()) bus_metrics().frames_written_through.add();
  util::Status failed = write_segs();
  bool leftover = false;
  {
    util::MutexLock lock(out_mu_);
    // close_conn is loop-only: a failure is recorded for the loop.
    if (!failed.is_ok()) write_error_ = std::move(failed);
    leftover = !segs_.empty() || pending_.size() > 0 || !write_error_.is_ok();
    release_writer();
  }
  if (leftover) dispatcher_->wake();
  return true;
}

bool BusConnection::send_message(const Message& msg, SendHint hint) {
  return send_frame(
      [&](util::ByteWriter& out) { append_frame(out, msg, kMaxFrameBytes); },
      hint);
}

void BusConnection::take_pending() {
  if (pending_.size() == 0) return;
  if (pending_frames_ > 1 && obs::enabled()) {
    bus_metrics().frames_coalesced.add(pending_frames_ - 1);
  }
  pending_frames_ = 0;
  segs_.push_back(std::move(pending_).take());
  pending_ = util::ByteWriter();
}

void BusConnection::release_writer() {
  writing_.store(false, std::memory_order_relaxed);
  // A closer sets alive_ false under out_mu_ before it waits.
  if (!alive_.load(std::memory_order_relaxed)) writer_done_.notify_all();
}

util::Status BusConnection::write_segs() {
  while (!segs_.empty()) {
    // Scatter-gather: one send covers the partially written front
    // segment plus whatever coalesced behind it. MSG_NOSIGNAL: a peer
    // that vanished is an EPIPE for this connection, not a SIGPIPE for
    // the process.
    iovec iov[8];
    std::size_t cnt = 0;
    std::size_t off = seg_off_;
    for (const util::Bytes& seg : segs_) {
      iov[cnt].iov_base = const_cast<std::uint8_t*>(seg.data()) + off;
      iov[cnt].iov_len = seg.size() - off;
      off = 0;
      if (++cnt == 8) break;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = cnt;
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // loop: POLLOUT
      return util::Status(
          util::ErrorCode::kCallFailure,
          std::string("tcp write failed: ") + std::strerror(errno));
    }
    if (obs::enabled()) {
      bus_metrics().bytes_sent.add(static_cast<std::uint64_t>(n));
    }
    queued_bytes_.fetch_sub(static_cast<std::size_t>(n),
                            std::memory_order_relaxed);
    std::size_t left = static_cast<std::size_t>(n);
    while (left > 0) {
      const std::size_t avail = segs_.front().size() - seg_off_;
      if (left >= avail) {
        left -= avail;
        segs_.pop_front();
        seg_off_ = 0;
      } else {
        seg_off_ += left;
        left = 0;
      }
    }
  }
  return util::Status::ok();
}

void BusConnection::shutdown() {
  auto self = shared_from_this();
  BusDispatcher* d = dispatcher_;
  d->post([d, self] {
    // close_conn is loop-thread-only; it no-ops when already closed.
    d->stop_requested_close(self);
  });
  d->wake();
}

// --- BusDispatcher ----------------------------------------------------------

BusDispatcher::BusDispatcher(std::string name) {
  if (::pipe(wake_fds_) != 0) {
    throw util::CallError("bus dispatcher: pipe() failed");
  }
  set_nonblocking(wake_fds_[0]);
  set_nonblocking(wake_fds_[1]);
  read_chunk_.resize(kReadChunkBytes);
  thread_ = std::jthread([this, n = std::move(name)] { loop(n); });
}

BusDispatcher::~BusDispatcher() {
  stop();
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
}

std::shared_ptr<BusConnection> BusDispatcher::adopt(
    int fd, BusConnection::FrameFn on_frame,
    BusConnection::CloseFn on_close) {
  set_nonblocking(fd);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  auto conn = std::make_shared<BusConnection>(this, fd, std::move(on_frame),
                                              std::move(on_close));
  post([this, conn] {
    if (stopping_) {
      close_conn(conn, util::Status(util::ErrorCode::kShutdown,
                                    "bus dispatcher stopped"));
      return;
    }
    conns_.push_back(conn);
  });
  wake();
  return conn;
}

void BusDispatcher::listen(int listen_fd,
                           std::function<void(int)> on_accept) {
  set_nonblocking(listen_fd);
  post([this, listen_fd, cb = std::move(on_accept)]() mutable {
    listeners_.push_back(Listener{listen_fd, std::move(cb)});
  });
  wake();
}

void BusDispatcher::post(std::function<void()> op) {
  util::MutexLock lock(ctl_mu_);
  ctl_.push_back(std::move(op));
}

void BusDispatcher::wake() {
  if (wake_pending_.exchange(true, std::memory_order_acq_rel)) return;
  wakeups_.fetch_add(1, std::memory_order_relaxed);
  const std::uint8_t b = 1;
  // Nonblocking: a full pipe already guarantees a pending wake.
  [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &b, 1);
}

void BusDispatcher::stop() {
  if (stopping_.exchange(true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  wake();
  if (thread_.joinable()) thread_.join();
  // The loop is dead; drain its state on this thread. Control ops first:
  // one the loop never ran may still register a listener, which must be
  // closed with the rest.
  std::vector<std::function<void()>> ops;
  {
    util::MutexLock lock(ctl_mu_);
    ops.swap(ctl_);
  }
  for (auto& op : ops) op();
  for (Listener& l : listeners_) ::close(l.fd);
  listeners_.clear();
  std::vector<std::shared_ptr<BusConnection>> conns;
  conns.swap(conns_);
  for (const auto& c : conns) {
    close_conn(c, util::Status(util::ErrorCode::kShutdown,
                               "bus dispatcher stopped"));
  }
}

void BusDispatcher::stop_requested_close(
    const std::shared_ptr<BusConnection>& c) {
  close_conn(c, util::Status(util::ErrorCode::kShutdown,
                             "connection shut down"));
}

void BusDispatcher::close_conn(const std::shared_ptr<BusConnection>& c,
                               const util::Status& why) {
  bool was_alive;
  {
    util::MutexLock lock(c->out_mu_);
    was_alive = c->alive_.exchange(false, std::memory_order_acq_rel);
    // A sender writing through still uses fd_; its sends never block,
    // so the wait is short.
    while (c->writing_.load(std::memory_order_relaxed)) {
      c->writer_done_.wait(lock);
    }
  }
  if (!was_alive) return;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i] == c) {
      conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  ::close(c->fd_);
  c->fd_ = -1;
  if (c->on_close_) c->on_close_(c, why);
}

void BusDispatcher::flush(const std::shared_ptr<BusConnection>& c) {
  util::Status failed;
  {
    util::MutexLock lock(c->out_mu_);
    // A busy token needs nothing from us: its holder re-checks pending_
    // before it lets go and wakes the loop for anything left over.
    if (c->writing_.load(std::memory_order_relaxed)) return;
    failed = c->write_error_;
    if (failed.is_ok()) {
      c->writing_.store(true, std::memory_order_relaxed);
      c->take_pending();
    }
  }
  while (failed.is_ok()) {
    failed = c->write_segs();
    util::MutexLock lock(c->out_mu_);
    if (failed.is_ok() && c->segs_.empty() && c->pending_.size() > 0) {
      c->take_pending();  // frames appended meanwhile: keep writing
      continue;
    }
    c->release_writer();
    break;
  }
  if (!failed.is_ok()) close_conn(c, failed);
}

void BusDispatcher::read_ready(const std::shared_ptr<BusConnection>& c) {
  // Bounded rounds so one firehose connection cannot starve the rest;
  // poll() re-reports anything left unread.
  for (int round = 0; round < 16; ++round) {
    const ssize_t n =
        ::recv(c->fd_, read_chunk_.data(), read_chunk_.size(), 0);
    if (n == 0) {
      close_conn(c, util::Status(util::ErrorCode::kCallFailure,
                                 "connection closed by peer"));
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(c, util::Status(util::ErrorCode::kCallFailure,
                                 std::string("tcp read failed: ") +
                                     std::strerror(errno)));
      return;
    }
    try {
      c->decoder_.feed(
          std::span(read_chunk_.data(), static_cast<std::size_t>(n)));
      while (auto frame = c->decoder_.next()) {
        Message msg = decode_message(*frame);
        if (obs::enabled()) {
          RpcMetrics& m = rpc_metrics();
          m.frames_received.add();
          m.bytes_received.add(frame->size());
        }
        if (c->on_frame_) c->on_frame_(c, std::move(msg));
        if (!c->alive()) return;  // a handler closed us
      }
    } catch (const util::Error& e) {
      // Oversized or malformed frame: the stream cannot be re-synced.
      close_conn(c, util::Status(util::ErrorCode::kProtocolError, e.what()));
      return;
    }
    if (static_cast<std::size_t>(n) < read_chunk_.size()) break;
  }
  if (c->decoder_.partial() && obs::enabled()) {
    bus_metrics().partial_reads.add();
  }
}

void BusDispatcher::loop(std::string name) {
  std::vector<pollfd> pfds;
  std::vector<std::shared_ptr<BusConnection>> round;
  while (!stopping_.load(std::memory_order_acquire)) {
    // Control ops first (registrations, requested closes).
    std::vector<std::function<void()>> ops;
    {
      util::MutexLock lock(ctl_mu_);
      ops.swap(ctl_);
    }
    for (auto& op : ops) op();

    // Opportunistic flush: frames appended since the last pass go out
    // now, without waiting for a poll cycle.
    round.assign(conns_.begin(), conns_.end());
    for (const auto& c : round) {
      if (c->alive() && c->queued_bytes() > 0) flush(c);
    }

    pfds.clear();
    pfds.push_back(pollfd{wake_fds_[0], POLLIN, 0});
    for (const Listener& l : listeners_) {
      pfds.push_back(pollfd{l.fd, POLLIN, 0});
    }
    const std::size_t conn_base = pfds.size();
    for (const auto& c : conns_) {
      short events = 0;
      // Backpressure: stop reading a connection whose replies the peer
      // is not draining.
      if (c->queued_bytes() < kBackpressureBytes) events |= POLLIN;
      if (c->queued_bytes() > 0 &&
          !c->writing_.load(std::memory_order_relaxed)) {
        events |= POLLOUT;
      }
      pfds.push_back(pollfd{c->fd_, events, 0});
    }
    round.assign(conns_.begin(), conns_.end());

    int rc = ::poll(pfds.data(), pfds.size(), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      NPSS_LOG_WARN("bus", name, ": poll failed: ", std::strerror(errno));
      break;
    }
    if (pfds[0].revents & POLLIN) {
      std::uint8_t buf[64];
      while (::read(wake_fds_[0], buf, sizeof buf) > 0) {
      }
      wake_pending_.store(false, std::memory_order_release);
    }
    for (std::size_t i = 0; i < listeners_.size(); ++i) {
      if (!(pfds[1 + i].revents & POLLIN)) continue;
      for (;;) {
        const int fd = ::accept(listeners_[i].fd, nullptr, nullptr);
        if (fd < 0) break;
        listeners_[i].on_accept(fd);
      }
    }
    for (std::size_t i = 0; i < round.size(); ++i) {
      const auto& c = round[i];
      if (!c->alive()) continue;
      const short re = pfds[conn_base + i].revents;
      if (re & (POLLIN | POLLHUP | POLLERR)) read_ready(c);
      if (c->alive() && (re & POLLOUT)) flush(c);
    }
  }
}

}  // namespace npss::rpc::bus
