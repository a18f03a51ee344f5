#include "rpc/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "obs/trace.hpp"
#include "rpc/bus/frame.hpp"
#include "rpc/manager.hpp"
#include "rpc/metrics.hpp"
#include "util/log.hpp"

namespace npss::rpc {

using util::CallError;

// --- TcpConnection ----------------------------------------------------------------

TcpConnection::~TcpConnection() { close(); }

std::unique_ptr<TcpConnection> TcpConnection::connect(const std::string& host,
                                                      int port) {
  return std::make_unique<TcpConnection>(bus::tcp_connect_fd(host, port));
}

void TcpConnection::write_all(const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    ssize_t n = ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) throw CallError("tcp send failed");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Nonblocking socket with a full send buffer: a partial write
      // already consumed a prefix of `data`; wait for writability and
      // resume where we left off.
      pollfd pfd{fd_, POLLOUT, 0};
      int rc;
      do {
        rc = ::poll(&pfd, 1, -1);
      } while (rc < 0 && errno == EINTR);
      if (rc < 0) throw CallError("poll() failed while writing");
      continue;
    }
    throw CallError("tcp send failed");
  }
}

bool TcpConnection::read_all(std::uint8_t* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    ssize_t n = ::recv(fd_, data + got, size - got, 0);
    if (n == 0) return false;  // orderly close
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd pfd{fd_, POLLIN, 0};
        int rc;
        do {
          rc = ::poll(&pfd, 1, -1);
        } while (rc < 0 && errno == EINTR);
        if (rc < 0) throw CallError("poll() failed while reading");
        continue;
      }
      throw CallError("tcp recv failed");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void TcpConnection::send(const Message& msg) {
  util::Bytes frame = encode_message(msg);
  if (obs::enabled()) {
    rpc_metrics().frames_sent.add();
    rpc_metrics().bytes_sent.add(frame.size());
  }
  std::uint8_t prefix[4];
  const std::uint32_t len = static_cast<std::uint32_t>(frame.size());
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<std::uint8_t>(len >> (8 * (3 - i)));
  }
  write_all(prefix, 4);
  write_all(frame.data(), frame.size());
}

bool TcpConnection::receive(Message& msg) {
  std::uint8_t prefix[4];
  if (!read_all(prefix, 4)) return false;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len = (len << 8) | prefix[i];
  if (len > (64u << 20)) {
    throw util::EncodingError("tcp frame length " + std::to_string(len) +
                              " exceeds the 64 MiB sanity cap");
  }
  util::Bytes frame(len);
  if (!read_all(frame.data(), len)) return false;
  if (obs::enabled()) {
    rpc_metrics().frames_received.add();
    rpc_metrics().bytes_received.add(frame.size());
  }
  msg = decode_message(frame);
  return true;
}

bool TcpConnection::receive_within(Message& msg, int timeout_ms) {
  if (timeout_ms > 0) {
    using clock_type = std::chrono::steady_clock;
    // Absolute deadline: an EINTR-interrupted poll resumes with the
    // *remaining* budget, instead of granting the full timeout again.
    const auto deadline =
        clock_type::now() + std::chrono::milliseconds(timeout_ms);
    pollfd pfd{fd_, POLLIN, 0};
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - clock_type::now());
      if (left.count() <= 0) {
        throw util::DeadlineError("no tcp reply within " +
                                  std::to_string(timeout_ms) + "ms");
      }
      const int rc = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (rc > 0) break;
      if (rc == 0) {
        throw util::DeadlineError("no tcp reply within " +
                                  std::to_string(timeout_ms) + "ms");
      }
      if (errno != EINTR) throw CallError("poll() failed on tcp connection");
    }
  }
  return receive(msg);
}

void TcpConnection::close() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

// --- TcpProcedureHost --------------------------------------------------------------

TcpProcedureHost::TcpProcedureHost(const std::string& spec_text,
                                   std::vector<ProcedureDef> procs,
                                   const std::string& arch_key, int port,
                                   bus::BusOptions bus_options)
    : arch_(&arch::arch_catalog(arch_key)),
      exports_(spec_text, std::move(procs)) {
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) throw CallError("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int err = errno;
    ::close(listen_fd);
    throw CallError("bind failed: " + std::string(std::strerror(err)));
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd, 64) != 0) {
    ::close(listen_fd);
    throw CallError("listen failed");
  }

  dispatcher_ =
      std::make_unique<bus::BusDispatcher>("tcp-host", bus_options);
  const int workers = std::max(bus_options.workers, 0);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] {
      while (auto work = work_.pop()) {
        handle(work->conn, work->msg, /*pooled=*/true);
      }
    });
  }
  dispatcher_->listen(listen_fd, [this](int fd) {
    dispatcher_->adopt(
        fd,
        [this](const std::shared_ptr<bus::BusConnection>& conn,
               Message&& msg) { on_frame(conn, std::move(msg)); },
        bus::BusConnection::CloseFn{});
  });
}

TcpProcedureHost::~TcpProcedureHost() { stop(); }

void TcpProcedureHost::stop() {
  if (stopping_.exchange(true)) return;
  if (dispatcher_) dispatcher_->stop();
  work_.close();
  workers_.clear();  // joins the pool; pop() drains queued calls first
}

void TcpProcedureHost::on_frame(
    const std::shared_ptr<bus::BusConnection>& conn, Message&& msg) {
  // Pings answered inline on the loop thread: the RTT probe must not sit
  // behind queued calls.
  if (msg.kind == MessageKind::kPing) {
    Message pong;
    pong.kind = MessageKind::kPong;
    pong.seq = msg.seq;
    conn->send_message(pong);
    return;
  }
  if (workers_.empty()) {
    handle(conn, msg, /*pooled=*/false);
    return;
  }
  const LineId line = msg.line;
  work_.push(line, Work{conn, std::move(msg)});
}

void TcpProcedureHost::handle(const std::shared_ptr<bus::BusConnection>& conn,
                              Message& msg, bool pooled) {
  // A worker that finds the queue empty sends the last reply of its
  // batch: write it through. Queued calls mean more replies follow, and
  // the loop thread (no pool) flushes its own batch: both coalesce.
  auto reply_hint = [&] {
    return pooled && work_.size() == 0 ? bus::SendHint::kWriteThrough
                                       : bus::SendHint::kCoalesce;
  };
  if (msg.kind != MessageKind::kCall) {
    conn->send_message(Message::error_reply(
        msg, util::ErrorCode::kProtocolError, "tcp host: unexpected message"));
    return;
  }
  // Adopt the caller's trace: both ends of the socket log spans under
  // the same trace id.
  obs::Span span("rpc.host", "tcp serve " + msg.a, msg.trace);
  try {
    const PreparedImport& prep = exports_.prepare(msg.a, msg.b);
    // No cluster runtime behind a TCP host: compute() is a no-op and
    // nested calls are unavailable.
    const uts::ValueList reply_values =
        run_prepared(prep, *arch_, msg.blob, nullptr);
    std::size_t reply_frame_bytes = 0;
    double serve_us = 0.0;
    conn->send_frame([&](util::ByteWriter& out) {
      const std::size_t before = out.size();
      bus::append_reply_frame(out, msg.seq, *prep.reply_plan, *arch_,
                              reply_values, span.context(),
                              dispatcher_->options().max_frame_bytes);
      reply_frame_bytes = out.size() - before;
      ++calls_;  // committed: counted before the reply bytes can leave,
                 // so a client that saw its reply also sees the counter
      // Serving ends with the framed reply; writing it is transport time.
      serve_us = span.elapsed_us();
    }, reply_hint());
    if (obs::enabled()) {
      RpcMetrics& m = rpc_metrics();
      m.host_calls.add();
      m.host_bytes_marshaled.add(msg.blob.size() + reply_frame_bytes);
      m.host_handler_us.record(serve_us);
    }
  } catch (const util::Error& e) {
    count(rpc_metrics().host_errors);
    conn->send_message(Message::error_reply(msg, e),
                       reply_hint());
  }
}

// --- ChannelTransport ---------------------------------------------------------------

ChannelTransport::ChannelTransport(std::string host, int port)
    : host_(std::move(host)),
      port_(port),
      channel_(bus::TcpBus::instance().channel(host_, port_)) {}

const std::shared_ptr<bus::BusChannel>& ChannelTransport::channel() {
  if (!channel_ || !channel_->alive()) {
    channel_ = bus::TcpBus::instance().channel(host_, port_);
  }
  return channel_;
}

Issued ChannelTransport::issue(const std::string&, Message& request) {
  try {
    const std::shared_ptr<bus::BusChannel>& ch = channel();
    request.seq = ch->next_seq();
    in_flight_.emplace_back(
        request.seq, ch->send(request.seq, [&](util::ByteWriter& out) {
          bus::append_frame(out, request, ch->max_frame_bytes());
        }));
    return Issued{.seq = request.seq};
  } catch (const CallError& e) {
    throw util::NoRouteError(e.what());
  }
}

std::future<Message> ChannelTransport::take(std::uint64_t seq) {
  // A pipeline awaits its oldest call first, so the search starts at the
  // oldest entry still in flight and usually ends there.
  std::size_t i = head_;
  while (in_flight_.at(i).first != seq) ++i;
  std::future<Message> reply = std::move(in_flight_[i].second);
  in_flight_[i].first = 0;
  while (head_ < in_flight_.size() && in_flight_[head_].first == 0) ++head_;
  if (head_ > in_flight_.size() / 2) {
    in_flight_.erase(in_flight_.begin(),
                     in_flight_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  return reply;
}

Message ChannelTransport::await(Issued& call, const AwaitBound& bound) {
  std::future<Message> reply = take(call.seq);
  if (bound.budget_us > 0) {
    const std::chrono::microseconds left(bound.since + bound.budget_us -
                                         now());
    if (left.count() <= 0 ||
        reply.wait_for(left) != std::future_status::ready) {
      // Abandon only this seq — the connection stays up and keeps
      // serving every other in-flight call. (A seq of a channel since
      // replaced died with it: the abandon finds nothing.)
      channel_->abandon(call.seq);
      throw util::DeadlineError("no tcp reply for seq " +
                                std::to_string(call.seq) + " within " +
                                std::to_string(bound.budget_us / 1000) + "ms");
    }
  }
  return reply.get();  // matched by seq; throws if the peer died
}

void ChannelTransport::abandon(Issued& call) {
  take(call.seq);
  channel_->abandon(call.seq);
}

util::SimTime ChannelTransport::now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ChannelTransport::sleep(util::SimTime us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

// --- TcpRemoteProc ------------------------------------------------------------------

TcpRemoteProc::TcpRemoteProc(const std::string& host, int port,
                             const std::string& name,
                             const std::string& import_spec_text,
                             const std::string& arch_key)
    : transport_(host, port), name_(name) {
  decl_ = uts::parse_spec(import_spec_text).find(name);
  import_text_ = uts::decl_to_string(decl_);
  cache_.address = host + ":" + std::to_string(port);
  cache_.resolved_name = name_;
  cache_.request_plan =
      uts::compile_plan(decl_.signature, uts::Direction::kRequest);
  cache_.reply_plan =
      uts::compile_plan(decl_.signature, uts::Direction::kReply);
  cache_.span_label = "tcp call " + name_;
  cache_.calls = &client_calls_counter(name_);
  core_.transport = &transport_;
  core_.arch = &arch::arch_catalog(arch_key);
}

CallResult TcpRemoteProc::call(uts::ValueList args, const CallOptions& opts) {
  return core_.invoke(name_, decl_, import_text_, std::move(args), cache_,
                      opts);
}

PendingCall TcpRemoteProc::call_async(uts::ValueList args) {
  return core_.issue(name_, decl_, import_text_, std::move(args), cache_,
                     CallOptions::legacy());
}

double TcpRemoteProc::ping_us() {
  const auto before = std::chrono::steady_clock::now();
  Message ping{.kind = MessageKind::kPing};
  Issued call = transport_.issue(cache_.address, ping);
  if (transport_.await(call, AwaitBound{}).kind != MessageKind::kPong) {
    throw CallError("unexpected reply to ping");
  }
  const double rtt_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - before)
          .count();
  if (obs::enabled()) rpc_metrics().rtt_us.record(rtt_us);
  return rtt_us;
}

}  // namespace npss::rpc
