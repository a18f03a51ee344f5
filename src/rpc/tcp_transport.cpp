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
#include <cmath>
#include <cstring>
#include <thread>

#include "obs/trace.hpp"
#include "rpc/bus/frame.hpp"
#include "rpc/manager.hpp"
#include "rpc/metrics.hpp"
#include "util/log.hpp"

namespace npss::rpc {

using util::CallError;

namespace {

/// Frame bytes that are not argument blob: prefix, fixed fields, string
/// lengths, empty table, optional trace extension. Lets the client count
/// blob bytes (the historical client_bytes_marshaled unit) without ever
/// materializing the blob.
std::size_t call_frame_overhead(const std::string& a, const std::string& b,
                                bool traced) {
  return 4 /*prefix*/ + 1 /*kind*/ + 8 /*seq*/ + 8 /*line*/ +
         (4 + a.size()) + (4 + b.size()) + 4 /*c*/ + 8 /*n*/ +
         4 /*blob len*/ + 4 /*table*/ + (traced ? 1 + 3 * 8 : 0);
}

}  // namespace

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

// --- PendingTcpCall -----------------------------------------------------------------

PendingTcpCall::~PendingTcpCall() {
  // An un-got pending call abandons its seq; the shared connection and
  // its other in-flight calls are unaffected.
  if (!done_ && channel_ && reply_.valid()) channel_->abandon(seq_);
}

CallResult& PendingTcpCall::get() {
  if (!done_) owner_->finish(*this);
  return result_;
}

// --- TcpRemoteProc ------------------------------------------------------------------

TcpRemoteProc::TcpRemoteProc(const std::string& host, int port,
                             const std::string& name,
                             const std::string& import_spec_text,
                             const std::string& arch_key)
    : channel_(bus::TcpBus::instance().channel(host, port)),
      host_(host),
      port_(port),
      name_(name),
      arch_(&arch::arch_catalog(arch_key)) {
  uts::SpecFile spec = uts::parse_spec(import_spec_text);
  decl_ = spec.find(name);
  import_text_ = uts::decl_to_string(decl_);
  request_plan_ = uts::compile_plan(decl_.signature, uts::Direction::kRequest);
  reply_plan_ = uts::compile_plan(decl_.signature, uts::Direction::kReply);
  span_label_ = "tcp call " + name_;
  calls_by_name_ = &client_calls_counter(name_);
}

std::shared_ptr<bus::BusChannel>& TcpRemoteProc::live_channel() {
  if (!channel_ || !channel_->alive()) {
    channel_ = bus::TcpBus::instance().channel(host_, port_);
  }
  return channel_;
}

CallResult TcpRemoteProc::call(uts::ValueList args, const CallOptions& opts) {
  using clock_type = std::chrono::steady_clock;
  obs::Span span("rpc.client", span_label_);
  const auto deadline =
      opts.deadline_us > 0
          ? clock_type::now() + std::chrono::microseconds(opts.deadline_us)
          : clock_type::time_point::max();
  const int max_attempts = std::max(opts.max_attempts, 1);
  CallResult result;
  for (int n = 1; n <= max_attempts; ++n) {
    if (clock_type::now() >= deadline) {
      result.status = util::Status(
          util::ErrorCode::kDeadlineExceeded,
          "tcp call to '" + name_ + "': deadline exhausted after " +
              std::to_string(result.attempts.size()) + " attempt(s)");
      break;
    }
    util::SimTime backoff_us = 0;
    if (n > 1 && opts.backoff.initial_us > 0) {
      backoff_us = std::min<util::SimTime>(
          static_cast<util::SimTime>(
              static_cast<double>(opts.backoff.initial_us) *
              std::pow(std::max(opts.backoff.multiplier, 1.0), n - 2)),
          opts.backoff.max_us);
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    }
    // The attempt's budget is what is left of the call's deadline; the
    // floor of 1 us keeps an exhausted budget from meaning "no deadline".
    util::SimTime budget_us = 0;
    if (opts.deadline_us > 0) {
      budget_us = std::max<util::SimTime>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              deadline - clock_type::now())
              .count(),
          1);
    }
    PendingTcpCall pending;
    {
      obs::Span attempt_span("rpc.client", "attempt " + std::to_string(n));
      pending = call_async(std::move(args), budget_us);
      pending.get();
    }
    CallResult& outcome = pending.result_;
    if (outcome.attempts.empty()) return std::move(outcome);  // bad args
    CallAttempt& attempt = outcome.attempts.back();
    attempt.number = n;
    attempt.backoff_us = backoff_us;
    result.attempts.push_back(std::move(attempt));
    result.status = outcome.status;
    if (outcome.ok()) {
      result.values = std::move(outcome.values);
      return result;
    }
    // A peer refusal is terminal; a timeout is retried only when the call
    // is idempotent (the peer may have run it); a dead connection is
    // re-pooled and retried.
    if (pending.answered_) break;
    const util::ErrorCode code = result.status.code();
    if (code == util::ErrorCode::kCallFailure) {
      channel_.reset();
    } else if (code != util::ErrorCode::kDeadlineExceeded || !opts.idempotent) {
      break;
    }
    args = std::move(pending.args_);
  }
  if (result.status.is_ok()) {
    result.status = util::Status(
        util::ErrorCode::kDeadlineExceeded,
        "tcp call to '" + name_ + "': no attempt possible within deadline");
  }
  return result;
}

PendingTcpCall TcpRemoteProc::call_async(uts::ValueList args,
                                         util::SimTime deadline_us) {
  PendingTcpCall pending;
  pending.owner_ = this;
  pending.deadline_us_ = deadline_us;
  pending.issued_ = std::chrono::steady_clock::now();
  pending.args_ = std::move(args);
  if (pending.args_.size() != decl_.signature.size()) {
    pending.done_ = true;
    pending.result_.status = util::Status(
        util::ErrorCode::kTypeMismatch, "tcp call: argument count mismatch");
    return pending;
  }
  try {
    std::shared_ptr<bus::BusChannel>& ch = live_channel();
    pending.channel_ = ch;
    pending.seq_ = ch->next_seq();
    const obs::TraceContext trace = obs::current_trace();
    pending.reply_ = ch->send(pending.seq_, [&](util::ByteWriter& out) {
      const std::size_t before = out.size();
      bus::append_call_frame(out, pending.seq_, name_, import_text_,
                             *request_plan_, *arch_, pending.args_, trace,
                             ch->max_frame_bytes());
      pending.request_bytes_ =
          out.size() - before -
          call_frame_overhead(name_, import_text_, trace.active());
    });
  } catch (const util::Error& e) {
    // Nothing left the client; get() reports the failure as the attempt.
    pending.done_ = true;
    pending.result_.status = util::Status::from(e);
    pending.result_.attempts.push_back(
        CallAttempt{.address = host_ + ":" + std::to_string(port_),
                    .status = pending.result_.status});
  }
  return pending;
}

void TcpRemoteProc::finish(PendingTcpCall& pending) {
  CallResult& result = pending.result_;
  pending.done_ = true;
  try {
    if (pending.deadline_us_ > 0) {
      const auto deadline =
          pending.issued_ + std::chrono::microseconds(pending.deadline_us_);
      const auto left = deadline - std::chrono::steady_clock::now();
      if (left <= std::chrono::steady_clock::duration::zero() ||
          pending.reply_.wait_for(left) != std::future_status::ready) {
        // Abandon only this seq — the connection stays up and keeps
        // serving every other in-flight call.
        pending.channel_->abandon(pending.seq_);
        throw util::DeadlineError(
            "no tcp reply within " +
            std::to_string(pending.deadline_us_ / 1000) + "ms");
      }
    }
    Message reply = pending.reply_.get();
    pending.answered_ = true;
    if (reply.is_error()) {
      result.status =
          util::Status(static_cast<util::ErrorCode>(reply.n), reply.a);
    } else {
      if (obs::enabled()) {
        RpcMetrics& m = rpc_metrics();
        m.client_calls.add();
        calls_by_name_->add();
        m.client_bytes_marshaled.add(pending.request_bytes_ +
                                     reply.blob.size());
        m.client_latency_us.record(
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - pending.issued_)
                .count());
      }
      const uts::Signature& sig = decl_.signature;
      result.values = reply_plan_->unmarshal(*arch_, reply.blob);
      for (std::size_t i = 0; i < sig.size(); ++i) {
        if (!uts::param_travels(sig[i].mode, uts::Direction::kReply)) {
          result.values[i] = std::move(pending.args_[i]);
        }
      }
    }
  } catch (const util::Error& e) {
    result.status = util::Status::from(e);
  }
  result.attempts.push_back(CallAttempt{
      .address = host_ + ":" + std::to_string(port_), .status = result.status});
}

double TcpRemoteProc::ping_us() {
  std::shared_ptr<bus::BusChannel> ch = live_channel();
  const auto before = std::chrono::steady_clock::now();
  const std::uint64_t seq = ch->next_seq();
  Message msg;
  msg.kind = MessageKind::kPing;
  msg.seq = seq;
  std::future<Message> fut = ch->send(seq, [&](util::ByteWriter& out) {
    bus::append_frame(out, msg, ch->max_frame_bytes());
  });
  Message reply = fut.get();  // matched by seq; throws if the peer died
  if (reply.kind != MessageKind::kPong) {
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
