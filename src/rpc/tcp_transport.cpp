#include "rpc/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

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

// --- TcpProcedureHost --------------------------------------------------------------

namespace {

/// The TCP side of the HostTransport seam: a request's handle is the bus
/// connection it came in on, and its reply is framed onto that
/// connection, written through when no other reply is queued behind it.
class ConnectionReplies final : public HostTransport {
 public:
  void reply(const HostRequest& request, const Message& reply,
             bool last) override {
    auto* conn = const_cast<bus::BusConnection*>(
        static_cast<const bus::BusConnection*>(request.from.get()));
    conn->send_message(reply, last ? bus::SendHint::kWriteThrough
                                   : bus::SendHint::kCoalesce);
  }
};

ConnectionReplies connection_replies;

}  // namespace

TcpProcedureHost::TcpProcedureHost(const std::string& spec_text,
                                   std::vector<ProcedureDef> procs,
                                   const std::string& arch_key, int port,
                                   int workers)
    : dispatcher_(std::make_unique<bus::BusDispatcher>("tcp-host")),
      engine_(spec_text, std::move(procs), arch::arch_catalog(arch_key),
              connection_replies, ProcedureImageOptions{.workers = workers}) {
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

  dispatcher_->listen(listen_fd, [this](int fd) {
    dispatcher_->adopt(
        fd,
        [this](const std::shared_ptr<bus::BusConnection>& conn,
               Message&& msg) {
          HostRequest request{std::move(msg), conn};
          engine_.dispatch(request);
        },
        bus::BusConnection::CloseFn{});
  });
}

TcpProcedureHost::~TcpProcedureHost() { stop(); }

void TcpProcedureHost::stop() {
  if (stopping_.exchange(true)) return;
  dispatcher_->stop();
  engine_.drain();
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
          bus::append_frame(out, request, bus::kMaxFrameBytes);
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
