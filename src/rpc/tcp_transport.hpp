// Real-socket transport.
//
// The virtual cluster reproduces the paper's *testbed*; this module is the
// transport the system would use on a real network today: Schooner wire
// Messages framed over TCP (4-byte big-endian length prefix + the standard
// frame). It provides a direct-connection subset of the protocol — a
// TcpProcedureHost serves kCall/kPing for a set of procedures, and a
// TcpRemoteProc is the matching client stub — enough to run the marshaling
// stack between genuinely separate processes (see examples/tcp_demo.cpp).
// Heterogeneity still applies: both ends declare the architecture whose
// native formats their values pass through.
//
// Data plane: both ends ride the multiplexed bus (src/rpc/bus/) — a poll()
// event loop owning nonblocking sockets, persistent connections carrying
// many sequence-tagged in-flight calls, coalesced scatter-gather writes,
// and an incremental frame decoder. Every TcpRemoteProc aimed at one
// host:port shares a pooled connection; call_async() pipelines calls over
// it (DESIGN.md §14). The client half is the CallCore the cluster runs,
// over a ChannelTransport: one attempt loop for both fabrics. The
// blocking TcpConnection remains for peers that want the simple
// one-frame-at-a-time surface.
#pragma once

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/arch.hpp"
#include "rpc/bus/channel.hpp"
#include "rpc/calling.hpp"
#include "rpc/host.hpp"
#include "rpc/message.hpp"
#include "util/fair_queue.hpp"

namespace npss::rpc {

/// Blocking, length-prefixed Message stream over a connected socket.
/// (The multiplexed paths use the bus; this surface stays for tools and
/// tests that want lock-step framing, and it now survives nonblocking
/// sockets: write_all handles EAGAIN/partial writes, receive_within
/// charges poll time against the *remaining* deadline across EINTR.)
class TcpConnection {
 public:
  /// Adopt an already-connected socket descriptor.
  explicit TcpConnection(int fd) : fd_(fd) {}
  ~TcpConnection();
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Connect to host:port. Throws util::CallError on failure.
  static std::unique_ptr<TcpConnection> connect(const std::string& host,
                                                int port);

  void send(const Message& msg);
  /// Blocking receive; returns false on orderly peer close.
  bool receive(Message& msg);
  /// Like receive(), but throws util::DeadlineError when no data is
  /// readable within `timeout_ms` of real time (0 = block forever).
  bool receive_within(Message& msg, int timeout_ms);

  void close();
  int fd() const { return fd_; }

 private:
  void write_all(const std::uint8_t* data, std::size_t size);
  bool read_all(std::uint8_t* data, std::size_t size);

  int fd_ = -1;
};

/// Serves a set of procedures over TCP: a bus dispatcher owns every
/// connection; decoded kCall frames are handed to a small worker pool
/// (kPing answered inline on the loop). Calls are prepared and run by the
/// same ExportTable as the cluster host (host.hpp), so steady-state calls
/// execute cached plans instead of re-parsing signature text.
class TcpProcedureHost {
 public:
  /// Listen on `port` (0 = ephemeral; see port()). `arch_key` names the
  /// architecture whose native formats this host's values pass through.
  TcpProcedureHost(const std::string& spec_text,
                   std::vector<ProcedureDef> procs, const std::string& arch_key,
                   int port = 0, bus::BusOptions bus_options = {});
  ~TcpProcedureHost();
  TcpProcedureHost(const TcpProcedureHost&) = delete;
  TcpProcedureHost& operator=(const TcpProcedureHost&) = delete;

  int port() const { return port_; }
  /// Calls served so far.
  long calls() const { return calls_.load(); }

  void stop();

 private:
  struct Work {
    std::shared_ptr<bus::BusConnection> conn;
    Message msg;
  };

  void on_frame(const std::shared_ptr<bus::BusConnection>& conn,
                Message&& msg);
  /// Serve one call; `pooled` is true on a worker thread, false inline
  /// on the loop.
  void handle(const std::shared_ptr<bus::BusConnection>& conn, Message& msg,
              bool pooled);

  const arch::ArchDescriptor* arch_;
  /// Set up before the workers start; its prepared-import cache is the
  /// one the cluster host uses, and locks itself.
  ExportTable exports_;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<long> calls_{0};

  std::unique_ptr<bus::BusDispatcher> dispatcher_;
  /// Per-line FIFO lanes drained round-robin: one line's call storm
  /// queues behind itself, not in front of every other line (§15).
  util::FairQueue<Work> work_;
  std::vector<std::jthread> workers_;
};

/// CallTransport over the pooled bus channel to one host:port, timed by
/// the steady clock: a timed-out await has already spent its real time,
/// so nothing more is billed. Like its stub, it has one caller thread at
/// a time.
class ChannelTransport final : public CallTransport {
 public:
  /// Throws util::CallError when the host is unreachable.
  ChannelTransport(std::string host, int port);

  /// A dead or unreachable connection surfaces as util::NoRouteError
  /// (the request never left); the next issue reconnects.
  Issued issue(const std::string& to, Message& request) override;
  /// Throws util::CallError when the connection dies under the request.
  Message await(Issued& call, const AwaitBound& bound) override;
  void abandon(Issued& call) override;
  util::SimTime now() const override;
  void sleep(util::SimTime us) override;

 private:
  /// The pooled channel, reconnecting if the previous one died.
  const std::shared_ptr<bus::BusChannel>& channel();
  /// Remove `seq`'s reply future from in_flight_ and hand it over.
  std::future<Message> take(std::uint64_t seq);

  std::string host_;
  int port_ = 0;
  std::shared_ptr<bus::BusChannel> channel_;
  /// The reply futures of requests issued and not yet awaited or
  /// abandoned, by seq (bus seqs are unique in the process, so a request
  /// on a channel since replaced cannot collide), oldest first from
  /// head_; a taken one leaves seq 0 until the head passes it. The
  /// capacity is kept, so a steady pipeline allocates nothing here.
  std::vector<std::pair<std::uint64_t, std::future<Message>>> in_flight_;
  std::size_t head_ = 0;
};

/// Client stub calling one procedure on a TcpProcedureHost: a CallCore
/// with a fixed binding (host:port, no Manager) over a ChannelTransport.
/// All stubs aimed at one host:port share a pooled bus channel, so their
/// calls multiplex (and, via call_async, pipeline) over a single socket.
/// Like a Line, a stub has one caller thread at a time.
class TcpRemoteProc {
 public:
  /// `import_spec_text` holds the import declaration for `name`.
  /// Throws util::CallError when the host is unreachable.
  TcpRemoteProc(const std::string& host, int port, const std::string& name,
                const std::string& import_spec_text,
                const std::string& arch_key);
  TcpRemoteProc(const TcpRemoteProc&) = delete;
  TcpRemoteProc& operator=(const TcpRemoteProc&) = delete;

  /// Fault-tolerant invoke, the engine RemoteProc::call runs, on the real
  /// transport: deadline_us counts *real* microseconds. A timed-out seq
  /// is abandoned — the healthy shared connection is kept and the late
  /// reply discarded by seq; a dead connection is retried on the same
  /// address once the bus reconnects. failover_machine is ignored.
  CallResult call(uts::ValueList args, const CallOptions& opts);

  /// Issue the call under CallOptions::legacy() and return it in flight;
  /// many pending calls pipeline over the shared connection and replies
  /// are matched by seq.
  PendingCall call_async(uts::ValueList args);

  /// Measure a kPing/kPong round trip over the shared connection, in real
  /// (wall-clock) microseconds. Recorded into the rpc.transport.rtt_us
  /// histogram so benches can split network time from marshal time.
  /// Throws util::NoRouteError when the host cannot be reached, and
  /// util::CallError when the connection dies under the ping.
  double ping_us();

  const uts::Signature& signature() const { return decl_.signature; }

 private:
  ChannelTransport transport_;
  std::string name_;
  uts::ProcDecl decl_;
  std::string import_text_;
  BindingCache cache_;
  CallCore core_;
};

/// The TCP name of the engine's one pending-call type.
using PendingTcpCall = PendingCall;

}  // namespace npss::rpc
