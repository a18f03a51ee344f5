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
// it (DESIGN.md §14). Each half is the engine the cluster runs: the
// client is a CallCore over a ChannelTransport, the host a HostEngine fed
// by the bus dispatcher — one attempt loop and one serve path for both
// fabrics.
#pragma once

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/arch.hpp"
#include "rpc/bus/channel.hpp"
#include "rpc/calling.hpp"
#include "rpc/host.hpp"
#include "rpc/message.hpp"

namespace npss::rpc {

/// Serves a set of procedures over TCP: a bus dispatcher owns every
/// connection and feeds each decoded frame to the HostEngine the cluster
/// image runs (host.hpp). kCall goes to its worker pool, kPing is
/// answered inline on the loop thread, and each reply leaves as a Message
/// on the connection its request came in on.
class TcpProcedureHost {
 public:
  /// Listen on `port` (0 = ephemeral; see port()). `arch_key` names the
  /// architecture whose native formats this host's values pass through.
  /// `workers` is ProcedureImageOptions::workers for this host: handler
  /// threads behind the dispatcher (0 = on the event-loop thread).
  TcpProcedureHost(const std::string& spec_text,
                   std::vector<ProcedureDef> procs, const std::string& arch_key,
                   int port = 0, int workers = 2);
  ~TcpProcedureHost();
  TcpProcedureHost(const TcpProcedureHost&) = delete;
  TcpProcedureHost& operator=(const TcpProcedureHost&) = delete;

  int port() const { return port_; }
  /// Calls served so far.
  long calls() const { return engine_.calls(); }

  void stop();

 private:
  // The loop thread starts before the engine's workers; stop() ends
  // both before either member is destroyed.
  std::unique_ptr<bus::BusDispatcher> dispatcher_;
  HostEngine engine_;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
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
