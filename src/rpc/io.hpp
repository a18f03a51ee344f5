// MessageIo — the per-process communication layer linked "with every
// procedure to handle the sending and receiving of messages implicit in
// RPC" (§3.1). It frames Messages onto the virtual fabric, matches replies
// to outstanding requests by sequence number, and stashes unrelated
// traffic (e.g. a shutdown order arriving while a call is outstanding) for
// the owner's main loop.
#pragma once

#include <algorithm>
#include <array>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "rpc/message.hpp"
#include "sim/cluster.hpp"

namespace npss::rpc {

/// One request in flight, as CallTransport::issue hands it back.
struct Issued {
  std::uint64_t seq = 0;  ///< 0 = nothing in flight
};

/// How long CallTransport::await may wait for a reply.
struct AwaitBound {
  /// The attempt's share of the call's deadline in fabric microseconds,
  /// counted from `since`; 0 = wait forever.
  util::SimTime budget_us = 0;
  util::SimTime since = 0;
  /// Fiber fabric only: host time without a frame after which the
  /// request or its reply counts as lost (set whenever budget_us is).
  int host_grace_ms = 0;
};

/// The data-plane seam under CallCore: split-phase request/reply matched
/// by seq, and the fabric's clock. MessageIo implements it on the fiber
/// fabric (virtual time), ChannelTransport over a TCP bus channel (the
/// steady clock), so one attempt loop serves both.
class CallTransport {
 public:
  /// Stamp a fresh seq into `request` and send it to `to` now. Throws
  /// util::NoRouteError when `to` cannot be reached: the request never
  /// left.
  virtual Issued issue(const std::string& to, Message& request) = 0;
  /// The reply to `call`, error replies included (never raised). Several
  /// calls may be in flight; a reply to another one is kept for its own
  /// await. On timeout the seq is abandoned and util::DeadlineError
  /// thrown, with a virtual clock billed the wait's budget.
  virtual Message await(Issued& call, const AwaitBound& bound) = 0;
  /// Give up on `call` unawaited: its reply is discarded when it lands.
  virtual void abandon(Issued& call) = 0;

  /// Fabric time in microseconds.
  virtual util::SimTime now() const = 0;
  /// Let `us` of fabric time pass (a retry's backoff).
  virtual void sleep(util::SimTime us) = 0;

 protected:
  /// Owned as the concrete fabric, never deleted through the seam.
  ~CallTransport() = default;
};

struct Incoming {
  /// The sender's address, shared with its endpoint rather than copied
  /// per frame (sim::Envelope::from).
  std::shared_ptr<const std::string> sender;
  Message msg;

  const std::string& from() const { return *sender; }
};

/// One request delivered to a procedure host, with the fabric's handle on
/// its sender: the sender's address on the fiber fabric, its connection
/// on TCP. Only the HostTransport that delivered it reads `from`.
struct HostRequest {
  Message msg;
  std::shared_ptr<const void> from;
};

/// The host-side seam, the mirror of CallTransport: a fabric delivers each
/// request to the host engine (HostEngine::dispatch) and sends back the
/// replies the engine hands it. MessageIo implements it on the fiber
/// fabric, the TCP host over its bus connections.
class HostTransport {
 public:
  /// Send `reply` to the sender of `request`. `last` says no other reply
  /// is queued behind it, so it need not wait to share a write.
  virtual void reply(const HostRequest& request, const Message& reply,
                     bool last) = 0;

 protected:
  ~HostTransport() = default;
};

/// The seqs an endpoint has finished with, kept as a fixed window over
/// the newest kSpan seq values: a bit per seq in a ring, so marking and
/// checking are O(1) and allocate nothing. Seqs are monotone per
/// endpoint; a seq more than kSpan below the newest mark has fallen out
/// (a straggler for it would long since have arrived).
class SeqWindow {
 public:
  static constexpr std::uint64_t kSpan = 4096;

  void mark(std::uint64_t seq);
  bool contains(std::uint64_t seq) const;

 private:
  void assign(std::uint64_t seq, bool on) {
    const std::uint64_t slot = seq % kSpan;
    const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
    std::uint64_t& word = bits_[slot / 64];
    word = on ? (word | bit) : (word & ~bit);
  }

  std::uint64_t newest_ = 0;  ///< newest marked seq; 0 = none yet
  std::array<std::uint64_t, kSpan / 64> bits_{};
};

class MessageIo final : public CallTransport, public HostTransport {
 public:
  MessageIo(sim::Cluster& cluster, sim::EndpointPtr endpoint)
      : cluster_(&cluster), endpoint_(std::move(endpoint)) {}

  const std::string& address() const { return endpoint_->address(); }
  sim::Endpoint& endpoint() { return *endpoint_; }
  sim::Cluster& cluster() { return *cluster_; }

  std::uint64_t next_seq() { return ++seq_; }

  /// One-way send. Propagates util::NoRouteError from the fabric.
  void send(const std::string& to, const Message& msg);

  /// Blocking receive of the next message for the owner's main loop:
  /// drains the stash first. Returns nullopt once the endpoint closes.
  std::optional<Incoming> receive() { return next_incoming(-1); }

  /// Non-blocking variant.
  std::optional<Incoming> try_receive() { return next_incoming(0); }

  /// Bounded-wait variant: blocks at most `host_ms` of *host* time for a
  /// frame (the stash is drained first). Returns nullopt on timeout or
  /// once the endpoint closes — a Manager replica's leader loop uses the
  /// gap to notice missed heartbeats and fire elections.
  std::optional<Incoming> receive_for(int host_ms) {
    return next_incoming(std::max(host_ms, 1));
  }

  /// Request/response: sends `request` (stamping a fresh seq into it)
  /// and blocks until the matching reply arrives; any other traffic
  /// received while waiting is stashed for receive(). Throws
  /// util::ShutdownError if the endpoint closes first, and re-raises
  /// kError replies as exceptions unless `raise_errors` is false. Only
  /// request.seq changes, so a caller may keep one Message and send it
  /// again (the kCall path re-sends its binding's request per attempt).
  Message call(const std::string& to, Message& request,
               bool raise_errors = true);
  Message call(const std::string& to, Message&& request,
               bool raise_errors = true) {
    return call(to, request, raise_errors);
  }

  /// Deadline-enforcing variant: like call(), but gives up once no frame
  /// has arrived for `host_grace_ms` of *host* time — the only way a
  /// dropped request or reply frame is ever noticed. On timeout the seq
  /// is marked abandoned (a late or duplicated reply is discarded instead
  /// of corrupting a later exchange) and util::DeadlineError is thrown.
  Message call_within(const std::string& to, Message& request,
                      int host_grace_ms, bool raise_errors = true);
  Message call_within(const std::string& to, Message&& request,
                      int host_grace_ms, bool raise_errors = true) {
    return call_within(to, request, host_grace_ms, raise_errors);
  }

  Issued issue(const std::string& to, Message& request) override;
  Message await(Issued& call, const AwaitBound& bound) override;
  void abandon(Issued& call) override;
  /// The endpoint's virtual clock.
  util::SimTime now() const override { return endpoint_->clock().now(); }
  void sleep(util::SimTime us) override { endpoint_->clock().advance(us); }

  void reply(const HostRequest& request, const Message& reply,
             bool /*last*/) override {
    send(*static_cast<const std::string*>(request.from.get()), reply);
  }

  /// kPing round trip to `to`. Returns the virtual-time RTT in simulated
  /// microseconds and records it into the rpc.transport.rtt_us histogram,
  /// letting benches split network time from marshal time.
  util::SimTime ping(const std::string& to);

 private:
  /// The stash, then the endpoint: `wait_ms` < 0 blocks, 0 polls, > 0
  /// bounds the wait in host time.
  std::optional<Incoming> next_incoming(int wait_ms);
  Message call_impl(const std::string& to, Message& request, bool raise_errors,
                    int host_grace_ms);
  /// Receive until the reply to `want` arrives (0 grace = no bound),
  /// keeping replies to other seqs in flight and stashing other traffic.
  Message wait_reply(std::uint64_t want, int host_grace_ms);
  /// Drop `seq` from the calls in flight and any reply kept for it.
  void forget(std::uint64_t seq);
  /// True when `msg` is a late/duplicated reply to a seq this endpoint
  /// already finished with (timed out or served) — such frames are
  /// dropped, never stashed.
  bool abandoned_reply(const Message& msg) const;

  sim::Cluster* cluster_;
  sim::EndpointPtr endpoint_;
  std::deque<Incoming> stash_;
  /// Seqs issued and not yet awaited or abandoned, and replies to them
  /// that arrived while another seq was awaited.
  std::vector<std::uint64_t> in_flight_;
  std::vector<Message> held_;
  std::uint64_t seq_ = 0;
  SeqWindow abandoned_;
};

}  // namespace npss::rpc
