// MessageIo — the per-process communication layer linked "with every
// procedure to handle the sending and receiving of messages implicit in
// RPC" (§3.1). It frames Messages onto the virtual fabric, matches replies
// to outstanding requests by sequence number, and stashes unrelated
// traffic (e.g. a shutdown order arriving while a call is outstanding) for
// the owner's main loop.
#pragma once

#include <array>
#include <deque>
#include <memory>
#include <optional>

#include "rpc/message.hpp"
#include "sim/cluster.hpp"

namespace npss::rpc {

struct Incoming {
  /// The sender's address, shared with its endpoint rather than copied
  /// per frame (sim::Envelope::from).
  std::shared_ptr<const std::string> sender;
  Message msg;

  const std::string& from() const { return *sender; }
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

class MessageIo {
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
  std::optional<Incoming> receive();

  /// Non-blocking variant.
  std::optional<Incoming> try_receive();

  /// Bounded-wait variant: blocks at most `host_ms` of *host* time for a
  /// frame (the stash is drained first). Returns nullopt on timeout or
  /// once the endpoint closes — a Manager replica's leader loop uses the
  /// gap to notice missed heartbeats and fire elections.
  std::optional<Incoming> receive_for(int host_ms);

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

  /// kPing round trip to `to`. Returns the virtual-time RTT in simulated
  /// microseconds and records it into the rpc.transport.rtt_us histogram,
  /// letting benches split network time from marshal time.
  util::SimTime ping(const std::string& to);

 private:
  Message call_impl(const std::string& to, Message& request, bool raise_errors,
                    int host_grace_ms);
  /// True when `msg` is a late/duplicated reply to a seq this endpoint
  /// already finished with (timed out or served) — such frames are
  /// dropped, never stashed.
  bool abandoned_reply(const Message& msg) const;

  sim::Cluster* cluster_;
  sim::EndpointPtr endpoint_;
  std::deque<Incoming> stash_;
  std::uint64_t seq_ = 0;
  SeqWindow abandoned_;
};

}  // namespace npss::rpc
