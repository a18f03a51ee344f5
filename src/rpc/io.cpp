#include "rpc/io.hpp"

#include <algorithm>
#include <chrono>

#include "rpc/metrics.hpp"
#include "util/log.hpp"

namespace npss::rpc {

namespace {

/// Decode one received frame, counting it as transport traffic.
Message decode_counted(std::span<const std::uint8_t> payload) {
  if (obs::enabled()) {
    RpcMetrics& m = rpc_metrics();
    m.frames_received.add();
    m.bytes_received.add(payload.size());
  }
  return decode_message(payload);
}

/// Kinds only ever sent in response to one of *our* requests — their seq
/// lives in this endpoint's numbering space, so the abandoned-seq filter
/// applies. Requests and one-way orders carry the *sender's* seq and must
/// never be filtered.
bool is_reply_kind(MessageKind kind) {
  switch (kind) {
    case MessageKind::kLineAck:
    case MessageKind::kStartAck:
    case MessageKind::kSpawnAck:
    case MessageKind::kExportAck:
    case MessageKind::kLookupAck:
    case MessageKind::kReply:
    case MessageKind::kQuitAck:
    case MessageKind::kMoveAck:
    case MessageKind::kStateReply:
    case MessageKind::kStateAck:
    case MessageKind::kPong:
    case MessageKind::kError:
    case MessageKind::kMetaConfigAck:
    case MessageKind::kMetaLeaderAck:
      return true;
    default:
      return false;
  }
}

}  // namespace

void SeqWindow::mark(std::uint64_t seq) {
  if (seq > newest_) {
    // Slide the window up to `seq`: the slots it enters held seqs that
    // now fall out. A jump wider than the window empties it at once.
    if (seq - newest_ >= kSpan) {
      bits_.fill(0);
    } else {
      for (std::uint64_t s = newest_ + 1; s < seq; ++s) assign(s, false);
    }
    newest_ = seq;
  } else if (newest_ - seq >= kSpan) {
    return;  // already outside the window
  }
  assign(seq, true);
}

bool SeqWindow::contains(std::uint64_t seq) const {
  if (seq == 0 || seq > newest_ || newest_ - seq >= kSpan) return false;
  const std::uint64_t slot = seq % kSpan;
  return (bits_[slot / 64] >> (slot % 64)) & 1;
}

bool MessageIo::abandoned_reply(const Message& msg) const {
  return is_reply_kind(msg.kind) && abandoned_.contains(msg.seq);
}

void MessageIo::send(const std::string& to, const Message& msg) {
  NPSS_LOG_TRACE("rpc.io", address(), " send ", message_kind_name(msg.kind),
                 " seq=", msg.seq, " -> ", to);
  util::Bytes frame = encode_message(msg);
  if (obs::enabled()) {
    RpcMetrics& m = rpc_metrics();
    m.frames_sent.add();
    m.bytes_sent.add(frame.size());
  }
  cluster_->send(*endpoint_, to, std::move(frame));
}

std::optional<Incoming> MessageIo::next_incoming(int wait_ms) {
  while (true) {
    if (!stash_.empty()) {
      Incoming front = std::move(stash_.front());
      stash_.pop_front();
      return front;
    }
    auto env = wait_ms < 0    ? endpoint_->receive()
               : wait_ms == 0 ? endpoint_->try_receive()
                              : endpoint_->receive_for(
                                    std::chrono::milliseconds(wait_ms));
    if (!env) return std::nullopt;
    Message msg = decode_counted(env->payload);
    if (abandoned_reply(msg)) continue;
    return Incoming{std::move(env->from), std::move(msg)};
  }
}

Message MessageIo::call(const std::string& to, Message& request,
                        bool raise_errors) {
  return call_impl(to, request, raise_errors, /*host_grace_ms=*/0);
}

Message MessageIo::call_within(const std::string& to, Message& request,
                               int host_grace_ms, bool raise_errors) {
  return call_impl(to, request, raise_errors, std::max(host_grace_ms, 1));
}

Message MessageIo::call_impl(const std::string& to, Message& request,
                             bool raise_errors, int host_grace_ms) {
  request.seq = next_seq();
  send(to, request);
  Message reply = wait_reply(request.seq, host_grace_ms);
  if (raise_errors) reply.raise_if_error();
  return reply;
}

Issued MessageIo::issue(const std::string& to, Message& request) {
  request.seq = next_seq();
  send(to, request);
  in_flight_.push_back(request.seq);
  return Issued{.seq = request.seq};
}

Message MessageIo::await(Issued& call, const AwaitBound& bound) {
  try {
    return wait_reply(call.seq, bound.host_grace_ms);
  } catch (const util::DeadlineError&) {
    // The caller sat out the attempt's share of the deadline: bill it, so
    // elapsed virtual time stays deterministic whatever the host did.
    sleep(bound.budget_us);
    throw;
  }
}

void MessageIo::abandon(Issued& call) {
  abandoned_.mark(call.seq);
  forget(call.seq);
}

void MessageIo::forget(std::uint64_t seq) {
  std::erase(in_flight_, seq);
  std::erase_if(held_, [seq](const Message& m) { return m.seq == seq; });
}

Message MessageIo::wait_reply(std::uint64_t want, int host_grace_ms) {
  // Replies echo the request seq; marking the finished seq abandoned
  // also drops a *duplicated* reply frame (fault injection) on arrival.
  for (Message& kept : held_) {
    if (kept.seq != want) continue;
    Message reply = std::move(kept);
    abandoned_.mark(want);
    forget(want);
    return reply;
  }
  while (true) {
    auto env = host_grace_ms > 0
                   ? endpoint_->receive_for(
                         std::chrono::milliseconds(host_grace_ms))
                   : endpoint_->receive();
    if (!env) {
      forget(want);
      if (host_grace_ms > 0 && !endpoint_->closed()) {
        // Nothing arrived inside the grace window: the request or its
        // reply was lost (or the peer died mid-call). Abandon the seq so
        // a straggler reply cannot be mistaken for later traffic.
        abandoned_.mark(want);
        throw util::DeadlineError("no reply for seq " + std::to_string(want) +
                                  " within " + std::to_string(host_grace_ms) +
                                  "ms host grace");
      }
      throw util::ShutdownError("endpoint " + address() +
                                " closed while awaiting reply");
    }
    Message msg = decode_counted(env->payload);
    if (abandoned_reply(msg)) {
      NPSS_LOG_TRACE("rpc.io", address(), " discard late ",
                     message_kind_name(msg.kind), " seq=", msg.seq);
      continue;
    }
    // Only reply kinds answer our seqs: a peer's request that happens to
    // carry the same seq is traffic for the owner's main loop.
    if (is_reply_kind(msg.kind)) {
      if (msg.seq == want) {
        abandoned_.mark(want);
        forget(want);
        return msg;
      }
      if (std::find(in_flight_.begin(), in_flight_.end(), msg.seq) !=
          in_flight_.end()) {
        held_.push_back(std::move(msg));
        continue;
      }
    }
    NPSS_LOG_TRACE("rpc.io", address(), " stash ",
                   message_kind_name(msg.kind), " seq=", msg.seq, " from ",
                   *env->from);
    stash_.push_back(Incoming{std::move(env->from), std::move(msg)});
  }
}

util::SimTime MessageIo::ping(const std::string& to) {
  const util::SimTime before = endpoint_->clock().now();
  Message msg;
  msg.kind = MessageKind::kPing;
  call(to, std::move(msg));
  const util::SimTime rtt = endpoint_->clock().now() - before;
  if (obs::enabled()) rpc_metrics().rtt_us.record(static_cast<double>(rtt));
  return rtt;
}

}  // namespace npss::rpc
