// Wire framing for the bus: the same 4-byte big-endian length prefix +
// Schooner Message frame the blocking transport used, but produced and
// consumed incrementally.
//
// Producing: frames are appended *in place* to a connection's pending
// output buffer — append_reply_frame writes the message fields directly
// and marshals the UTS value batch through a compiled MarshalPlan straight
// into the same buffer, so a small reply reaches the socket with zero
// intermediate copies (no Message::blob, no encode_message temporary, no
// prefix copy). Calls leave through append_frame over the client's kept
// request, whose blob buffer is reused from call to call.
//
// Consuming: FrameDecoder buffers whatever recv() produced and yields
// complete frames — it tolerates partial reads (a frame split across
// arbitrarily many reads) and coalesced back-to-back frames in one read,
// and rejects oversized length prefixes before allocating.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "arch/arch.hpp"
#include "rpc/message.hpp"
#include "util/bytes.hpp"
#include "uts/marshal_plan.hpp"

namespace npss::rpc::bus {

/// Begin a length-prefixed frame: writes a 4-byte placeholder and
/// returns its position for end_frame().
std::size_t begin_frame(util::ByteWriter& out);

/// Patch the length prefix opened at `mark` to cover everything
/// appended since. Throws util::EncodingError if the body exceeds
/// `max_frame_bytes` (the peer would drop the connection anyway).
void end_frame(util::ByteWriter& out, std::size_t mark,
               std::size_t max_frame_bytes);

/// Append a complete frame for an arbitrary Message (control traffic:
/// ping/pong, errors — paths where zero-copy does not matter).
void append_frame(util::ByteWriter& out, const Message& msg,
                  std::size_t max_frame_bytes);

/// Append a kReply frame, marshaling `values` through `plan` (the
/// compiled reply plan) directly into `out`.
void append_reply_frame(util::ByteWriter& out, std::uint64_t seq,
                        const uts::MarshalPlan& plan,
                        const arch::ArchDescriptor& arch,
                        const uts::ValueList& values,
                        const obs::TraceContext& trace,
                        std::size_t max_frame_bytes);

/// Incremental decoder for the length-prefixed stream. feed() appends a
/// read chunk; next() yields each complete frame payload (prefix
/// stripped) in arrival order. The returned span points into the
/// decoder's buffer and is valid until the next feed() — decode the
/// Message before feeding again.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame_bytes = 64u << 20)
      : max_frame_bytes_(max_frame_bytes) {}

  void feed(std::span<const std::uint8_t> data);

  /// The next complete frame, or nullopt when more bytes are needed.
  /// Throws util::EncodingError when a length prefix exceeds the cap —
  /// the connection is unrecoverable at that point.
  std::optional<std::span<const std::uint8_t>> next();

  /// True when bytes of an incomplete frame are buffered (a partial
  /// read: the tail arrives with a later chunk).
  bool partial() const { return buf_.size() > pos_; }
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  util::Bytes buf_;
  std::size_t pos_ = 0;
  std::size_t max_frame_bytes_;
};

}  // namespace npss::rpc::bus
