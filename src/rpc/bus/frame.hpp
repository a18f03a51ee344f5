// Wire framing for the bus: the same 4-byte big-endian length prefix +
// Schooner Message frame the blocking transport used, but produced and
// consumed incrementally.
//
// Producing: append_frame encodes a Message straight into a connection's
// pending output buffer behind a patched length prefix (no
// encode_message temporary, no prefix copy). Calls and replies both leave
// this way: a call from the client's kept request, whose blob buffer is
// reused from call to call, a reply from the Message the host engine
// built.
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

#include "rpc/bus/bus.hpp"
#include "rpc/message.hpp"
#include "util/bytes.hpp"

namespace npss::rpc::bus {

/// Append a complete length-prefixed frame for `msg`. Throws
/// util::EncodingError if the body exceeds `max_frame_bytes` (the peer
/// would drop the connection anyway); `out` then holds a partial frame,
/// which BusConnection::send_frame rolls back.
void append_frame(util::ByteWriter& out, const Message& msg,
                  std::size_t max_frame_bytes);

/// Incremental decoder for the length-prefixed stream. feed() appends a
/// read chunk; next() yields each complete frame payload (prefix
/// stripped) in arrival order. The returned span points into the
/// decoder's buffer and is valid until the next feed() — decode the
/// Message before feeding again.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame_bytes = kMaxFrameBytes)
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
