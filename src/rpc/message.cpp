#include "rpc/message.hpp"

namespace npss::rpc {

using util::ByteReader;
using util::ByteWriter;

std::string_view message_kind_name(MessageKind kind) {
  switch (kind) {
    case MessageKind::kRegisterLine: return "register-line";
    case MessageKind::kLineAck: return "line-ack";
    case MessageKind::kStartRequest: return "start-request";
    case MessageKind::kStartAck: return "start-ack";
    case MessageKind::kSpawn: return "spawn";
    case MessageKind::kSpawnAck: return "spawn-ack";
    case MessageKind::kExport: return "export";
    case MessageKind::kExportAck: return "export-ack";
    case MessageKind::kLookup: return "lookup";
    case MessageKind::kLookupAck: return "lookup-ack";
    case MessageKind::kCall: return "call";
    case MessageKind::kReply: return "reply";
    case MessageKind::kQuit: return "quit";
    case MessageKind::kQuitAck: return "quit-ack";
    case MessageKind::kMove: return "move";
    case MessageKind::kMoveAck: return "move-ack";
    case MessageKind::kStateRequest: return "state-request";
    case MessageKind::kStateReply: return "state-reply";
    case MessageKind::kStateInstall: return "state-install";
    case MessageKind::kStateAck: return "state-ack";
    case MessageKind::kShutdownProc: return "shutdown-proc";
    case MessageKind::kPing: return "ping";
    case MessageKind::kPong: return "pong";
    case MessageKind::kManagerStop: return "manager-stop";
    case MessageKind::kError: return "error";
    case MessageKind::kMetaConfig: return "meta-config";
    case MessageKind::kMetaConfigAck: return "meta-config-ack";
    case MessageKind::kMetaWhoIsLeader: return "meta-who-is-leader";
    case MessageKind::kMetaLeaderAck: return "meta-leader-ack";
    case MessageKind::kMetaProtocol: return "meta-protocol";
  }
  return "?";
}

Message Message::error_reply(const Message& request, util::ErrorCode code,
                             const std::string& text) {
  Message out;
  out.kind = MessageKind::kError;
  out.seq = request.seq;
  out.line = request.line;
  out.n = static_cast<std::int64_t>(code);
  out.a = text;
  return out;
}

Message Message::error_reply(const Message& request, const util::Error& e) {
  const util::Status status = util::Status::from(e);
  return error_reply(request, status.code(), status.message());
}

void Message::raise_if_error() const {
  if (!is_error()) return;
  util::raise_error(static_cast<util::ErrorCode>(n), a);
}

namespace {

/// The exact length encode_message_into writes for `msg`: kind, seq,
/// line, three length-prefixed strings, n, the blob, the table and the
/// optional trace extension, field for field.
std::size_t encoded_size(const Message& msg) {
  std::size_t size = 1 + 8 + 8 + (4 + msg.a.size()) + (4 + msg.b.size()) +
                     (4 + msg.c.size()) + 8 + (4 + msg.blob.size()) + 4;
  for (const auto& [key, value] : msg.table) {
    size += 4 + key.size() + 4 + value.size();
  }
  if (msg.trace.active()) size += 1 + 3 * 8;
  return size;
}

}  // namespace

util::Bytes encode_message(const Message& msg) {
  ByteWriter out;
  out.reserve(encoded_size(msg));
  encode_message_into(out, msg);
  return std::move(out).take();
}

void encode_message_into(ByteWriter& out, const Message& msg) {
  out.u8(static_cast<std::uint8_t>(msg.kind));
  out.u64(msg.seq);
  out.i64(msg.line);
  out.str(msg.a);
  out.str(msg.b);
  out.str(msg.c);
  out.i64(msg.n);
  out.blob(msg.blob);
  out.u32(static_cast<std::uint32_t>(msg.table.size()));
  for (const auto& [key, value] : msg.table) {
    out.str(key);
    out.str(value);
  }
  if (msg.trace.active()) {
    // Trailing extension: peers that predate it never see it (an
    // untraced frame is byte-identical to the old format), and our
    // decoder accepts frames without it.
    out.u8(kTraceExtensionMarker);
    out.u64(msg.trace.trace_id);
    out.u64(msg.trace.span_id);
    out.u64(msg.trace.parent_span_id);
  }
}

Message decode_message(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  Message msg;
  msg.kind = static_cast<MessageKind>(in.u8());
  msg.seq = in.u64();
  msg.line = in.i64();
  msg.a = in.str();
  msg.b = in.str();
  msg.c = in.str();
  msg.n = in.i64();
  msg.blob = in.blob();
  const std::uint32_t rows = in.u32();
  // Never trust a wire-supplied count for allocation: a corrupted frame
  // could demand gigabytes before the element reads detect underflow.
  // Each row needs at least 8 bytes (two length prefixes).
  if (static_cast<std::size_t>(rows) * 8 > in.remaining()) {
    throw util::EncodingError("table row count " + std::to_string(rows) +
                              " exceeds frame size");
  }
  msg.table.reserve(rows);
  for (std::uint32_t i = 0; i < rows; ++i) {
    std::string key = in.str();
    std::string value = in.str();
    msg.table.emplace_back(std::move(key), std::move(value));
  }
  if (!in.exhausted()) {
    // Optional trace extension (absent on frames from pre-trace peers).
    const std::uint8_t marker = in.u8();
    if (marker != kTraceExtensionMarker) {
      throw util::EncodingError("unknown frame extension marker " +
                                std::to_string(marker));
    }
    msg.trace.trace_id = in.u64();
    msg.trace.span_id = in.u64();
    msg.trace.parent_span_id = in.u64();
  }
  if (!in.exhausted()) {
    throw util::EncodingError("trailing bytes in message frame");
  }
  return msg;
}

}  // namespace npss::rpc
