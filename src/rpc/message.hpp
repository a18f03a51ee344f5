// The Schooner wire protocol.
//
// All Manager/Server/procedure traffic is carried by one self-describing
// message frame, byte-encoded (big-endian) onto the virtual fabric. Field
// usage per kind:
//
//   kRegisterLine   a=requester description            -> kLineAck line=id,
//                                                         n=per-line call
//                                                           quota (0 = none);
//                                                      or kError
//                                                         n=kLineRejected
//                                                         (admission gate)
//   kStartRequest   line, a=machine, b=path,
//                   n bit0 = shared procedure          -> kStartAck a=addr
//   kSpawn          a=path, b=label, table=argv        -> kSpawnAck a=addr
//   kExport         line, a=origin path,
//                   table=(proc name, signature text),
//                   n bit0 = shared                    -> kExportAck
//   kLookup         line, a=proc name,
//                   b=import signature text            -> kLookupAck a=addr,
//                                                         b=resolved name,
//                                                         c=export sig text
//   kCall           a=proc name,
//                   b=import signature text, blob=args -> kReply blob=results
//   kQuit           line                               -> kQuitAck
//   kMove           line, a=proc name, b=target
//                   machine, c=path,
//                   n bit0 = transfer state            -> kMoveAck a=new addr
//   kStateRequest                                      -> kStateReply blob
//   kStateInstall   blob                               -> kStateAck
//   kShutdownProc   a=reason (one-way)
//   kPing                                              -> kPong
//   kManagerStop                                       -> (manager exits)
//   kError          n=ErrorCode, a=message (any reply position)
//
// The Manager's replicas add their own kinds behind these (documented on
// the enum): the membership handshake, leader discovery, and
// kMetaProtocol, which carries one replica-protocol message as its blob
// in meta::encode_msg's image (src/meta/core.hpp).
//
// Frames may carry a trailing *trace extension* (marker byte + three
// trace ids) so a client-side span and the procedure-side span of one
// call share a trace id. Frames without the extension decode exactly as
// before — peers built before the observability layer interoperate.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "util/bytes.hpp"
#include "util/status.hpp"

namespace npss::rpc {

enum class MessageKind : std::uint8_t {
  kRegisterLine = 1,
  kLineAck,
  kStartRequest,
  kStartAck,
  kSpawn,
  kSpawnAck,
  kExport,
  kExportAck,
  kLookup,
  kLookupAck,
  kCall,
  kReply,
  kQuit,
  kQuitAck,
  kMove,
  kMoveAck,
  kStateRequest,
  kStateReply,
  kStateInstall,
  kStateAck,
  kShutdownProc,
  kPing,
  kPong,
  kManagerStop,
  kError,
  // --- Replicated control plane (src/meta/), appended so frames from
  // pre-replication peers decode unchanged -------------------------------
  kMetaConfig,       ///< table=(index, replica address), n=receiver's
                     ///< index -> kMetaConfigAck
  kMetaConfigAck,
  kMetaWhoIsLeader,  ///< leader discovery -> kMetaLeaderAck
  kMetaLeaderAck,    ///< a=leader address ("" = election in progress),
                     ///< n=term, b=state digest, c=last applied index
  kMetaProtocol,     ///< blob=meta::encode_msg frame, replica to replica
                     ///< (one-way); the sender is named by its address
};

std::string_view message_kind_name(MessageKind kind);

using LineId = std::int64_t;
constexpr LineId kNoLine = -1;

/// Marker byte introducing the optional trace extension after the table.
constexpr std::uint8_t kTraceExtensionMarker = 0x54;  // 'T'

struct Message {
  MessageKind kind = MessageKind::kError;
  std::uint64_t seq = 0;
  LineId line = kNoLine;
  std::string a, b, c;
  std::int64_t n = 0;
  util::Bytes blob;
  std::vector<std::pair<std::string, std::string>> table;
  /// Distributed-trace context; encoded on the wire only when active.
  obs::TraceContext trace;

  /// Construct the standard error reply for a request.
  static Message error_reply(const Message& request, util::ErrorCode code,
                             const std::string& text);
  /// Relay a caught Error: its code, and its message without the
  /// "<code-name>: " prefix what() embeds (the receiver re-adds it).
  static Message error_reply(const Message& request, const util::Error& e);

  bool is_error() const { return kind == MessageKind::kError; }

  /// If this is an error message, throw it as the corresponding exception.
  void raise_if_error() const;
};

/// The frame of `msg`, in a buffer sized once to its exact length.
util::Bytes encode_message(const Message& msg);
/// Append the encoding of `msg` to `out` (no intermediate buffer); the
/// bytes appended are identical to encode_message(msg).
void encode_message_into(util::ByteWriter& out, const Message& msg);
Message decode_message(std::span<const std::uint8_t> bytes);

}  // namespace npss::rpc
