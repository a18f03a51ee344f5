// The connection-multiplexed RPC bus — constants and counters shared by the
// dispatcher, the framing layer, and both transport ends.
//
// The original real-socket transport was lock-step: one blocking
// connection per client, one thread per connection on the host, one
// outstanding call per connection turn. The bus replaces that data plane
// with a poll() event loop owning nonblocking sockets, persistent
// connections carrying many sequence-tagged in-flight calls, coalesced
// scatter-gather writes, and an incremental frame decoder — see
// DESIGN.md §14 for the architecture and the pipelining model.
#pragma once

#include <cstddef>

namespace npss::obs {
class Counter;
class Gauge;
}  // namespace npss::obs

namespace npss::rpc::bus {

/// Bytes pulled per recv() in the read loop; frames coalesced by the
/// peer arrive together in one chunk.
inline constexpr std::size_t kReadChunkBytes = 64 * 1024;
/// Frames whose length prefix exceeds this are a protocol violation: the
/// connection is dropped before any allocation happens.
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;
/// Backpressure: once a connection's unsent output exceeds this, the
/// dispatcher stops reading new requests from it until the peer drains —
/// slow consumers stall themselves, not the process.
inline constexpr std::size_t kBackpressureBytes = 4u << 20;

/// Cached handles for the bus-level counters (registry lookups are
/// mutex-guarded; the hot path must be an atomic add):
///   rpc.bus.bytes_sent       bytes actually written to sockets
///   rpc.bus.frames_coalesced frames that shared a flush with a
///                            predecessor (syscalls saved)
///   rpc.bus.frames_written_through frames a sender wrote on its own
///                            thread because nothing was queued behind
///                            them (no loop wake-up, no self-pipe)
///   rpc.bus.inflight_calls   gauge: calls currently awaiting a reply
///   rpc.bus.partial_reads    read batches that ended mid-frame (the
///                            incremental decoder carried state over)
///   rpc.bus.abandoned_replies late replies discarded by seq after the
///                            caller gave up on the call
struct BusMetrics {
  obs::Counter& bytes_sent;
  obs::Counter& frames_coalesced;
  obs::Counter& frames_written_through;
  obs::Gauge& inflight_calls;
  obs::Counter& partial_reads;
  obs::Counter& abandoned_replies;
};

BusMetrics& bus_metrics();

}  // namespace npss::rpc::bus
