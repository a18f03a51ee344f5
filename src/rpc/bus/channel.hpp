// Client side of the bus: a BusChannel multiplexes many in-flight calls
// over one persistent BusConnection, matching replies to waiters by the
// frame's sequence number. A timed-out caller abandons its seq — the
// connection stays up and keeps serving every other in-flight call; the
// late reply, when it lands, is discarded by seq.
//
// TcpBus is the process-wide connection pool: one event-loop dispatcher
// plus one channel per host:port, shared by every TcpRemoteProc stub, so
// N stubs talking to one host pipeline over a single socket.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>

#include "rpc/bus/dispatcher.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace npss::rpc::bus {

class BusChannel : public std::enable_shared_from_this<BusChannel> {
 public:
  /// Blocking-connect to host:port and register the socket with `d`.
  /// Throws util::CallError when the peer is unreachable.
  static std::shared_ptr<BusChannel> open(BusDispatcher& d,
                                          const std::string& host, int port);

  ~BusChannel();
  BusChannel(const BusChannel&) = delete;
  BusChannel& operator=(const BusChannel&) = delete;

  /// A fresh sequence number, unique in the process: unique within this
  /// channel, and never reused by the channel that replaces it.
  std::uint64_t next_seq() {
    static std::atomic<std::uint64_t> seq{0};
    return seq.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Register a waiter for `seq`, then append the frame via `framer`
  /// (see BusConnection::send_frame); when `seq` is the only waiter the
  /// frame is written through on this thread. The future resolves with the
  /// matching reply, or with util::CallError when the connection dies
  /// first. Throws util::CallError if the channel is already closed, or
  /// if the connection is found dead (the channel is closed first), and
  /// re-throws whatever `framer` throws (waiter unregistered again).
  std::future<Message> send(std::uint64_t seq,
                            const std::function<void(util::ByteWriter&)>& framer);

  /// Give up on `seq` (deadline expired): drop the waiter but keep the
  /// connection — pipelined neighbors are unaffected. Returns false when
  /// the reply already arrived (the future is ready after all).
  bool abandon(std::uint64_t seq);

  /// False once the channel is closed — by the connection's on_close or
  /// by a send that found the connection dead; close_status() is then
  /// non-OK. Lock-free: every TCP call checks it. (The connection's own
  /// alive() flips earlier, before the status is known.)
  bool alive() const { return open_.load(std::memory_order_acquire); }
  /// By value: the status is written by the loop thread's on_close while
  /// callers may be mid-send, so a reference would be a torn read.
  util::Status close_status() const {
    util::MutexLock lock(mu_);
    return close_status_;
  }
  const std::shared_ptr<BusConnection>& connection() const { return conn_; }

 private:
  BusChannel() = default;

  void on_frame(Message&& msg);
  void on_close(const util::Status& why);

  std::shared_ptr<BusConnection> conn_;

  mutable util::Mutex mu_{"bus.BusChannel"};
  std::map<std::uint64_t, std::promise<Message>> waiting_
      SCHOONER_GUARDED_BY(mu_);
  util::Status close_status_ SCHOONER_GUARDED_BY(mu_);
  /// Cleared once, by on_close under mu_ after close_status_ is written;
  /// read without the lock by alive().
  std::atomic<bool> open_{true};
};

/// The process-wide client bus: one dispatcher thread, one shared channel
/// per host:port. channel() reconnects transparently when a pooled
/// channel has died.
class TcpBus {
 public:
  static TcpBus& instance();

  std::shared_ptr<BusChannel> channel(const std::string& host, int port);

  BusDispatcher& dispatcher() { return dispatcher_; }

 private:
  TcpBus() = default;

  // Declared before channels_: members destroy in reverse order, so the
  // pooled channels go first and the dispatcher (whose loop fires their
  // on_close callbacks) outlives them.
  BusDispatcher dispatcher_{"tcp-bus-client"};
  util::Mutex mu_{"bus.TcpBus.pool"};
  std::map<std::string, std::shared_ptr<BusChannel>> channels_
      SCHOONER_GUARDED_BY(mu_);
};

/// Blocking TCP connect (IPv4 dotted quad), TCP_NODELAY set. Throws
/// util::CallError on failure. Used by the channel pool and by
/// bench_throughput's raw-socket floor.
int tcp_connect_fd(const std::string& host, int port);

}  // namespace npss::rpc::bus
