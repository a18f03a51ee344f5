// The bus event loop: one thread, one poll() set, every connection
// nonblocking. Modeled on the classic tcp_dispatcher/tcp_connection
// split of high-throughput RPC buses: the dispatcher owns the sockets
// and reads them; connection users (client channels, the procedure
// host engine) append frames and receive decoded Messages.
//
// Threading contract:
//   * on_frame / on_close / on_accept callbacks run on the loop thread.
//     They must not block; hand heavy work to a worker pool.
//   * BusConnection::send_frame / send_message / shutdown are safe from
//     any thread. Frames appended while a write is in progress coalesce
//     into the next writev.
//   * Reading and closing a socket are loop-only. Writing is done by
//     whichever thread holds the connection's write token: the loop's
//     flush, or a sender that passed SendHint::kWriteThrough and found
//     nothing queued and no writer active. That sender writes its own
//     frame and hands anything left over (a partial write, frames queued
//     behind it, a write error) back to the loop.
//   * After on_close (or stop()), a connection never fires callbacks
//     again; late send_frame calls return false.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "rpc/bus/bus.hpp"
#include "rpc/bus/frame.hpp"
#include "rpc/message.hpp"
#include "util/bytes.hpp"
#include "util/mutex.hpp"
#include "util/status.hpp"
#include "util/thread_annotations.hpp"

namespace npss::rpc::bus {

class BusDispatcher;

/// What a sender knows about the frames behind its own — MSG_MORE
/// inverted. kWriteThrough promises that no other frame is about to
/// follow (a lock-step caller, a host with an empty work queue), so the
/// frame may skip the loop and be written on the sender's thread.
/// Everything else coalesces: one loop writev per batch.
enum class SendHint { kCoalesce, kWriteThrough };

/// One nonblocking socket registered with a dispatcher. Outgoing frames
/// accumulate in a pending buffer (coalescing) that the loop drains with
/// scatter-gather writev; incoming bytes run through a FrameDecoder.
class BusConnection : public std::enable_shared_from_this<BusConnection> {
 public:
  using FrameFn =
      std::function<void(const std::shared_ptr<BusConnection>&, Message&&)>;
  using CloseFn = std::function<void(const std::shared_ptr<BusConnection>&,
                                     const util::Status&)>;

  BusConnection(BusDispatcher* dispatcher, int fd, FrameFn on_frame,
                CloseFn on_close);
  ~BusConnection();
  BusConnection(const BusConnection&) = delete;
  BusConnection& operator=(const BusConnection&) = delete;

  /// Append one complete frame via `framer` (which must write exactly
  /// one length-prefixed frame, e.g. through append_frame) and
  /// schedule a flush. With kWriteThrough, when the frame is the whole
  /// backlog and no thread is writing, it is written right here instead.
  /// Thread-safe. Returns false when the connection is closed — the
  /// frame is not queued. If `framer` throws, the buffer rolls back to
  /// the frame boundary and the exception propagates (a marshal error
  /// must not corrupt the stream).
  bool send_frame(const std::function<void(util::ByteWriter&)>& framer,
                  SendHint hint = SendHint::kCoalesce);

  /// Convenience: frame and queue an encoded Message.
  bool send_message(const Message& msg, SendHint hint = SendHint::kCoalesce);

  /// Request an asynchronous close; on_close fires once on the loop
  /// thread with a kShutdown status.
  void shutdown();

  bool alive() const { return alive_.load(std::memory_order_acquire); }
  int fd() const { return fd_; }
  /// Output bytes queued but not yet written (backpressure signal).
  std::size_t queued_bytes() const {
    return queued_bytes_.load(std::memory_order_relaxed);
  }

 private:
  friend class BusDispatcher;

  /// Move the pending buffer onto segs_ (caller holds the write token).
  void take_pending() SCHOONER_REQUIRES(out_mu_);
  /// Write segs_ until it is empty or the socket would block. Caller
  /// holds the write token. Returns the error of a failed send.
  util::Status write_segs();
  /// Give the write token back; wakes a close_conn waiting for it.
  void release_writer() SCHOONER_REQUIRES(out_mu_);

  BusDispatcher* dispatcher_;
  int fd_;  ///< closed by close_conn only once no writer holds the token
  std::atomic<bool> alive_{true};
  std::atomic<std::size_t> queued_bytes_{0};

  // Writer side: any thread appends under out_mu_. The same lock guards
  // the write token: the one thread allowed to write the socket.
  util::Mutex out_mu_{"bus.BusConnection.out"};
  util::ByteWriter pending_ SCHOONER_GUARDED_BY(out_mu_);
  std::size_t pending_frames_ SCHOONER_GUARDED_BY(out_mu_) = 0;
  /// The write token. Taken and given back only under out_mu_; the loop
  /// also reads it unlocked, to skip polling for output that a sender
  /// is writing right now (the sender wakes the loop for any leftover).
  std::atomic<bool> writing_{false};
  /// A write-through send failed; the loop closes the connection.
  util::Status write_error_ SCHOONER_GUARDED_BY(out_mu_);
  util::CondVar writer_done_;  ///< signalled when a closer awaits the token

  // Owned by the write-token holder, whichever thread that is: it takes
  // the token under out_mu_, then touches these without the lock. The
  // annotations can't express a token, so they are unannotated.
  std::deque<util::Bytes> segs_;  ///< buffers awaiting write
  std::size_t seg_off_ = 0;       ///< consumed prefix of segs_.front()

  // Loop-thread-only state: touched exclusively by the dispatcher's
  // loop thread (read_ready / close_conn), so it needs no lock.
  FrameDecoder decoder_;
  FrameFn on_frame_;
  CloseFn on_close_;
};

/// The event loop. Owns a wake pipe, registered connections, and any
/// listening sockets; runs until stop().
class BusDispatcher {
 public:
  explicit BusDispatcher(std::string name);
  ~BusDispatcher();
  BusDispatcher(const BusDispatcher&) = delete;
  BusDispatcher& operator=(const BusDispatcher&) = delete;

  /// Adopt a connected socket: sets O_NONBLOCK + TCP_NODELAY and
  /// registers it with the loop. Callbacks fire on the loop thread.
  std::shared_ptr<BusConnection> adopt(int fd, BusConnection::FrameFn on_frame,
                                       BusConnection::CloseFn on_close);

  /// Register a listening socket; the loop accepts and hands each new
  /// fd to `on_accept` (loop thread). The dispatcher owns `listen_fd`.
  void listen(int listen_fd, std::function<void(int)> on_accept);

  /// Run `op` on the loop thread (connection registration, closes).
  void post(std::function<void()> op);

  /// Nudge the loop out of poll() (pending output, new control ops).
  void wake();

  /// Self-pipe writes so far: how often a thread had to rouse the loop.
  std::uint64_t wakeups() const {
    return wakeups_.load(std::memory_order_relaxed);
  }

  /// Stop the loop, close every connection (on_close fires with a
  /// kShutdown status) and all listeners. Idempotent.
  void stop();

 private:
  friend class BusConnection;

  void loop(std::string name);
  void flush(const std::shared_ptr<BusConnection>& c);
  void read_ready(const std::shared_ptr<BusConnection>& c);
  void close_conn(const std::shared_ptr<BusConnection>& c,
                  const util::Status& why);
  /// Loop-thread entry for an externally requested shutdown().
  void stop_requested_close(const std::shared_ptr<BusConnection>& c);

  int wake_fds_[2] = {-1, -1};
  std::atomic<bool> wake_pending_{false};
  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<bool> stopping_{false};

  util::Mutex ctl_mu_{"bus.BusDispatcher.ctl"};
  std::vector<std::function<void()>> ctl_ SCHOONER_GUARDED_BY(ctl_mu_);

  // Loop-thread-only (same confinement contract as BusConnection's
  // decoder state: only loop() and its helpers touch these).
  std::vector<std::shared_ptr<BusConnection>> conns_;
  struct Listener {
    int fd;
    std::function<void(int)> on_accept;
  };
  std::vector<Listener> listeners_;
  util::Bytes read_chunk_;

  std::jthread thread_;
};

}  // namespace npss::rpc::bus
