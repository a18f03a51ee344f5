// A closable MPMC blocking queue that is *fair across keys*: items are
// FIFO within a key, and pop() drains keys round-robin. Procedure-host
// worker pools key work by line id, so one line flooding the host (a
// retry storm, a deadline stampede) can delay its own queued calls but
// advances the round-robin cursor past it once per turn — neighbors keep
// their service rate. Close semantics match a sim::Endpoint mailbox:
// close() wakes every waiter, pushes after close are dropped, pops drain
// the remaining items (still round-robin) and then return nullopt.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <utility>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace npss::util {

template <typename T>
class FairQueue {
 public:
  FairQueue() = default;
  FairQueue(const FairQueue&) = delete;
  FairQueue& operator=(const FairQueue&) = delete;

  /// Enqueue an item under `key` (FIFO within the key). Returns false
  /// (dropping the item) if closed.
  bool push(std::int64_t key, T item) {
    {
      MutexLock lock(mu_);
      if (closed_) return false;
      auto [it, fresh] = lanes_.try_emplace(key);
      it->second.push_back(std::move(item));
      if (fresh || it->second.size() == 1) enlist(key);
      ++size_;
    }
    cv_.notify_one();
    return true;
  }

  /// Block until an item is available or the queue is closed and drained.
  /// Pops rotate across keys: each call serves the next non-empty lane.
  std::optional<T> pop() {
    MutexLock lock(mu_);
    while (!closed_ && size_ == 0) cv_.wait(lock);
    return take();
  }

  /// Like pop(), bounded by `timeout`. nullopt means closed-and-drained
  /// or timed out; callers that need to tell them apart check closed().
  std::optional<T> pop_for(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    MutexLock lock(mu_);
    while (!closed_ && size_ == 0) {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
    }
    return take();
  }

  /// Wake all waiters; subsequent pushes are dropped, pops drain then stop.
  void close() {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    MutexLock lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    MutexLock lock(mu_);
    return size_;
  }

  /// Keys currently holding queued items (diagnostic).
  std::size_t active_keys() const {
    MutexLock lock(mu_);
    return rr_.size();
  }

 private:
  // Append `key` to the round-robin ring. Precondition: its lane just
  // became non-empty (a lane is enlisted at most once).
  void enlist(std::int64_t key) SCHOONER_REQUIRES(mu_) { rr_.push_back(key); }

  std::optional<T> take() SCHOONER_REQUIRES(mu_) {
    if (size_ == 0) return std::nullopt;
    // Serve the lane at the cursor; skip (and drop) entries whose lane
    // emptied — lanes are only ever enlisted while non-empty, so each
    // ring entry matches at least the pushes since its enlisting.
    while (true) {
      std::int64_t key = rr_.front();
      rr_.pop_front();
      auto it = lanes_.find(key);
      if (it == lanes_.end() || it->second.empty()) continue;
      T item = std::move(it->second.front());
      it->second.pop_front();
      --size_;
      if (it->second.empty()) {
        lanes_.erase(it);  // keep the map bounded by *active* lines
      } else {
        rr_.push_back(key);  // more queued: back of the ring
      }
      return item;
    }
  }

  mutable Mutex mu_{"util.FairQueue"};
  CondVar cv_;
  std::map<std::int64_t, std::deque<T>> lanes_ SCHOONER_GUARDED_BY(mu_);
  std::deque<std::int64_t> rr_ SCHOONER_GUARDED_BY(
      mu_);  ///< keys with queued items, service order
  std::size_t size_ SCHOONER_GUARDED_BY(mu_) = 0;
  bool closed_ SCHOONER_GUARDED_BY(mu_) = false;
};

}  // namespace npss::util
