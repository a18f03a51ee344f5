// Simulated processes as stackful fibers under one baton (DESIGN.md §16).
//
// Every process a sim::Cluster spawns is a Fiber: a ucontext on its own
// mmap'ed stack. A cluster's Scheduler lets at most one OS thread run its
// fibers at a time; that thread holds the *baton*. A fiber that has to
// wait (an empty mailbox, a sim sleep) parks, which hands the thread back
// to the loop that resumed it.
//
// A thread that is not one of the scheduler's fibers *drives* when the
// baton is free: after it sends to or spawns a fiber, and while it waits
// on its own mailbox, it runs ready fibers itself. A lock-step call from
// such a thread therefore runs the host's fiber on the caller's own OS
// thread, and the reply is in the caller's mailbox before it waits. Such
// a thread never waits for the baton: if another thread holds it, it
// blocks on its own mailbox instead. One background driver thread per
// scheduler runs what no caller drives: fibers whose wait deadline or
// sleep expired, and ready work a caller left behind once its own wait
// was satisfied.
//
// A switch carries the per-context state that would otherwise be per
// thread: the obs trace context, the lockdep held stack and the C++
// exception globals. The one rule fibers must keep: never block the OS
// thread on work that needs another fiber of the same scheduler (joining
// a thread that calls into the sim, a future fed by one); the baton
// holder would wait for work only it can run.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace npss::sim {

struct Fiber;

class Scheduler {
 public:
  using Clock = std::chrono::steady_clock;
  /// "No deadline" for park().
  static constexpr Clock::time_point kNever = Clock::time_point::max();

  Scheduler();
  /// Stops the background driver. Fibers still parked are freed without
  /// being resumed; Cluster::shutdown() lets them exit first.
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Create a fiber running `body` and make it ready. Called from a thread
  /// that is not one of this scheduler's fibers, this also drives
  /// (drive_woken). `body` must not throw; an exception is logged and
  /// swallowed at the fiber's entry.
  void spawn(std::function<void()> body);

  /// The fiber of this scheduler the calling thread is running, or
  /// nullptr on any other thread or fiber.
  Fiber* current() const;

  /// Park `self` (must be current()) until wake() or `deadline`. May also
  /// return spuriously; callers re-check what they wait for.
  void park(Fiber* self, Clock::time_point deadline);

  /// Make a parked fiber ready; a wake for a fiber still running makes its
  /// next park return at once. Safe from any thread while the caller keeps
  /// `f` alive (a mailbox wakes its waiter under the mailbox lock, which
  /// the waiter must take before it can exit). Returns true when `f` was
  /// queued.
  bool wake(Fiber* f);

  /// From a thread that is not a fiber here: if the baton is free, run the
  /// fibers that are ready now and whatever they make ready in turn, then
  /// hand anything else to the background driver. Bounded, so a caller is
  /// not held hostage by other threads' traffic.
  void drive_woken();

  /// From a thread that is not a fiber here: if the baton is free, run
  /// ready fibers until `done()` holds or none is ready. `done` is called
  /// without the scheduler lock held. Returns false when it ran nothing:
  /// the baton was busy or no fiber was ready.
  bool drive_until(const std::function<bool()>& done);

  /// Block until every fiber has exited, driving while the baton is free.
  /// No-op on one of this scheduler's own fibers (it cannot outwait itself).
  void wait_all_exited();

  /// Fibers spawned and not yet exited.
  std::size_t live() const;

 private:
  /// Run ready fibers under the baton. `budgeted` stops once the fibers
  /// that were ready at the start, plus those they woke, have run.
  bool run(const std::function<bool()>& done, bool budgeted);
  void resume(Fiber* f);
  /// Pop the next fiber to run, first readying any whose deadline passed.
  Fiber* take_next(bool budgeted) SCHOONER_REQUIRES(mu_);
  void expire_timers(Clock::time_point now) SCHOONER_REQUIRES(mu_);
  void driver_main();

  /// Leaf under sim.Mailbox (a mailbox wakes its waiter under its own
  /// lock); never held across a switch (lock_hierarchy.md).
  mutable util::Mutex mu_{"sim.Scheduler"};
  util::CondVar driver_cv_;
  util::CondVar exit_cv_;
  bool baton_ SCHOONER_GUARDED_BY(mu_) = false;
  /// Resumes left to a budgeted run (meaningful while baton_ is held).
  std::size_t budget_ SCHOONER_GUARDED_BY(mu_) = 0;
  std::deque<Fiber*> ready_ SCHOONER_GUARDED_BY(mu_);
  std::multimap<Clock::time_point, Fiber*> timers_ SCHOONER_GUARDED_BY(mu_);
  std::unordered_map<std::uint64_t, std::unique_ptr<Fiber>> fibers_
      SCHOONER_GUARDED_BY(mu_);
  std::uint64_t next_id_ SCHOONER_GUARDED_BY(mu_) = 1;
  /// What the driver thread sleeps until (kNever while it waits for the
  /// baton or has no timer); a release with an earlier timer wakes it.
  Clock::time_point driver_deadline_ SCHOONER_GUARDED_BY(mu_) = kNever;
  int exit_waiters_ SCHOONER_GUARDED_BY(mu_) = 0;
  bool stop_ SCHOONER_GUARDED_BY(mu_) = false;
  std::thread driver_;
};

/// Sleep that does not stall the fabric: on a fiber it parks on a timer
/// (other fibers run meanwhile); on any other thread it is
/// std::this_thread::sleep_for.
void sleep_for(std::chrono::microseconds duration);

}  // namespace npss::sim
