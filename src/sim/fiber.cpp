#include "sim/fiber.hpp"

#include <cxxabi.h>
#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdlib>
#include <exception>
#include <new>

#include "obs/trace.hpp"
#include "util/lockdep.hpp"
#include "util/log.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define NPSS_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NPSS_FIBER_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define NPSS_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define NPSS_FIBER_TSAN 1
#endif
#endif

#if defined(NPSS_FIBER_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(NPSS_FIBER_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

namespace npss::sim {

namespace {

// Usable stack per fiber. The mapping is MAP_NORESERVE, so only the pages
// a fiber touches become resident; sanitizers inflate frames, so their
// builds get more address space.
#if defined(NPSS_FIBER_ASAN) || defined(NPSS_FIBER_TSAN)
constexpr std::size_t kStackBytes = std::size_t{4} << 20;
#else
constexpr std::size_t kStackBytes = std::size_t{1} << 20;
#endif

// libsupc++'s per-thread exception state (unwind-cxx.h): the stack of
// caught exceptions a `throw;` rethrows, and std::uncaught_exceptions().
// A fiber that parks inside a catch block must get its own back.
struct EhGlobals {
  void* caught = nullptr;
  unsigned int uncaught = 0;
};

EhGlobals* eh_globals() {
  return reinterpret_cast<EhGlobals*>(abi::__cxa_get_globals());
}

// The fiber the calling thread is running (of any scheduler). Read by
// the switching code only on the driver side of a switch, whose OS thread
// does not change across it; a fiber may resume on another thread.
thread_local Fiber* t_fiber = nullptr;

}  // namespace

struct Fiber {
  enum class State { kReady, kRunning, kParked };

  Fiber(Scheduler* owner, std::function<void()> fn);
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Fiber side of a switch: back to the loop that resumed it.
  void switch_out();

  Scheduler* sched;
  std::uint64_t id = 0;
  std::function<void()> body;
  // Guarded by sched->mu_.
  State state = State::kReady;
  bool wake_pending = false;
  bool timed = false;
  std::multimap<Scheduler::Clock::time_point, Fiber*>::iterator timer;
  // Touched only by the fiber and the thread resuming it.
  bool exited = false;
  ucontext_t ctx{};
  ucontext_t* return_to = nullptr;
  void* map = nullptr;
  std::size_t map_bytes = 0;
  char* stack = nullptr;
  // Per-fiber copies of per-thread state, swapped in on every resume.
  obs::TraceContext trace;
  util::lockdep::Context* held = nullptr;
  EhGlobals eh;
#if defined(NPSS_FIBER_ASAN)
  void* asan_fake = nullptr;
  const void* from_bottom = nullptr;
  std::size_t from_size = 0;
#endif
#if defined(NPSS_FIBER_TSAN)
  void* tsan_fiber = nullptr;
  void* tsan_from = nullptr;
#endif
};

void fiber_entry(unsigned lo, unsigned hi);

Fiber::Fiber(Scheduler* owner, std::function<void()> fn)
    : sched(owner), body(std::move(fn)) {
  const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  map_bytes = kStackBytes + page;
  map = mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  if (map == MAP_FAILED) throw std::bad_alloc();
  // Guard page at the low end: the stack grows down into it on overflow.
  if (mprotect(map, page, PROT_NONE) != 0) {
    munmap(map, map_bytes);
    throw std::bad_alloc();
  }
  stack = static_cast<char*>(map) + page;
  held = util::lockdep::context_create();
  getcontext(&ctx);
  ctx.uc_stack.ss_sp = stack;
  ctx.uc_stack.ss_size = kStackBytes;
  ctx.uc_link = nullptr;
  const auto bits = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&ctx, reinterpret_cast<void (*)()>(&fiber_entry), 2,
              static_cast<unsigned>(bits & 0xffffffffu),
              static_cast<unsigned>(bits >> 32));
#if defined(NPSS_FIBER_TSAN)
  tsan_fiber = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
#if defined(NPSS_FIBER_TSAN)
  __tsan_destroy_fiber(tsan_fiber);
#endif
#if defined(NPSS_FIBER_ASAN)
  // Stale redzone poison would fire on whatever reuses these pages.
  __asan_unpoison_memory_region(stack, kStackBytes);
#endif
  util::lockdep::context_destroy(held);
  munmap(map, map_bytes);
}

void Fiber::switch_out() {
#if defined(NPSS_FIBER_ASAN)
  __sanitizer_start_switch_fiber(&asan_fake, from_bottom, from_size);
#endif
#if defined(NPSS_FIBER_TSAN)
  __tsan_switch_to_fiber(tsan_from, 0);
#endif
  swapcontext(&ctx, return_to);
  // Possibly on another OS thread from here on.
#if defined(NPSS_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(asan_fake, &from_bottom, &from_size);
#endif
}

void fiber_entry(unsigned lo, unsigned hi) {
  auto* f = reinterpret_cast<Fiber*>(static_cast<std::uintptr_t>(lo) |
                                     (static_cast<std::uintptr_t>(hi) << 32));
#if defined(NPSS_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(nullptr, &f->from_bottom, &f->from_size);
#endif
  try {
    std::function<void()> body = std::move(f->body);
    body();
  } catch (const std::exception& e) {
    NPSS_LOG_ERROR("sim", "fiber ", f->id, " died with exception: ",
                   e.what());
  } catch (...) {
    NPSS_LOG_ERROR("sim", "fiber ", f->id, " died with an exception");
  }
  f->exited = true;
#if defined(NPSS_FIBER_ASAN)
  __sanitizer_start_switch_fiber(nullptr, f->from_bottom, f->from_size);
#endif
#if defined(NPSS_FIBER_TSAN)
  __tsan_switch_to_fiber(f->tsan_from, 0);
#endif
  setcontext(f->return_to);
  std::abort();  // setcontext does not return
}

// --- Scheduler ---------------------------------------------------------------

Scheduler::Scheduler() : driver_([this] { driver_main(); }) {}

Scheduler::~Scheduler() {
  {
    util::MutexLock lock(mu_);
    stop_ = true;
  }
  driver_cv_.notify_all();
  driver_.join();
}

Fiber* Scheduler::current() const {
  Fiber* f = t_fiber;
  return f && f->sched == this ? f : nullptr;
}

void Scheduler::spawn(std::function<void()> body) {
  auto fiber = std::make_unique<Fiber>(this, std::move(body));
  const bool on_fiber = current() != nullptr;
  {
    util::MutexLock lock(mu_);
    Fiber* f = fiber.get();
    f->id = next_id_++;
    fibers_.emplace(f->id, std::move(fiber));
    ready_.push_back(f);
    if (on_fiber) ++budget_;
  }
  if (!on_fiber) drive_woken();
}

void Scheduler::park(Fiber* self, Clock::time_point deadline) {
  util::lockdep::on_block("sim fiber parks");
  {
    util::MutexLock lock(mu_);
    if (self->wake_pending) {
      self->wake_pending = false;
      return;
    }
    self->state = Fiber::State::kParked;
    if (deadline != kNever) {
      self->timer = timers_.emplace(deadline, self);
      self->timed = true;
    }
  }
  self->switch_out();
}

bool Scheduler::wake(Fiber* f) {
  const bool from_fiber = current() != nullptr;
  util::MutexLock lock(mu_);
  switch (f->state) {
    case Fiber::State::kParked:
      if (f->timed) {
        timers_.erase(f->timer);
        f->timed = false;
      }
      f->state = Fiber::State::kReady;
      ready_.push_back(f);
      // Work woken by a fiber of the running batch belongs to that batch.
      if (from_fiber) ++budget_;
      return true;
    case Fiber::State::kRunning:
      f->wake_pending = true;
      return false;
    case Fiber::State::kReady:
      return false;
  }
  return false;
}

void Scheduler::drive_woken() { run({}, /*budgeted=*/true); }

bool Scheduler::drive_until(const std::function<bool()>& done) {
  return run(done, /*budgeted=*/false);
}

void Scheduler::expire_timers(Clock::time_point now) {
  while (!timers_.empty() && timers_.begin()->first <= now) {
    Fiber* f = timers_.begin()->second;
    timers_.erase(timers_.begin());
    f->timed = false;
    f->state = Fiber::State::kReady;
    ready_.push_back(f);
  }
}

Fiber* Scheduler::take_next(bool budgeted) {
  if (budgeted && budget_ == 0) return nullptr;
  if (!timers_.empty()) expire_timers(Clock::now());
  if (ready_.empty()) return nullptr;
  Fiber* f = ready_.front();
  ready_.pop_front();
  f->state = Fiber::State::kRunning;
  if (budgeted) --budget_;
  return f;
}

bool Scheduler::run(const std::function<bool()>& done, bool budgeted) {
  Fiber* f = nullptr;
  bool wake_driver = false;
  bool wake_exit = false;
  {
    util::MutexLock lock(mu_);
    if (baton_) return false;
    baton_ = true;
    budget_ = ready_.size();
    f = take_next(budgeted);
    if (!f) baton_ = false;
  }
  const bool ran = f != nullptr;
  while (f) {
    resume(f);
    const bool satisfied = done && done();
    std::unique_ptr<Fiber> dead;  // unmapped after the lock drops
    util::MutexLock lock(mu_);
    if (f->exited) {
      auto it = fibers_.find(f->id);
      dead = std::move(it->second);
      fibers_.erase(it);
    }
    f = satisfied ? nullptr : take_next(budgeted);
    if (!f) {
      baton_ = false;
      wake_driver = !ready_.empty() ||
                    (!timers_.empty() && timers_.begin()->first <
                                             driver_deadline_);
      wake_exit = exit_waiters_ > 0;
    }
  }
  if (wake_driver) driver_cv_.notify_one();
  if (wake_exit) exit_cv_.notify_all();
  return ran;
}

void Scheduler::resume(Fiber* f) {
  Fiber* outer = t_fiber;
  t_fiber = f;
  const obs::TraceContext trace = obs::exchange_current_trace(f->trace);
  util::lockdep::Context* held = util::lockdep::context_switch(f->held);
  EhGlobals* eh = eh_globals();
  const EhGlobals thread_eh = *eh;
  *eh = f->eh;
  ucontext_t here;
  f->return_to = &here;
#if defined(NPSS_FIBER_ASAN)
  void* fake = nullptr;
  __sanitizer_start_switch_fiber(&fake, f->stack, kStackBytes);
#endif
#if defined(NPSS_FIBER_TSAN)
  f->tsan_from = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(f->tsan_fiber, 0);
#endif
  swapcontext(&here, &f->ctx);
#if defined(NPSS_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
  f->eh = *eh;
  *eh = thread_eh;
  util::lockdep::context_switch(held);
  f->trace = obs::exchange_current_trace(trace);
  t_fiber = outer;
}

void Scheduler::wait_all_exited() {
  if (current()) return;
  while (true) {
    {
      util::MutexLock lock(mu_);
      if (fibers_.empty()) return;
      if (baton_ || ready_.empty()) {
        // The holder, or the driver once a timer fires, runs them; every
        // release wakes this wait.
        ++exit_waiters_;
        exit_cv_.wait(lock);
        --exit_waiters_;
        continue;
      }
    }
    run(
        [this] {
          util::MutexLock lock(mu_);
          return fibers_.empty();
        },
        /*budgeted=*/false);
  }
}

std::size_t Scheduler::live() const {
  util::MutexLock lock(mu_);
  return fibers_.size();
}

void Scheduler::driver_main() {
  while (true) {
    {
      util::MutexLock lock(mu_);
      while (true) {
        if (stop_) return;
        if (!baton_) {
          if (!timers_.empty()) expire_timers(Clock::now());
          if (!ready_.empty()) break;
        }
        driver_deadline_ =
            baton_ || timers_.empty() ? kNever : timers_.begin()->first;
        if (driver_deadline_ == kNever) {
          driver_cv_.wait(lock);
        } else {
          driver_cv_.wait_until(lock, driver_deadline_);
        }
        driver_deadline_ = kNever;
      }
    }
    run({}, /*budgeted=*/false);
  }
}

void sleep_for(std::chrono::microseconds duration) {
  Fiber* f = t_fiber;
  if (!f) {
    std::this_thread::sleep_for(duration);
    return;
  }
  const auto deadline = Scheduler::Clock::now() + duration;
  while (Scheduler::Clock::now() < deadline) f->sched->park(f, deadline);
}

}  // namespace npss::sim
