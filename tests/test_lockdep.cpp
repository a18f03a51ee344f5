// Lockdep (util::lockdep, DESIGN.md §16): the runtime lock-order
// checker must record ordering edges as they are observed and report an
// A->B / B->A inversion *deterministically at acquisition time* — with
// both conflicting chains — whether the two orderings come from one
// thread or two. The engine itself compiles in every build, so most of
// this suite drives it through the public hook API; the last test
// exercises the real util::Mutex integration, which only exists when
// SCHOONER_LOCKDEP is on (Debug / sanitizer builds).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "util/lockdep.hpp"
#include "util/mutex.hpp"

#if defined(__SANITIZE_THREAD__)
#define NPSS_LOCKDEP_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define NPSS_LOCKDEP_TEST_TSAN 1
#endif
#endif

#if defined(NPSS_LOCKDEP_TEST_TSAN)
// MutexIntegrationCatchesSeededInversion locks A->B, then B->A on purpose.
// TSan's own lock-order detector reports that inversion too, and under
// halt_on_error=1 its report ends the run. Lockdep's report is this
// suite's oracle, so TSan's deadlock detector is off in this binary only;
// TSAN_OPTIONS from the environment still applies on top.
extern "C" const char* __tsan_default_options() {
  return "detect_deadlocks=0";
}
#endif

namespace npss::util {
namespace {

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

bool any_line_contains(const std::vector<std::string>& lines,
                       const std::string& needle) {
  for (const std::string& line : lines) {
    if (contains(line, needle)) return true;
  }
  return false;
}

// Every case starts from an empty graph and captures reports instead of
// aborting; the default handler is restored afterwards so ordinary
// suites running in the same binary keep the abort-on-inversion
// behavior.
class LockdepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lockdep::reset();
    lockdep::set_handler(
        [this](const lockdep::Report& r) { reports_.push_back(r); });
  }
  void TearDown() override {
    lockdep::set_handler(nullptr);
    lockdep::reset();
  }

  std::vector<lockdep::Report> reports_;
};

TEST_F(LockdepTest, InternsClassesByNameAndKeepsPointersStable) {
  const auto* a = lockdep::lock_class("lockdep-test.intern.A");
  const auto* b = lockdep::lock_class("lockdep-test.intern.B");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, lockdep::lock_class("lockdep-test.intern.A"));
  EXPECT_EQ(lockdep::class_name(a), "lockdep-test.intern.A");
  // reset() drops edges but interned classes survive.
  lockdep::reset();
  EXPECT_EQ(a, lockdep::lock_class("lockdep-test.intern.A"));
}

TEST_F(LockdepTest, RecordsOrderingEdgesWithoutFalsePositives) {
  const auto* a = lockdep::lock_class("lockdep-test.edges.A");
  const auto* b = lockdep::lock_class("lockdep-test.edges.B");
  int ia = 0, ib = 0;

  lockdep::on_acquire(a, &ia);
  EXPECT_EQ(lockdep::held_count(), 1u);
  lockdep::on_acquire(b, &ib);
  EXPECT_EQ(lockdep::held_count(), 2u);
  lockdep::on_release(b, &ib);
  lockdep::on_release(a, &ia);
  EXPECT_EQ(lockdep::held_count(), 0u);

  EXPECT_EQ(lockdep::edge_count(), 1u);
  EXPECT_TRUE(reports_.empty());
  // Same order again: no new edge, still no report.
  lockdep::on_acquire(a, &ia);
  lockdep::on_acquire(b, &ib);
  lockdep::on_release(b, &ib);
  lockdep::on_release(a, &ia);
  EXPECT_EQ(lockdep::edge_count(), 1u);
  EXPECT_TRUE(reports_.empty());

  EXPECT_TRUE(contains(
      lockdep::graph_text(),
      "lockdep-test.edges.A -> lockdep-test.edges.B"));
}

TEST_F(LockdepTest, DetectsAbBaInversionAndReportsBothChains) {
  const auto* a = lockdep::lock_class("lockdep-test.abba.A");
  const auto* b = lockdep::lock_class("lockdep-test.abba.B");
  int ia = 0, ib = 0;

  // Establish A -> B...
  lockdep::on_acquire(a, &ia);
  lockdep::on_acquire(b, &ib);
  lockdep::on_release(b, &ib);
  lockdep::on_release(a, &ia);

  // ...then attempt B -> A. Detection happens at on_acquire(A) — before
  // any real blocking would occur — so the test cannot deadlock.
  lockdep::on_acquire(b, &ib);
  lockdep::on_acquire(a, &ia);
  lockdep::on_release(a, &ia);
  lockdep::on_release(b, &ib);

  ASSERT_EQ(reports_.size(), 1u);
  EXPECT_EQ(lockdep::inversions_detected(), 1u);
  const lockdep::Report& r = reports_.front();
  EXPECT_TRUE(contains(r.summary, "inversion"));
  EXPECT_TRUE(contains(r.summary, "lockdep-test.abba.A"));
  EXPECT_TRUE(contains(r.summary, "lockdep-test.abba.B"));
  // The acquiring chain: holds B, wants A — both present, with sites.
  EXPECT_TRUE(any_line_contains(r.acquiring_chain, "lockdep-test.abba.B"));
  EXPECT_TRUE(any_line_contains(r.acquiring_chain, "lockdep-test.abba.A"));
  EXPECT_TRUE(any_line_contains(r.acquiring_chain, "test_lockdep.cpp"));
  // The prior chain: the recorded A -> B ordering it contradicts.
  EXPECT_TRUE(any_line_contains(r.prior_chain, "lockdep-test.abba.A"));
  EXPECT_TRUE(any_line_contains(r.prior_chain, "lockdep-test.abba.B"));
  // to_string stitches both chains into one report.
  EXPECT_TRUE(contains(r.to_string(), "lockdep-test.abba.B"));
}

TEST_F(LockdepTest, DetectsTransitiveCycleThroughIntermediateClass) {
  const auto* a = lockdep::lock_class("lockdep-test.chain.A");
  const auto* b = lockdep::lock_class("lockdep-test.chain.B");
  const auto* c = lockdep::lock_class("lockdep-test.chain.C");
  int ia = 0, ib = 0, ic = 0;

  lockdep::on_acquire(a, &ia);   // A -> B
  lockdep::on_acquire(b, &ib);
  lockdep::on_release(b, &ib);
  lockdep::on_release(a, &ia);
  lockdep::on_acquire(b, &ib);   // B -> C
  lockdep::on_acquire(c, &ic);
  lockdep::on_release(c, &ic);
  lockdep::on_release(b, &ib);
  EXPECT_EQ(lockdep::edge_count(), 2u);

  lockdep::on_acquire(c, &ic);   // C -> A closes A -> B -> C
  lockdep::on_acquire(a, &ia);
  lockdep::on_release(a, &ia);
  lockdep::on_release(c, &ic);

  ASSERT_EQ(reports_.size(), 1u);
  // The prior chain walks A -> B -> C, two edges.
  EXPECT_GE(reports_.front().prior_chain.size(), 2u);
  EXPECT_TRUE(any_line_contains(reports_.front().prior_chain,
                                "lockdep-test.chain.B"));
}

TEST_F(LockdepTest, CrossThreadOrderConflictIsCaughtFromGraphNotTiming) {
  // Thread 1 runs A -> B and exits; thread 2 then runs B -> A. The
  // threads never overlap, so no real deadlock was possible in this
  // run — lockdep must still flag the inversion, because some other
  // schedule of the same code can deadlock.
  const auto* a = lockdep::lock_class("lockdep-test.xthread.A");
  const auto* b = lockdep::lock_class("lockdep-test.xthread.B");
  int ia = 0, ib = 0;

  std::thread t1([&] {
    lockdep::on_acquire(a, &ia);
    lockdep::on_acquire(b, &ib);
    lockdep::on_release(b, &ib);
    lockdep::on_release(a, &ia);
  });
  t1.join();

  std::thread t2([&] {
    lockdep::on_acquire(b, &ib);
    lockdep::on_acquire(a, &ia);
    lockdep::on_release(a, &ia);
    lockdep::on_release(b, &ib);
  });
  t2.join();

  ASSERT_EQ(reports_.size(), 1u);
  EXPECT_TRUE(contains(reports_.front().summary, "lockdep-test.xthread"));
}

TEST_F(LockdepTest, SameClassNestingDoesNotSelfReport) {
  // Two *instances* of one class (e.g. two BusChannels) taken nested:
  // no self-edge, no report. Ordering within a class is the class
  // owner's business (address order, never-nest, ...), not the graph's.
  const auto* cls = lockdep::lock_class("lockdep-test.selfnest");
  int i1 = 0, i2 = 0;
  lockdep::on_acquire(cls, &i1);
  lockdep::on_acquire(cls, &i2);
  lockdep::on_release(cls, &i2);
  lockdep::on_release(cls, &i1);
  EXPECT_EQ(lockdep::edge_count(), 0u);
  EXPECT_TRUE(reports_.empty());
}

TEST_F(LockdepTest, TryAcquireRecordsHeldButConstrainsNothing) {
  const auto* a = lockdep::lock_class("lockdep-test.try.A");
  const auto* b = lockdep::lock_class("lockdep-test.try.B");
  int ia = 0, ib = 0;

  lockdep::on_acquire(a, &ia);
  lockdep::on_acquire(b, &ib);      // A -> B recorded
  lockdep::on_release(b, &ib);
  lockdep::on_release(a, &ia);

  // try_lock(A) while holding B: can't deadlock, must not report.
  lockdep::on_acquire(b, &ib);
  lockdep::on_try_acquire(a, &ia);
  EXPECT_EQ(lockdep::held_count(), 2u);
  lockdep::on_release(a, &ia);
  lockdep::on_release(b, &ib);

  EXPECT_TRUE(reports_.empty());
  EXPECT_EQ(lockdep::edge_count(), 1u);
}

TEST_F(LockdepTest, NonLifoReleaseIsSupported) {
  const auto* a = lockdep::lock_class("lockdep-test.nonlifo.A");
  const auto* b = lockdep::lock_class("lockdep-test.nonlifo.B");
  int ia = 0, ib = 0;
  lockdep::on_acquire(a, &ia);
  lockdep::on_acquire(b, &ib);
  lockdep::on_release(a, &ia);      // release out of order
  EXPECT_EQ(lockdep::held_count(), 1u);
  lockdep::on_release(b, &ib);
  EXPECT_EQ(lockdep::held_count(), 0u);
  EXPECT_TRUE(reports_.empty());
}

TEST_F(LockdepTest, ThreadExitReclaimsItsHeldStack) {
  // A thread's held stack is allocated on its first acquisition and must
  // be freed when the thread exits: LeakSanitizer (the ASan lane runs
  // with detect_leaks=1) reports the stack of every exited thread
  // otherwise. The util::Mutex records through the hooks in lockdep
  // builds; the direct calls exercise the engine in every build.
  Mutex mu{"lockdep-test.thread-exit.mutex"};
  const auto* cls = lockdep::lock_class("lockdep-test.thread-exit");
  int token = 0;
  std::size_t held_inside = 0;
  std::thread worker([&] {
    MutexLock lock(mu);
    lockdep::on_acquire(cls, &token);
    held_inside = lockdep::held_count();
    lockdep::on_release(cls, &token);
  });
  worker.join();
  EXPECT_GE(held_inside, 1u);
  EXPECT_EQ(lockdep::held_count(), 0u);  // the main thread's stack is its own
  EXPECT_TRUE(reports_.empty());
}

TEST_F(LockdepTest, ContextsKeepSeparateHeldStacks) {
  // A fiber scheduler switches contexts on one thread: a lock taken in
  // one context is neither visible in nor released by another.
  const auto* cls = lockdep::lock_class("lockdep-test.context");
  int token = 0;
  lockdep::Context* fiber = lockdep::context_create();
  lockdep::Context* own = lockdep::context_switch(fiber);
  EXPECT_EQ(own, nullptr);
  lockdep::on_acquire(cls, &token);
  EXPECT_EQ(lockdep::held_count(), 1u);
  lockdep::context_switch(own);
  EXPECT_EQ(lockdep::held_count(), 0u);
  lockdep::on_release(cls, &token);  // not held here: ignored
  lockdep::context_switch(fiber);
  EXPECT_EQ(lockdep::held_count(), 1u);
  lockdep::on_block("test block");
  lockdep::on_release(cls, &token);
  lockdep::on_block("test block");  // nothing held: silent
  lockdep::context_switch(own);
  lockdep::context_destroy(fiber);
  ASSERT_EQ(reports_.size(), 1u);
  EXPECT_TRUE(reports_.front().blocking);
  EXPECT_TRUE(contains(reports_.front().summary, "test block"));
  EXPECT_TRUE(any_line_contains(reports_.front().acquiring_chain,
                                "lockdep-test.context"));
}

#if defined(SCHOONER_LOCKDEP) && SCHOONER_LOCKDEP
TEST_F(LockdepTest, MutexIntegrationCatchesSeededInversion) {
  // The real wrapper path: two util::Mutex instances in distinct
  // classes, locked A-then-B and then B-then-A on one thread. Single-
  // threaded, so the second pair cannot actually deadlock — the report
  // (captured by the fixture's handler instead of aborting) proves the
  // hooks fire inside Mutex::lock.
  Mutex a{"lockdep-test.mutex.A"};
  Mutex b{"lockdep-test.mutex.B"};
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  {
    MutexLock lb(b);
    MutexLock la(a);
  }
  ASSERT_EQ(reports_.size(), 1u);
  EXPECT_TRUE(contains(reports_.front().summary, "lockdep-test.mutex.A"));
  EXPECT_TRUE(any_line_contains(reports_.front().prior_chain,
                                "lockdep-test.mutex.A"));
}
#else
TEST_F(LockdepTest, MutexIntegrationCatchesSeededInversion) {
  GTEST_SKIP() << "SCHOONER_LOCKDEP is off in this build; the Mutex "
                  "hooks are compiled out (engine-level coverage above "
                  "still ran).";
}
#endif

}  // namespace
}  // namespace npss::util
