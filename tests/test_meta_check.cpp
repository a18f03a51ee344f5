// meta_check internals: the World model, the schedule codec, and the
// explorer — including the negative corpus (the legacy PR 6 protocol
// MUST lose an acked write) and the determinism contracts the visited
// set depends on. `ctest -L mc` runs this suite alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mc/explore.hpp"
#include "mc/model.hpp"
#include "util/status.hpp"

namespace npss {
namespace {

mc::Options small_opts(bool quorum) {
  mc::Options opts;
  opts.replicas = 3;
  opts.quorum_commit = quorum;
  opts.max_ops = 1;
  opts.max_crashes = 0;
  opts.max_restarts = 0;
  opts.max_drops = 0;
  opts.max_duplicates = 0;
  return opts;
}

bool contains(const std::vector<mc::Action>& acts, const mc::Action& a) {
  return std::find(acts.begin(), acts.end(), a) != acts.end();
}

TEST(McWorld, BootstrapEnablesTheLeaderAndNothingIsInFlight) {
  const mc::World world(small_opts(true));
  const std::vector<mc::Action> acts = world.enabled();
  // Replica 0 bootstraps as leader: the client may propose there, every
  // replica's timer may fire, and no link carries a frame yet.
  EXPECT_TRUE(contains(acts, {mc::ActionKind::kPropose, 0, -1}));
  EXPECT_FALSE(contains(acts, {mc::ActionKind::kPropose, 1, -1}));
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(contains(acts, {mc::ActionKind::kTimer, i, -1}));
    EXPECT_TRUE(world.up(i));
  }
  for (const mc::Action& a : acts) {
    EXPECT_NE(a.kind, mc::ActionKind::kDeliver);
    EXPECT_NE(a.kind, mc::ActionKind::kCrash);  // max_crashes = 0
  }
  EXPECT_TRUE(world.acked().empty());
}

TEST(McWorld, FingerprintsAreDeterministicAcrossIdenticalRuns) {
  mc::Options opts = small_opts(true);
  opts.max_crashes = 1;
  mc::World a(opts);
  mc::World b(opts);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  // The same schedule applied to both worlds keeps them identical.
  for (const mc::Action& act : mc::decode_schedule("p0,t0,c1,d0>2")) {
    ASSERT_TRUE(a.is_enabled(act)) << a.describe(act);
    a.step(act);
    b.step(act);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
  }
  // And a world that took a different branch is distinguishable.
  mc::World c(opts);
  c.step({mc::ActionKind::kTimer, 1, -1});
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(McWorld, CrashSilencesAReplicaUntilRestart) {
  mc::Options opts = small_opts(true);
  opts.max_crashes = 1;
  opts.max_restarts = 1;
  mc::World world(opts);
  world.step({mc::ActionKind::kPropose, 0, -1});  // puts appends in flight
  world.step({mc::ActionKind::kCrash, 1, -1});
  EXPECT_FALSE(world.up(1));
  const std::vector<mc::Action> acts = world.enabled();
  for (const mc::Action& a : acts) {
    // A dead replica neither acts nor receives; its only move is rejoin.
    if (a.kind == mc::ActionKind::kRestart) {
      EXPECT_EQ(a.a, 1);
      continue;
    }
    if (a.kind == mc::ActionKind::kTimer ||
        a.kind == mc::ActionKind::kPropose) {
      EXPECT_NE(a.a, 1);
    }
    if (a.kind == mc::ActionKind::kDeliver) {
      EXPECT_NE(a.b, 1);
    }
  }
  EXPECT_TRUE(contains(acts, {mc::ActionKind::kRestart, 1, -1}));
  world.step({mc::ActionKind::kRestart, 1, -1});
  EXPECT_TRUE(world.up(1));
}

TEST(McSchedule, CodecRoundTripsEveryActionKind) {
  const std::string text = "p0,t1,c2,r2,d1>2,x0>1,u2>0";
  const std::vector<mc::Action> schedule = mc::decode_schedule(text);
  ASSERT_EQ(schedule.size(), 7u);
  EXPECT_EQ(schedule[0], (mc::Action{mc::ActionKind::kPropose, 0, -1}));
  EXPECT_EQ(schedule[4], (mc::Action{mc::ActionKind::kDeliver, 1, 2}));
  EXPECT_EQ(schedule[5], (mc::Action{mc::ActionKind::kDrop, 0, 1}));
  EXPECT_EQ(schedule[6], (mc::Action{mc::ActionKind::kDuplicate, 2, 0}));
  EXPECT_EQ(mc::encode_schedule(schedule), text);

  EXPECT_THROW(mc::decode_schedule("z9"), util::ParseError);
  EXPECT_THROW(mc::decode_schedule("d1"), util::ParseError);   // missing >b
  EXPECT_THROW(mc::decode_schedule("p"), util::ParseError);    // missing index
  EXPECT_THROW(mc::decode_schedule("t1>2"), util::ParseError); // stray link
}

TEST(McExplore, QuorumProtocolIsCleanAtSmallBounds) {
  mc::ExploreOptions x;
  x.depth = 6;
  const mc::ExploreResult result = mc::explore(small_opts(true), x);
  EXPECT_FALSE(result.violation) << result.transcript;
  EXPECT_GT(result.stats.states_explored, 0u);
  EXPECT_FALSE(result.stats.budget_exhausted);
}

TEST(McExplore, LegacyProtocolLosesAnAckedWrite) {
  // The negative corpus: under the PR 6 fire-and-forget protocol the
  // checker MUST find an acked-then-lost schedule (MC003) — a new
  // leader elected on index-only votes abandons the acked write. The
  // minimized schedule needs no crash and no drop: four actions.
  mc::ExploreOptions x;
  x.depth = 6;
  const mc::ExploreResult result = mc::explore(small_opts(false), x);
  ASSERT_TRUE(result.violation);
  EXPECT_EQ(result.violation->code, "MC003");
  EXPECT_LE(result.schedule.size(), 6u);
  // The minimized schedule replays to the same verdict, bit for bit.
  const mc::ExploreResult again = mc::replay(small_opts(false), result.schedule);
  ASSERT_TRUE(again.violation);
  EXPECT_EQ(again.violation->code, "MC003");
  EXPECT_NE(result.transcript.find("MC003"), std::string::npos);
}

TEST(McExplore, FullSearchVerdictAtDepthFive) {
  mc::ExploreOptions x;
  x.depth = 5;
  EXPECT_FALSE(mc::explore(small_opts(true), x).violation);
  const mc::ExploreResult legacy = mc::explore(small_opts(false), x);
  ASSERT_TRUE(legacy.violation);
  EXPECT_EQ(legacy.violation->code, "MC003");
}

TEST(McExplore, FullSearchVerdictUnderFaults) {
  // Duplicates and crashes on: the quorum protocol stays clean and the
  // legacy one still loses an acked write.
  mc::Options opts = small_opts(false);
  opts.max_duplicates = 1;
  opts.max_crashes = 1;
  mc::ExploreOptions x;
  x.depth = 5;
  const mc::ExploreResult legacy = mc::explore(opts, x);
  ASSERT_TRUE(legacy.violation);
  EXPECT_EQ(legacy.violation->code, "MC003");

  mc::Options clean = small_opts(true);
  clean.max_duplicates = 1;
  clean.max_crashes = 1;
  const mc::ExploreResult quorum = mc::explore(clean, x);
  EXPECT_FALSE(quorum.violation) << quorum.transcript;
}

TEST(McExplore, ReplayRejectsSchedulesTheWorldCannotRun) {
  // Proposing on a follower is never enabled; replay must say so rather
  // than silently diverging from the transcript it claims to reproduce.
  EXPECT_THROW(mc::replay(small_opts(true), mc::decode_schedule("p1")),
               util::ProtocolError);
  // Exceeding the ops budget is equally invalid.
  EXPECT_THROW(mc::replay(small_opts(true), mc::decode_schedule("p0,p0")),
               util::ProtocolError);
}

TEST(McExplore, DuplicatedFramesAreHarmlessUnderQuorum) {
  mc::Options opts = small_opts(true);
  opts.max_duplicates = 1;
  mc::ExploreOptions x;
  x.depth = 6;
  const mc::ExploreResult result = mc::explore(opts, x);
  EXPECT_FALSE(result.violation) << result.transcript;
}

TEST(McExplore, MultiOpWithDuplicatesAndFaultsStaysClean) {
  // The stale-fetch-ack regression class (see test_meta_state.cpp's
  // StaleFetchAckCannotDropQuorumCountedEntries) needs two client ops
  // and a duplicated frame to even be expressible; the shallow single-op
  // dup-free bounds above cannot reach it. Explore with every fault
  // class enabled at once — ops 2, dups 1, drops 1, crashes 1 — so the
  // dup/fetch/append interleavings are systematically covered.
  mc::Options opts = small_opts(true);
  opts.max_ops = 2;
  opts.max_duplicates = 1;
  opts.max_drops = 1;
  opts.max_crashes = 1;
  mc::ExploreOptions x;
  x.depth = 6;
  x.max_states = 1000000;
  const mc::ExploreResult result = mc::explore(opts, x);
  EXPECT_FALSE(result.violation) << result.transcript;
  EXPECT_FALSE(result.stats.budget_exhausted);
}

}  // namespace
}  // namespace npss
