// The replicated control plane (src/meta/ + the Manager replica group):
// changelog/snapshot/state-machine units, deterministic elections, and the
// full failover story — kill the leader mid-run, a follower takes over
// with the export table (spec hashes included) rebuilt from the log, and
// clients re-bind without losing a call.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "mc/explore.hpp"
#include "mc/model.hpp"
#include "meta/changelog.hpp"
#include "meta/core.hpp"
#include "meta/election.hpp"
#include "meta/record.hpp"
#include "meta/snapshot.hpp"
#include "meta/state.hpp"
#include "npss/procedures.hpp"
#include "obs/metrics.hpp"
#include "rpc/schooner.hpp"

namespace npss {
namespace {

using meta::ChangeRecord;
using meta::RecordKind;

/// No deadline, one stale-binding retry: the historical call contract.
const rpc::CallOptions kLegacy = rpc::CallOptions::legacy();

// --- Pure-unit half ---------------------------------------------------------

ChangeRecord line_create(std::int64_t line, const std::string& note) {
  ChangeRecord rec;
  rec.kind = RecordKind::kLineCreate;
  rec.line = line;
  rec.note = note;
  return rec;
}

ChangeRecord export_rec(std::int64_t line, const std::string& address,
                        const std::string& hash) {
  ChangeRecord rec;
  rec.kind = RecordKind::kExport;
  rec.line = line;
  rec.address = address;
  rec.machine = "far";
  rec.path = "/bin/echo";
  rec.spec_hash = hash;
  rec.procs = {{"echo", "export echo prog(\"x\" val double)"}};
  return rec;
}

TEST(MetaChangelog, AppendTailTruncateAndGapDetection) {
  meta::Changelog log;
  EXPECT_EQ(log.last_index(), 0u);
  EXPECT_EQ(log.append(line_create(1, "a")), 1u);
  EXPECT_EQ(log.append(line_create(2, "b")), 2u);
  EXPECT_EQ(log.append(export_rec(1, "far/p#1", "h1")), 3u);
  EXPECT_EQ(log.first_index(), 1u);
  EXPECT_EQ(log.tail(2).size(), 2u);
  EXPECT_EQ(log.at(2).note, "b");

  // Duplicate delivery is a no-op, a gap is refused.
  EXPECT_TRUE(log.append_at(3, export_rec(1, "far/p#1", "h1")));
  EXPECT_FALSE(log.append_at(5, line_create(9, "gap")));
  EXPECT_EQ(log.last_index(), 3u);

  // Compaction retains the tail and keeps indices stable.
  log.truncate_prefix(2);
  EXPECT_EQ(log.first_index(), 3u);
  EXPECT_EQ(log.last_index(), 3u);
  EXPECT_THROW(log.at(2), util::ProtocolError);
  EXPECT_EQ(log.at(3).spec_hash, "h1");
}

TEST(MetaReplicatedState, AppliesRecordsAndSnapshotsRoundTrip) {
  meta::ReplicatedState st;
  EXPECT_TRUE(st.apply(line_create(1, "avs line"), 1));
  EXPECT_TRUE(st.apply(export_rec(1, "far/p#1", "deadbeef"), 2));
  EXPECT_EQ(st.next_line(), 2);
  ASSERT_TRUE(st.exports().contains("far/p#1"));
  EXPECT_EQ(st.exports().at("far/p#1").spec_hash, "deadbeef");

  // The image round-trips exactly; equal states share a digest.
  meta::ReplicatedState copy =
      meta::ReplicatedState::deserialize(st.serialize());
  EXPECT_EQ(copy, st);
  EXPECT_EQ(copy.digest(), st.digest());

  // A retire removes the export group; a line quit removes its exports.
  ChangeRecord retire;
  retire.kind = RecordKind::kRetire;
  retire.address = "far/p#1";
  EXPECT_TRUE(st.apply(retire, 3));
  EXPECT_FALSE(st.exports().contains("far/p#1"));
}

TEST(MetaSnapshotStore, KeepsOnlyTheNewestImage) {
  meta::ReplicatedState st;
  st.apply(line_create(1, "a"), 1);
  meta::SnapshotStore store;
  EXPECT_TRUE(store.capture(st));
  EXPECT_EQ(store.latest().index, 1u);
  st.apply(export_rec(1, "far/p#1", "h"), 2);
  EXPECT_TRUE(store.capture(st));
  EXPECT_EQ(store.latest().index, 2u);
  // An older image never replaces a newer one (stale, not an error).
  EXPECT_EQ(store.install(1, store.latest().image).code(),
            util::ErrorCode::kUnavailable);
  EXPECT_EQ(store.latest().index, 2u);
  EXPECT_EQ(store.installs(), 2u);
}

TEST(MetaSnapshotStore, RejectsCorruptImagesBeforeInstalling) {
  meta::ReplicatedState st;
  st.apply(line_create(1, "a"), 1);
  meta::SnapshotStore store;
  ASSERT_TRUE(store.capture(st));
  const std::string good_digest = store.latest().digest;
  EXPECT_EQ(good_digest, st.digest());

  st.apply(export_rec(1, "far/p#1", "h"), 2);
  util::Bytes image = st.serialize();

  // A single flipped bit in the image must be rejected — either the
  // decode detects the tear, or the digest cross-check does — and the
  // held snapshot must survive untouched.
  for (const std::size_t at : {std::size_t{0}, image.size() / 2}) {
    util::Bytes torn = image;
    torn[at] ^= 0x20;
    const util::Status s = store.install(2, std::move(torn), st.digest());
    EXPECT_FALSE(s.is_ok());
    EXPECT_TRUE(s.code() == util::ErrorCode::kEncodingError ||
                s.code() == util::ErrorCode::kProtocolError)
        << s.to_string();
    EXPECT_EQ(store.latest().index, 1u);
    EXPECT_EQ(store.latest().digest, good_digest);
    EXPECT_EQ(store.installs(), 1u);
  }

  // Truncated bytes are torn too.
  util::Bytes half(image.begin(),
                   image.begin() + static_cast<std::ptrdiff_t>(image.size() / 2));
  EXPECT_EQ(store.install(2, std::move(half)).code(),
            util::ErrorCode::kEncodingError);

  // An image whose embedded applied-index lies about `index` is refused
  // even when its bytes are internally consistent.
  EXPECT_EQ(store.install(7, st.serialize()).code(),
            util::ErrorCode::kProtocolError);

  // The intact image with the right digest installs.
  EXPECT_TRUE(store.install(2, std::move(image), st.digest()).is_ok());
  EXPECT_EQ(store.latest().index, 2u);
  EXPECT_EQ(store.latest().digest, st.digest());
  EXPECT_EQ(store.installs(), 2u);
}

TEST(MetaChangelog, AppendAtTheCompactionBoundaryStaysConsistent) {
  // Regression: a catch-up append landing exactly at, one before, or one
  // after the compaction boundary must neither throw nor corrupt the
  // retained tail (the snapshot covers everything at or below base).
  meta::Changelog log;
  for (std::int64_t i = 1; i <= 5; ++i) {
    ChangeRecord rec = line_create(i, "e" + std::to_string(i));
    rec.term = static_cast<std::uint64_t>(i <= 3 ? 1 : 2);
    log.append(rec);
  }
  log.truncate_prefix(3);  // snapshot covers 1..3; boundary base = 3
  ASSERT_EQ(log.first_index(), 4u);
  ASSERT_EQ(log.last_index(), 5u);
  EXPECT_EQ(log.term_at(3), 1u);  // the base term survives compaction

  ChangeRecord dup = line_create(3, "e3");
  dup.term = 1;
  // One before, at, and one after the boundary, in turn.
  EXPECT_TRUE(log.append_at(2, dup));  // covered by the snapshot: no-op
  EXPECT_TRUE(log.append_at(3, dup));  // exactly at the base: no-op
  ChangeRecord same4 = line_create(4, "e4");
  same4.term = 2;
  EXPECT_TRUE(log.append_at(4, same4));  // duplicate of a retained entry
  EXPECT_EQ(log.last_index(), 5u);       // nothing was truncated
  EXPECT_EQ(log.at(5).note, "e5");

  // A *conflicting* entry one after the boundary truncates the stale
  // suffix and takes its place.
  ChangeRecord newer4 = line_create(40, "e4'");
  newer4.term = 3;
  EXPECT_TRUE(log.append_at(4, newer4));
  EXPECT_EQ(log.last_index(), 4u);
  EXPECT_EQ(log.at(4).line, 40);
  EXPECT_EQ(log.term_at(4), 3u);

  // Beyond the tail is still a gap, and the compacted prefix can never
  // be truncated back into.
  EXPECT_FALSE(log.append_at(6, dup));
  EXPECT_THROW(log.truncate_suffix(3), util::ProtocolError);

  // reset() (snapshot install) re-bases both index and term.
  log.reset(10, 4);
  EXPECT_EQ(log.last_index(), 10u);
  EXPECT_EQ(log.last_term(), 4u);
  EXPECT_EQ(log.first_index(), 0u);  // nothing retained
  ChangeRecord next = line_create(11, "post-install");
  next.term = 5;
  EXPECT_TRUE(log.append_at(11, next));
  EXPECT_EQ(log.term_at(11), 5u);
}

TEST(MetaElection, LogUpToDateOrderingGatesVotes) {
  // (last term, last index) lexicographic: a longer log from an older
  // term never outranks a shorter log from a newer term.
  EXPECT_TRUE(meta::log_up_to_date(3, 1, 2, 9));    // newer term wins
  EXPECT_FALSE(meta::log_up_to_date(2, 9, 3, 1));
  EXPECT_TRUE(meta::log_up_to_date(2, 5, 2, 5));    // equal is up to date
  EXPECT_TRUE(meta::log_up_to_date(2, 6, 2, 5));
  EXPECT_FALSE(meta::log_up_to_date(2, 4, 2, 5));
  // Candidate ordering prefers term, then index, then rank.
  EXPECT_TRUE(meta::candidate_better(3, 1, 9, 2, 9, 0));
  EXPECT_TRUE(meta::candidate_better(2, 9, 9, 2, 8, 0));
  EXPECT_TRUE(meta::candidate_better(2, 9, 0, 2, 9, 1));
  EXPECT_FALSE(meta::candidate_better(2, 9, 1, 2, 9, 0));
}

TEST(MetaElection, ScheduleIsAPureFunctionOfSeedTermAndReplica) {
  // Same inputs, same rank/timeout; the schedule is host-timing-free.
  for (std::uint64_t term = 1; term <= 5; ++term) {
    for (int replica = 0; replica < 5; ++replica) {
      EXPECT_EQ(meta::candidate_rank(42, term, replica),
                meta::candidate_rank(42, term, replica));
      EXPECT_EQ(meta::election_timeout_ms(42, term, replica, 5, 60),
                meta::election_timeout_ms(42, term, replica, 5, 60));
    }
  }
  // Timeouts within one term are staggered by at least 2 * base: the
  // earliest candidate finishes before the next would stand.
  std::set<int> timeouts;
  for (int replica = 0; replica < 5; ++replica) {
    timeouts.insert(meta::election_timeout_ms(42, 3, replica, 5, 60));
  }
  EXPECT_EQ(timeouts.size(), 5u);
  EXPECT_EQ(*timeouts.rbegin(), meta::slowest_election_timeout_ms(5, 60));
  int prev = -1;
  for (int t : timeouts) {
    if (prev >= 0) {
      EXPECT_GE(t - prev, 2 * 60);
    }
    prev = t;
  }
  // The ordering prefers the longer log, then the lower rank.
  EXPECT_TRUE(meta::candidate_better(10, 7, 9, 3));
  EXPECT_TRUE(meta::candidate_better(10, 3, 10, 7));
  EXPECT_FALSE(meta::candidate_better(10, 7, 10, 3));
}

TEST(MetaMsgCodec, EachKindCarriesItsFieldsAndZeroesTheRest) {
  using meta::MsgKind;
  // Every field set, each to a distinct value.
  meta::Msg full;
  full.from = 9;  // never encoded: the receiver names the sender
  full.term = 7;
  full.index = 11;
  full.prev_term = 6;
  full.last_index = 12;
  full.last_term = 5;
  full.commit = 10;
  full.commit_term = 4;
  full.granted = true;
  full.record = export_rec(3, "far:echo#1", "ab12");
  full.record.term = 6;
  full.snap_index = 3;
  full.snap_term = 2;
  full.snap_digest = "digest";
  meta::ReplicatedState state;
  state.apply(line_create(1, "first"), 1);
  full.snapshot = state.serialize();
  full.batch = {{4, line_create(2, "second")}, {5, full.record}};

  // What each kind carries, per the table on meta::encode_msg.
  const auto carried = [&full](MsgKind kind) {
    meta::Msg m;
    m.kind = kind;
    m.from = 2;
    m.term = full.term;
    switch (kind) {
      case MsgKind::kHeartbeat:
        m.last_index = full.last_index;
        m.commit = full.commit;
        m.commit_term = full.commit_term;
        break;
      case MsgKind::kAppend:
        m.index = full.index;
        m.prev_term = full.prev_term;
        m.commit = full.commit;
        m.record = full.record;
        break;
      case MsgKind::kAppendAck:
      case MsgKind::kFetch:
        m.index = full.index;
        break;
      case MsgKind::kVoteReq:
        m.last_index = full.last_index;
        m.last_term = full.last_term;
        break;
      case MsgKind::kVoteAck:
        m.granted = full.granted;
        break;
      case MsgKind::kFetchAck:
        m.snap_index = full.snap_index;
        m.snap_term = full.snap_term;
        m.snap_digest = full.snap_digest;
        m.commit = full.commit;
        m.snapshot = full.snapshot;
        m.batch = full.batch;
        break;
    }
    return m;
  };
  for (auto kind = static_cast<std::uint8_t>(MsgKind::kHeartbeat);
       kind <= static_cast<std::uint8_t>(MsgKind::kFetchAck); ++kind) {
    meta::Msg sent = full;
    sent.kind = static_cast<MsgKind>(kind);
    const util::Bytes frame = meta::encode_msg(sent);
    EXPECT_EQ(meta::decode_msg(frame, 2), carried(sent.kind))
        << meta::msg_kind_name(sent.kind);
    // Canonical: what a kind does not carry cannot change its frame.
    EXPECT_EQ(meta::encode_msg(carried(sent.kind)), frame)
        << meta::msg_kind_name(sent.kind);
  }
  // Kind bytes outside the enum are refused, not guessed at.
  for (const std::uint8_t kind : {std::uint8_t{0}, std::uint8_t{8}}) {
    util::ByteWriter out;
    out.u8(kind);
    out.u64(1);
    out.u64(1);
    EXPECT_THROW((void)meta::decode_msg(std::move(out).take(), 0),
                 util::EncodingError)
        << int{kind};
  }
}

TEST(MetaQuorumRegression, MinimizedLegacyScheduleLosesAnAckedWrite) {
  // The schedule meta_check minimized for the PR 6 protocol, re-executed
  // verbatim: propose on the bootstrap leader (acked immediately — the
  // bug), then replica 1 stands with an index-only vote and wins a term
  // it has no log for. The acked write is gone (MC003).
  const std::vector<mc::Action> schedule =
      mc::decode_schedule("p0,t1,d1>2,d2>1");
  mc::Options legacy;
  legacy.quorum_commit = false;
  mc::ExploreResult bad = mc::replay(legacy, schedule);
  ASSERT_TRUE(bad.violation.has_value());
  EXPECT_EQ(bad.violation->code, "MC003");

  // The same schedule against the quorum protocol is harmless: the write
  // is never acknowledged before a majority holds it, so nothing acked
  // is lost and every invariant holds.
  mc::Options quorum;
  quorum.quorum_commit = true;
  mc::ExploreResult good = mc::replay(quorum, schedule);
  EXPECT_FALSE(good.violation.has_value()) << good.violation->code;
}

TEST(MetaQuorumRegression, StaleFetchAckCannotDropQuorumCountedEntries) {
  // A fetch reply is information about a *prefix* of the leader's log,
  // not its present tail. This schedule duplicates a fetch-ack so the
  // stale copy reaches r1 only after r1 has appended and acked entry #2
  // — an entry the leader then quorum-counted and acked to the client.
  // The protocol once truncated r1's log past the stale reply's tail
  // (entry #2 included); after the leader crashed, r1 won term 2 and
  // the acked op-2 existed nowhere: MC003, on the *quorum* protocol.
  // The fix treats fetch replies as prefix-only (no truncation past the
  // tail, ack clamped to the verified prefix), so the same 18 actions
  // must now satisfy every invariant.
  const std::vector<mc::Action> schedule = mc::decode_schedule(
      "p0,x0>1,t0,d0>1,d1>0,d0>2,d2>0,p0,u0>1,d0>1,d0>1,d1>0,d1>0,d0>1,"
      "c0,t1,d1>2,d2>1");
  mc::Options opts;
  opts.quorum_commit = true;
  opts.max_ops = 2;
  opts.max_duplicates = 1;
  opts.max_drops = 1;
  opts.max_crashes = 1;
  mc::ExploreResult result = mc::replay(opts, schedule);
  EXPECT_FALSE(result.violation.has_value())
      << result.violation->code << ": " << result.violation->message;
  // The epilogue must still show op-2 *acked* — otherwise the schedule
  // stopped reaching quorum and MC003 had nothing to defend — and the
  // new leader is r1, the replica that held the once-truncated entry.
  EXPECT_NE(result.transcript.find("op-2@#2(t1)"), std::string::npos)
      << result.transcript;
  EXPECT_NE(result.transcript.find("r1: leader, term 2"), std::string::npos)
      << result.transcript;
}

// --- System half: a three-replica Manager group -----------------------------

const char* kEchoSpec =
    "export echo prog(\"x\" val double, \"y\" res double)";
const char* kEchoImport =
    "import echo prog(\"x\" val double, \"y\" res double)";

sim::ProgramImage echo_image() {
  return rpc::make_procedure_image(
      kEchoSpec,
      {{"echo", [](rpc::ProcCall& c) { c.set_real("y", 2.0 * c.real("x")); }}});
}

struct GroupOptions {
  std::uint64_t seed = 1;
  std::uint64_t snapshot_interval = 32;
  int replicas = 3;
};

/// One site, three Manager replica machines plus a worker and a client
/// machine, with a 3-replica control plane (by default).
class MetaGroupTest : public ::testing::Test {
 protected:
  void build(const GroupOptions& group) {
    system_.reset();
    cluster_ = std::make_unique<sim::Cluster>();
    cluster_->add_machine("m0", "sun-sparc10", "lerc");
    cluster_->add_machine("m1", "ibm-rs6000", "lerc");
    cluster_->add_machine("m2", "sgi-4d480", "lerc");
    cluster_->add_machine("far", "sgi-4d480", "lerc");
    cluster_->add_machine("avs", "sun-sparc10", "lerc");
    cluster_->install_image("far", "/bin/echo", echo_image());
    cluster_->install_image("m2", "/bin/echo", echo_image());
    rpc::SystemOptions options;
    options.manager_replicas = group.replicas;
    options.replica_machines = {"m1", "m2"};
    options.heartbeat_ms = 10;
    options.election_base_ms = 40;
    options.election_seed = group.seed;
    options.snapshot_interval = group.snapshot_interval;
    system_ = std::make_unique<rpc::SchoonerSystem>(*cluster_, "m0", options);
  }

  /// Ask one replica (any role) for its view: (leader, digest, applied).
  struct ReplicaView {
    std::string leader;
    std::string digest;
    std::string applied;
  };
  ReplicaView view_of(const std::string& address) {
    sim::EndpointPtr ep = cluster_->create_endpoint("avs", "probe");
    rpc::MessageIo io(*cluster_, ep);
    rpc::Message who;
    who.kind = rpc::MessageKind::kMetaWhoIsLeader;
    rpc::Message ack = io.call_within(address, std::move(who), 500);
    cluster_->retire_endpoint(ep->address());
    return ReplicaView{ack.a, ack.b, ack.c};
  }

  /// Poll until every live replica applied the same log prefix as the
  /// leader (replication is async) and return the common digest.
  std::string converged_digest() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      std::set<std::string> digests;
      for (const std::string& address :
           system_->manager_replica_addresses()) {
        if (!cluster_->endpoint_alive(address)) continue;
        digests.insert(view_of(address).digest);
      }
      if (digests.size() == 1) return *digests.begin();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ADD_FAILURE() << "replicas never converged on one digest";
    return {};
  }

  /// The current leader as the (live) replicas report it.
  std::string wait_for_leader() {
    sim::EndpointPtr ep = cluster_->create_endpoint("avs", "probe");
    rpc::MessageIo io(*cluster_, ep);
    std::vector<std::string> live;
    for (const std::string& address : system_->manager_replica_addresses()) {
      if (cluster_->endpoint_alive(address)) live.push_back(address);
    }
    std::string leader = rpc::discover_manager_leader(io, live);
    cluster_->retire_endpoint(ep->address());
    return leader;
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::unique_ptr<rpc::SchoonerSystem> system_;
};

TEST_F(MetaGroupTest, GroupBootsReplicatesAndAgreesOnDigest) {
  // A lone Manager is a one-member group: the same replica code path,
  // committing each change as soon as it is proposed.
  for (int replicas : {3, 1}) {
    SCOPED_TRACE(testing::Message() << replicas << " replica(s)");
    build({.replicas = replicas});
    const auto& addresses = system_->manager_replica_addresses();
    ASSERT_EQ(addresses.size(), static_cast<std::size_t>(replicas));
    auto session = system_->make_session("avs");
    auto client =
        session->open_line(rpc::LineOptions{}.with_name("boot test"));
    client->contact_schx("far", "/bin/echo");
    auto proc = client->import_proc("echo", kEchoImport);
    uts::ValueList out = proc->call(
        {uts::Value::real(21.0), uts::Value::real(0.0)}, kLegacy)
            .values_or_raise();
    EXPECT_DOUBLE_EQ(out[1].as_real(), 42.0);

    // Followers mirror the leader's state machine, byte for byte.
    EXPECT_FALSE(converged_digest().empty());
    EXPECT_EQ(view_of(addresses[0]).leader, addresses[0]);
    rpc::ManagerStats stats = system_->stats();
    EXPECT_GT(stats.log_appends, 0u);
    EXPECT_EQ(stats.leader_elections, 0u);  // replica 0 leads term 1 as booted
    client->quit();
  }
}

// Every Manager event is counted once, through one table: what stats()
// sums over the replicas is what the registry counted under the event's
// metric name, and turning obs off stops only the registry.
TEST(ManagerTally, StatsAndRegistryCountTheSameEvents) {
  const auto& rows = rpc::manager_events();
  for (const bool obs_on : {true, false}) {
    SCOPED_TRACE(obs_on ? "obs on" : "obs off");
    obs::set_enabled(obs_on);
    sim::Cluster cluster;
    cluster.add_machine("m0", "sun-sparc10", "lerc");
    cluster.add_machine("m1", "ibm-rs6000", "lerc");
    cluster.add_machine("m2", "sgi-4d480", "lerc");
    cluster.add_machine("far", "sgi-4d480", "lerc");
    cluster.add_machine("avs", "sun-sparc10", "lerc");
    cluster.install_image("far", "/bin/echo", echo_image());
    cluster.install_image("m2", "/bin/echo", echo_image());
    rpc::SystemOptions options;
    options.manager_replicas = 3;
    options.replica_machines = {"m1", "m2"};
    options.max_lines = 2;
    options.strict_static_check = true;
    options.static_manifest = {{"echo", kEchoSpec}};

    std::vector<std::uint64_t> registry_before;
    for (const auto& row : rows) registry_before.push_back(row.counter.value());

    rpc::SchoonerSystem system(cluster, "m0", options);
    auto session = system.make_session("avs");
    auto line = session->open_line(rpc::LineOptions{}.with_name("tally"));
    auto spare = session->open_line(rpc::LineOptions{}.with_name("spare"));
    EXPECT_THROW((void)session->open_line(), util::LineRejectedError);
    line->contact_schx("far", "/bin/echo");
    auto echo = line->import_proc("echo", kEchoImport);
    EXPECT_TRUE(echo->call({uts::Value::real(1.0), uts::Value::real(0.0)},
                           kLegacy)
                    .ok());
    line->move_proc("echo", "m2");
    EXPECT_TRUE(echo->call({uts::Value::real(2.0), uts::Value::real(0.0)},
                           kLegacy)
                    .ok());
    spare->quit();
    line->quit();
    system.stop();

    // Followers may still be recording the last appends: wait until the
    // two views agree (each record() updates both), then compare them.
    const auto deltas = [&] {
      const rpc::ManagerStats stats = system.stats();
      std::vector<std::pair<std::uint64_t, std::uint64_t>> d;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        d.emplace_back(stats.*rows[i].field,
                       rows[i].counter.value() - registry_before[i]);
      }
      return d;
    };
    auto d = deltas();
    for (int spin = 0; spin < 100; ++spin) {
      const bool settled = std::all_of(d.begin(), d.end(), [&](const auto& p) {
        return p.second == (obs_on ? p.first : 0u);
      });
      if (settled && d == deltas()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      d = deltas();
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "table row " << i);
      EXPECT_EQ(d[i].second, obs_on ? d[i].first : 0u);
    }

    const rpc::ManagerStats stats = system.stats();
    EXPECT_GT(stats.lines_created, 0u);
    EXPECT_EQ(stats.lines_rejected, 1u);
    EXPECT_GT(stats.processes_started, 0u);
    EXPECT_GT(stats.lookups, 0u);
    EXPECT_EQ(stats.moves, 1u);
    EXPECT_GT(stats.lines_shut_down, 0u);
    EXPECT_GT(stats.static_check_passes, 0u);
    EXPECT_GT(stats.log_appends, 0u);
  }
  obs::set_enabled(true);
}

TEST_F(MetaGroupTest, LeaderKillFailsOverWithExportTableIntact) {
  build({});
  auto session = system_->make_session("avs");
  auto client = session->open_line(
      rpc::LineOptions{}.with_name("failover test"));
  client->contact_schx("far", "/bin/echo");
  auto proc = client->import_proc("echo", kEchoImport);
  EXPECT_DOUBLE_EQ(
      proc->call({uts::Value::real(1.0), uts::Value::real(0.0)}, kLegacy)
          .values_or_raise()[1].as_real(),
      2.0);

  const std::string before = converged_digest();
  const std::string old_leader = system_->manager_replica_addresses()[0];
  cluster_->crash_process(old_leader);

  // A follower takes over; the data plane never blinked, so in-flight
  // calls on the already-bound stub keep succeeding during the election.
  for (int i = 0; i < 20; ++i) {
    uts::ValueList out =
        proc->call({uts::Value::real(i), uts::Value::real(0.0)}, kLegacy)
            .values_or_raise();
    EXPECT_DOUBLE_EQ(out[1].as_real(), 2.0 * i);
  }
  std::string new_leader = wait_for_leader();
  ASSERT_FALSE(new_leader.empty());
  EXPECT_NE(new_leader, old_leader);

  // The new leader rebuilt the export table from the replicated log: its
  // digest matches the pre-crash fingerprint exactly.
  EXPECT_EQ(view_of(new_leader).digest, before);

  // A cold re-bind (cache dropped) walks the kNotLeader/no-route path and
  // lands on the new leader.
  proc->invalidate();
  EXPECT_DOUBLE_EQ(
      proc->call({uts::Value::real(5.0), uts::Value::real(0.0)}, kLegacy)
          .values_or_raise()[1].as_real(),
      10.0);

  // The move-compat gate still holds after failover because the bound
  // signatures (and spec hashes) were replicated: a legal sch_move through
  // the *new* leader works.
  std::string moved = client->move_proc("echo", "m2");
  EXPECT_FALSE(moved.empty());
  proc->invalidate();
  EXPECT_DOUBLE_EQ(
      proc->call({uts::Value::real(7.0), uts::Value::real(0.0)}, kLegacy)
          .values_or_raise()[1].as_real(),
      14.0);

  rpc::ManagerStats stats = system_->stats();
  EXPECT_GE(stats.leader_elections, 1u);
  client->quit();
}

TEST_F(MetaGroupTest, ColdBindCutOffFromTheLeaderFailsInsteadOfHanging) {
  // The client machine loses its link to a leader that still leads. A
  // cold bind's lookup is bounded like every other Manager exchange of
  // the Session, so once no replica names a reachable leader the call
  // comes back kUnavailable instead of blocking forever.
  build({});
  auto session = system_->make_session("avs");
  auto client =
      session->open_line(rpc::LineOptions{}.with_name("cut-off bind"));
  client->contact_schx("far", "/bin/echo");
  auto proc = client->import_proc("echo", kEchoImport);
  ASSERT_TRUE(
      proc->call({uts::Value::real(1.0), uts::Value::real(0.0)}, kLegacy)
          .ok());

  // Cut the client machine off from whichever replica leads now; the
  // followers keep hearing its heartbeats, so it goes on leading.
  const std::string leader = wait_for_leader();
  ASSERT_FALSE(leader.empty());
  cluster_->partition({"avs"}, {leader.substr(0, leader.find('/'))});
  proc->invalidate();

  // Watchdog: a call still blocked at the bound has its line's endpoint
  // retired under it, so a hang fails the test instead of stalling it.
  constexpr auto kBound = std::chrono::seconds(20);
  std::mutex mu;
  std::condition_variable returned;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!returned.wait_for(lock, kBound, [&] { return done; })) {
      cluster_->retire_endpoint(client->io().address());
    }
  });
  const auto start = std::chrono::steady_clock::now();
  rpc::CallResult result =
      proc->call({uts::Value::real(2.0), uts::Value::real(0.0)}, kLegacy);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  returned.notify_one();
  watchdog.join();

  EXPECT_LT(elapsed, kBound);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status.code(), util::ErrorCode::kUnavailable)
      << result.status.to_string();
  cluster_->heal();
}

TEST_F(MetaGroupTest, OneLeaderChangeIsFollowedOncePerSession) {
  // Two lines share one Session, hence one leader cache: the first line
  // to meet the dead leader finds the new one, and the second sends
  // straight to it without polling the group again.
  build({});
  auto session = system_->make_session("avs");
  auto line_a = session->open_line(rpc::LineOptions{}.with_name("line a"));
  auto line_b = session->open_line(rpc::LineOptions{}.with_name("line b"));
  line_a->contact_schx("far", "/bin/echo");
  auto proc = line_a->import_proc("echo", kEchoImport);
  ASSERT_TRUE(
      proc->call({uts::Value::real(1.0), uts::Value::real(0.0)}, kLegacy)
          .ok());
  ASSERT_FALSE(converged_digest().empty());

  const bool obs_was_on = obs::enabled();
  obs::set_enabled(true);
  const obs::Counter& rebinds =
      obs::Registry::global().counter("rpc.meta.rebinds_after_failover");
  const std::uint64_t before = rebinds.value();
  cluster_->crash_process(system_->manager_replica_addresses()[0]);

  proc->invalidate();  // line A: a cold call meets the dead leader
  EXPECT_TRUE(
      proc->call({uts::Value::real(3.0), uts::Value::real(0.0)}, kLegacy)
          .ok());
  line_b->contact_schx("far", "/bin/echo");
  EXPECT_EQ(rebinds.value() - before, 1u);
  obs::set_enabled(obs_was_on);
  line_a->quit();
  line_b->quit();
}

TEST_F(MetaGroupTest, SameSeedElectsTheSameLeader) {
  // The fault-suite contract extends to elections: with one seed, the
  // post-crash winner is a function of the configuration, not of host
  // scheduling. Run the same crash twice per seed.
  auto winner_index = [&](std::uint64_t seed) {
    build({.seed = seed});
    auto session = system_->make_session("avs");
    auto client = session->open_line(
        rpc::LineOptions{}.with_name("election determinism"));
    client->contact_schx("far", "/bin/echo");
    cluster_->crash_process(system_->manager_replica_addresses()[0]);
    std::string leader = wait_for_leader();
    const auto& replicas = system_->manager_replica_addresses();
    int index = -1;
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      if (replicas[i] == leader) index = static_cast<int>(i);
    }
    EXPECT_GE(index, 1) << "no (or unknown) leader after crash";
    client->quit();
    return index;
  };
  const int first = winner_index(1234);
  const int second = winner_index(1234);
  EXPECT_EQ(first, second);
}

TEST_F(MetaGroupTest, SnapshotCompactionCoversFollowerCatchUp) {
  // A tiny snapshot interval forces compaction quickly; a partitioned
  // follower that missed the compacted records can only recover through
  // the snapshot + log-tail path.
  build({.snapshot_interval = 4});
  auto session = system_->make_session("avs");
  auto client = session->open_line(
      rpc::LineOptions{}.with_name("snapshot test"));

  // Isolate replica 2 from the rest of the control plane (the client and
  // worker machines stay fully connected).
  cluster_->partition({"m2"}, {"m0", "m1"});
  for (int i = 0; i < 3; ++i) {
    auto extra = session->open_line(
        rpc::LineOptions{}.with_name("filler " + std::to_string(i)));
    extra->contact_schx("far", "/bin/echo");
    extra->quit();
  }
  EXPECT_GT(cluster_->partition_drops(), 0u);

  cluster_->heal();
  // After healing, the follower pulls the snapshot and tail; all three
  // replicas converge on one digest again.
  EXPECT_FALSE(converged_digest().empty());
  rpc::ManagerStats stats = system_->stats();
  EXPECT_GE(stats.snapshot_installs, 1u);
  client->quit();
}

TEST_F(MetaGroupTest, PartitionedLeaderStepsDownAfterHeal) {
  build({});
  auto session = system_->make_session("avs");
  auto client = session->open_line(
      rpc::LineOptions{}.with_name("partition test"));
  client->contact_schx("far", "/bin/echo");

  // Cut the leader off from both followers; they elect a successor.
  cluster_->partition({"m0"}, {"m1", "m2"});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::string new_leader;
  while (std::chrono::steady_clock::now() < deadline) {
    auto v = view_of(system_->manager_replica_addresses()[1]);
    if (!v.leader.empty() &&
        v.leader != system_->manager_replica_addresses()[0]) {
      new_leader = v.leader;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_FALSE(new_leader.empty()) << "no new leader during partition";

  // Heal: the deposed leader sees the higher term, steps down, discards
  // its (possibly divergent) log, and re-converges with the group.
  cluster_->heal();
  const auto heal_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool stepped_down = false;
  while (std::chrono::steady_clock::now() < heal_deadline) {
    if (view_of(system_->manager_replica_addresses()[0]).leader ==
        new_leader) {
      stepped_down = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(stepped_down) << "old leader never adopted the new term";
  EXPECT_FALSE(converged_digest().empty());
  EXPECT_EQ(wait_for_leader(), new_leader);
  client->quit();
}

TEST_F(MetaGroupTest, IsolatedLeaderNeverServesAnUncommittedExport) {
  // A leader cut off from its followers can still propose an export but
  // never commit it. Were it to serve lookups from that proposal, a
  // client would be sent to a process the next leader has never heard
  // of — an orphan no Manager can move or shut down.
  build({});
  const std::vector<std::string> replicas =
      system_->manager_replica_addresses();
  auto session = system_->make_session("avs");
  auto exporter = session->open_line(rpc::LineOptions{}.with_name("exporter"));
  auto reader = session->open_line(rpc::LineOptions{}.with_name("reader"));

  const std::uint64_t booted = std::stoull(view_of(replicas[0]).applied);
  cluster_->partition({"m0"}, {"m1", "m2"});
  // Wait until the majority side has elected a leader and both of its
  // replicas applied the new term's no-op barrier: from then on only the
  // isolated leader appends to any log.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool settled = false;
  while (!settled && std::chrono::steady_clock::now() < deadline) {
    const ReplicaView v1 = view_of(replicas[1]);
    const ReplicaView v2 = view_of(replicas[2]);
    settled = !v1.leader.empty() && v1.leader != replicas[0] &&
              std::stoull(v1.applied) > booted && v1.applied == v2.applied;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(settled) << "no new leader during partition";

  // A shared start through the isolated leader: it spawns the process
  // and proposes the export, which can never reach a majority.
  sim::EndpointPtr ep = cluster_->create_endpoint("avs", "probe");
  rpc::MessageIo io(*cluster_, ep);
  const std::uint64_t appends = system_->stats().log_appends;
  rpc::Message start;
  start.kind = rpc::MessageKind::kStartRequest;
  start.seq = io.next_seq();
  start.line = exporter->id();
  start.a = "far";
  start.b = "/bin/echo";
  start.n = 1;  // shared
  io.send(replicas[0], std::move(start));
  while (system_->stats().log_appends == appends &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(system_->stats().log_appends, appends)
      << "the isolated leader never proposed the export";

  const auto lookup = [&](const std::string& manager) {
    rpc::Message req;
    req.kind = rpc::MessageKind::kLookup;
    req.line = reader->id();
    req.a = "echo";
    req.b = kEchoImport;
    return io.call_within(manager, std::move(req), 500,
                          /*raise_errors=*/false);
  };
  const rpc::Message during = lookup(replicas[0]);
  EXPECT_TRUE(during.is_error())
      << "isolated leader handed out uncommitted address " << during.a;
  EXPECT_EQ(static_cast<util::ErrorCode>(during.n),
            util::ErrorCode::kLookupFailure);

  // After the heal the export was never committed anywhere, so no
  // leader resolves it either.
  cluster_->heal();
  EXPECT_FALSE(converged_digest().empty());
  // The healed group may elect once more after the leader is seen: follow
  // the kNotLeader redirect (a bounded number of times) to whoever leads
  // when the lookup lands.
  std::string leader = wait_for_leader();
  rpc::Message after;
  for (int hop = 0; hop < 20; ++hop) {
    ASSERT_FALSE(leader.empty());
    after = lookup(leader);
    if (!after.is_error() || static_cast<util::ErrorCode>(after.n) !=
                                 util::ErrorCode::kNotLeader) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    leader = after.b.empty() ? wait_for_leader() : after.b;
  }
  EXPECT_TRUE(after.is_error())
      << "leader resolved an export it never committed: " << after.a;
  EXPECT_EQ(static_cast<util::ErrorCode>(after.n),
            util::ErrorCode::kLookupFailure);
  cluster_->retire_endpoint(ep->address());
  exporter->quit();
  reader->quit();
}

}  // namespace
}  // namespace npss
