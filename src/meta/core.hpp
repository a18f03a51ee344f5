// ReplicaCore: one Manager replica's consensus protocol as a pure,
// steppable state machine.
//
// PR 6's ReplicaDriver fused the protocol with its transport: blocking
// receive loops, host-clock timeouts, and rpc::Message framing, which is
// exactly the shape a model checker cannot drive. This class is the
// refactor the checker forced — every input is an explicit call
// (handle / fire_timer / propose), every output is a queued value
// (take_outbound / take_events), and nothing in here reads a clock,
// a random source, or a socket. The live ReplicaDriver in rpc/manager.cpp
// owns one core and translates host time into core calls; src/mc/ owns N
// cores over a virtual network and enumerates every delivery order. Both
// carry messages as encode_msg frames, so both see the identical protocol
// down to its bytes.
//
// Two protocol modes, selected by CoreConfig::quorum_commit:
//
//  * true (the shipped protocol): real quorum commit. Entries carry their
//    leader's term; an entry is committed when a majority of replicas
//    hold it *and* its term is the leader's current term; followers ack
//    appends; elections require the candidate's (last term, last index)
//    to be at least as up to date as the voter's; a freshly elected
//    leader appends a kNoop barrier to commit the prior term's tail;
//    conflicting suffixes are truncated, never whole logs. Client acks
//    ride the kCommitted events, so nothing is acknowledged until it is
//    durable on a majority.
//
//  * false (the PR 6 legacy protocol, kept as the checker's negative
//    corpus): fire-and-forget appends, commit == append, immediate acks,
//    index-only votes, deposed leaders discard their whole log. meta_check
//    --legacy runs this mode and MUST find the acked-then-lost violation;
//    the transcript is the regression proof that the checker can see the
//    bug the fault suite sampled past.
//
// Restart rule: replicas are memory-only (no persistent ballot), so a
// restarted replica rejoins as a non-voting *learner* (start_recovered).
// It mirrors the log and its appends count toward the commit quorum
// (safe: it never votes, so a candidate still needs a majority of
// never-restarted voters, and any voter that acked a committed entry
// still holds it — the Leader Completeness argument survives).
//
// Threading: none. Plain value type, copyable on purpose — the model
// checker forks World states by copying cores.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "meta/changelog.hpp"
#include "meta/election.hpp"
#include "meta/record.hpp"
#include "meta/snapshot.hpp"
#include "meta/state.hpp"
#include "util/bytes.hpp"

namespace npss::meta {

enum class MsgKind : std::uint8_t {
  kHeartbeat = 1,  ///< leader liveness + commit-index piggyback
  kAppend,         ///< replicate one entry (prev-term consistency checked)
  kAppendAck,      ///< follower: my log matches the leader's through .index
  kVoteReq,        ///< candidate stands for .term
  kVoteAck,        ///< voter's grant/deny for .term
  kFetch,          ///< follower is behind: send snapshot + tail from .index
  kFetchAck,       ///< snapshot image + record batch + commit index
};

std::string_view msg_kind_name(MsgKind kind);

/// One protocol message between replicas. Field usage varies by kind —
/// unused fields stay zero so messages compare/serialize canonically.
/// `from` is never encoded: the receiver knows who sent the frame.
struct Msg {
  MsgKind kind = MsgKind::kHeartbeat;
  int from = -1;                 ///< sender's replica index
  std::uint64_t term = 0;        ///< sender's election term
  std::uint64_t index = 0;       ///< append: entry index; appendack:
                                 ///< matched-through; fetch: first wanted
  std::uint64_t prev_term = 0;   ///< append: term of entry index-1
  std::uint64_t last_index = 0;  ///< heartbeat/votereq: sender's last index
  std::uint64_t last_term = 0;   ///< votereq: sender's last term
  std::uint64_t commit = 0;      ///< sender's commit index
  std::uint64_t commit_term = 0; ///< heartbeat: term of entry `commit`
  bool granted = false;          ///< voteack verdict
  ChangeRecord record;           ///< append payload
  std::uint64_t snap_index = 0;  ///< fetchack: snapshot covers 1..snap_index
  std::uint64_t snap_term = 0;   ///< fetchack: term of entry snap_index
  std::string snap_digest;       ///< fetchack: sender's state digest
  util::Bytes snapshot;          ///< fetchack: serialized ReplicatedState
  std::vector<std::pair<std::uint64_t, ChangeRecord>> batch;  ///< log tail

  bool operator==(const Msg&) const = default;
};

/// The replica protocol's one wire image, shared by the live Manager and
/// meta_check: the kind and the term, then the fields that kind carries
///   kHeartbeat  last_index, commit, commit_term
///   kAppend     index, prev_term, commit, record
///   kAppendAck  index
///   kVoteReq    last_index, last_term
///   kVoteAck    granted
///   kFetch      index
///   kFetchAck   snap_index, snap_term, snap_digest, commit, snapshot, batch
/// Records and batches go through encode_record / encode_record_batch.
util::Bytes encode_msg(const Msg& m);
/// Inverse of encode_msg, with `from` filled in by the caller (the frame's
/// source). Every field the kind does not carry comes back zero. Throws
/// util::EncodingError on an unknown kind, a short frame, a count that
/// exceeds the frame, or trailing bytes.
Msg decode_msg(std::span<const std::uint8_t> bytes, int from);

struct Outbound {
  int to = -1;
  Msg msg;
};

enum class CoreEventKind : std::uint8_t {
  kCommitted,     ///< entry .index (term .term) is durable: ack the client
  kBecameLeader,  ///< reset the Manager's write projection and serve
  kSteppedDown,   ///< drop pending client completions; they retry elsewhere
};

struct CoreEvent {
  CoreEventKind kind = CoreEventKind::kCommitted;
  std::uint64_t index = 0;
  std::uint64_t term = 0;
};

/// Monotonic protocol counters; the driver records the difference of
/// successive reads in its replica's rpc::ManagerTally.
struct CoreCounters {
  std::uint64_t log_appends = 0;
  std::uint64_t snapshot_installs = 0;
  std::uint64_t leader_elections = 0;
};

struct CoreConfig {
  int index = 0;
  int replicas = 1;
  std::uint64_t seed = 0;
  std::uint64_t snapshot_interval = 0;  ///< 0 = never compact
  int heartbeat_ms = 15;
  int election_base_ms = 60;
  bool quorum_commit = true;  ///< false = PR 6 legacy (negative corpus)
};

class ReplicaCore {
 public:
  ReplicaCore() = default;
  explicit ReplicaCore(CoreConfig config);

  /// Bootstrap entry: the kMetaConfig handshake names replica
  /// `leader_index` the term-`term` leader by convention — not an
  /// election, so leader_elections stays 0.
  void start(Role role, std::uint64_t term, int leader_index);

  /// Rejoin after a crash with no persistent ballot: a non-voting
  /// learner. Mirrors the log, acks appends, never votes or stands.
  void start_recovered();

  void handle(const Msg& m);

  /// The role's one timer fired: leader → heartbeat broadcast,
  /// follower → stand for election (learner: re-fetch), candidate →
  /// the round is over, revert to follower.
  void fire_timer();

  /// Leader-only client write. Returns the assigned changelog index, or
  /// 0 when this replica is not the leader. In quorum mode the
  /// kCommitted event for that index is the ack signal; in legacy mode
  /// the event fires immediately (the bug under test).
  std::uint64_t propose(ChangeRecord rec);

  std::vector<Outbound> take_outbound() { return std::move(outbound_); }
  std::vector<CoreEvent> take_events() { return std::move(events_); }

  // --- inspection (the driver's answer_who_is_leader, the checker's
  // invariants, and the tests all read through these) ---
  Role role() const { return role_; }
  bool learner() const { return never_vote_; }
  std::uint64_t term() const { return term_; }
  int index() const { return config_.index; }
  int leader_index() const { return leader_; }  ///< -1 = unknown
  std::uint64_t commit_index() const { return commit_; }
  const Changelog& log() const { return changelog_; }
  const ReplicatedState& state() const { return state_; }
  const SnapshotStore& snapshots() const { return snapshots_; }
  const CoreCounters& counters() const { return counters_; }

  /// state() plus the uncommitted log tail applied — what a freshly
  /// elected leader checks Manager writes against (its own entries
  /// cannot be truncated while it stays leader, so the projection is
  /// what the noop barrier is about to make durable).
  ReplicatedState projected_state() const;

  /// Milliseconds of quiet before fire_timer() should be invoked, for
  /// the current role/term. A pure function of core state — the driver
  /// anchors a host clock to it, the checker ignores it entirely.
  int timer_ms() const;

  /// Bumped whenever the quiet-period countdown must restart (role or
  /// term change, heartbeat/append accepted, vote granted). The driver
  /// re-anchors its clock when the generation moves.
  std::uint64_t timer_generation() const { return timer_gen_; }

  /// Canonical image of the whole core for the checker's visited set:
  /// role, term, vote, commit, log, state, snapshot index.
  util::Bytes fingerprint() const;

 private:
  std::size_t majority() const {
    return static_cast<std::size_t>(config_.replicas) / 2 + 1;
  }
  void send(int to, Msg m);
  void broadcast(const Msg& m);
  Msg make_heartbeat() const;
  void broadcast_heartbeat();
  void send_fetch(int to);
  void serve_fetch(const Msg& m);
  void bump_gen() { ++timer_gen_; }
  void apply_to(std::uint64_t k);
  void commit_to(std::uint64_t k);
  void maybe_compact();
  void become_leader();
  void start_election();
  void step_down_if_higher(const Msg& m);

  void handle_quorum(const Msg& m);
  void on_heartbeat_quorum(const Msg& m);
  void on_append_quorum(const Msg& m);
  void on_append_ack(const Msg& m);
  void on_vote_req_quorum(const Msg& m);
  void on_fetch_ack_quorum(const Msg& m);
  void advance_commit_leader();

  void handle_legacy(const Msg& m);
  void legacy_depose(const Msg& m);

  CoreConfig config_;
  Role role_ = Role::kFollower;
  std::uint64_t term_ = 0;
  std::uint64_t voted_term_ = 0;  ///< newest term we granted a vote in
  int leader_ = -1;               ///< best known leader's replica index
  bool never_vote_ = false;       ///< learner: restarted without a ballot
  std::size_t votes_ = 0;         ///< grants collected as candidate
  std::uint64_t commit_ = 0;
  std::vector<std::uint64_t> match_;  ///< leader: matched-through per peer

  Changelog changelog_;
  ReplicatedState state_;
  SnapshotStore snapshots_;

  std::vector<Outbound> outbound_;
  std::vector<CoreEvent> events_;
  CoreCounters counters_;
  std::uint64_t timer_gen_ = 0;
};

}  // namespace npss::meta
