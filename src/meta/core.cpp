#include "meta/core.hpp"

#include <algorithm>

namespace npss::meta {

std::string_view msg_kind_name(MsgKind kind) {
  switch (kind) {
    case MsgKind::kHeartbeat: return "heartbeat";
    case MsgKind::kAppend: return "append";
    case MsgKind::kAppendAck: return "append-ack";
    case MsgKind::kVoteReq: return "vote-req";
    case MsgKind::kVoteAck: return "vote-ack";
    case MsgKind::kFetch: return "fetch";
    case MsgKind::kFetchAck: return "fetch-ack";
  }
  return "?";
}

util::Bytes encode_msg(const Msg& m) {
  util::ByteWriter out;
  // Room for a typical append (the largest frame but a fetch-ack), so
  // the buffer is allocated once instead of grown field by field.
  out.reserve(160);
  out.u8(static_cast<std::uint8_t>(m.kind));
  out.u64(m.term);
  switch (m.kind) {
    case MsgKind::kHeartbeat:
      out.u64(m.last_index);
      out.u64(m.commit);
      out.u64(m.commit_term);
      break;
    case MsgKind::kAppend:
      out.u64(m.index);
      out.u64(m.prev_term);
      out.u64(m.commit);
      out.blob(encode_record(m.record));
      break;
    case MsgKind::kAppendAck:
    case MsgKind::kFetch:
      out.u64(m.index);
      break;
    case MsgKind::kVoteReq:
      out.u64(m.last_index);
      out.u64(m.last_term);
      break;
    case MsgKind::kVoteAck:
      out.u8(m.granted ? 1 : 0);
      break;
    case MsgKind::kFetchAck:
      out.u64(m.snap_index);
      out.u64(m.snap_term);
      out.str(m.snap_digest);
      out.u64(m.commit);
      out.blob(m.snapshot);
      out.blob(encode_record_batch(m.batch));
      break;
  }
  return std::move(out).take();
}

Msg decode_msg(std::span<const std::uint8_t> bytes, int from) {
  util::ByteReader in(bytes);
  Msg m;
  const std::uint8_t kind = in.u8();
  if (kind < static_cast<std::uint8_t>(MsgKind::kHeartbeat) ||
      kind > static_cast<std::uint8_t>(MsgKind::kFetchAck)) {
    throw util::EncodingError("unknown replica message kind " +
                              std::to_string(kind));
  }
  m.kind = static_cast<MsgKind>(kind);
  m.from = from;
  m.term = in.u64();
  switch (m.kind) {
    case MsgKind::kHeartbeat:
      m.last_index = in.u64();
      m.commit = in.u64();
      m.commit_term = in.u64();
      break;
    case MsgKind::kAppend:
      m.index = in.u64();
      m.prev_term = in.u64();
      m.commit = in.u64();
      m.record = decode_record(in.raw(in.u32()));
      break;
    case MsgKind::kAppendAck:
    case MsgKind::kFetch:
      m.index = in.u64();
      break;
    case MsgKind::kVoteReq:
      m.last_index = in.u64();
      m.last_term = in.u64();
      break;
    case MsgKind::kVoteAck:
      m.granted = in.u8() != 0;
      break;
    case MsgKind::kFetchAck:
      m.snap_index = in.u64();
      m.snap_term = in.u64();
      m.snap_digest = in.str();
      m.commit = in.u64();
      m.snapshot = in.blob();
      m.batch = decode_record_batch(in.raw(in.u32()));
      break;
  }
  if (!in.exhausted()) {
    throw util::EncodingError("trailing bytes in replica message");
  }
  return m;
}

ReplicaCore::ReplicaCore(CoreConfig config) : config_(config) {
  match_.assign(static_cast<std::size_t>(config_.replicas), 0);
}

void ReplicaCore::start(Role role, std::uint64_t term, int leader_index) {
  role_ = role;
  term_ = term;
  leader_ = leader_index;
  if (role == Role::kLeader) {
    leader_ = config_.index;
    // Holds the "vote" for its bootstrap term, so it cannot also grant
    // one — the same one-ballot-per-term rule elections use.
    voted_term_ = term;
    std::fill(match_.begin(), match_.end(), 0);
  }
  bump_gen();
}

void ReplicaCore::start_recovered() {
  role_ = Role::kFollower;
  term_ = 0;
  leader_ = -1;
  never_vote_ = true;  // no persistent ballot: re-voting could elect two
                       // leaders in one term, so a reborn replica never votes
  bump_gen();
}

void ReplicaCore::send(int to, Msg m) {
  m.from = config_.index;
  outbound_.push_back(Outbound{to, std::move(m)});
}

void ReplicaCore::broadcast(const Msg& m) {
  for (int i = 0; i < config_.replicas; ++i) {
    if (i == config_.index) continue;
    send(i, m);
  }
}

Msg ReplicaCore::make_heartbeat() const {
  Msg hb;
  hb.kind = MsgKind::kHeartbeat;
  hb.term = term_;
  hb.last_index = changelog_.last_index();
  hb.commit = commit_;
  hb.commit_term = commit_ == 0 ? 0 : changelog_.term_at(commit_);
  return hb;
}

void ReplicaCore::broadcast_heartbeat() { broadcast(make_heartbeat()); }

void ReplicaCore::send_fetch(int to) {
  Msg req;
  req.kind = MsgKind::kFetch;
  req.term = term_;
  // Everything at or below our commit index provably matches the
  // leader's log, so that is the safe resume point; the legacy protocol
  // trusted its whole log and resumed past entries that might conflict.
  req.index =
      (config_.quorum_commit ? commit_ : changelog_.last_index()) + 1;
  send(to, std::move(req));
}

/// Leader side of catch-up, identical in both modes: serve the tail when
/// we still retain the requested index, else latest snapshot + the
/// records past it.
void ReplicaCore::serve_fetch(const Msg& m) {
  if (role_ != Role::kLeader) return;
  Msg ack;
  ack.kind = MsgKind::kFetchAck;
  ack.term = term_;
  ack.commit = commit_;
  std::uint64_t from = std::max<std::uint64_t>(m.index, 1);
  if (from > changelog_.last_index()) {
    // Requester already has everything; empty reply re-anchors it.
  } else if (changelog_.first_index() != 0 &&
             from >= changelog_.first_index()) {
    ack.batch = changelog_.tail(from);
  } else {
    const Snapshot& snap = snapshots_.latest();
    ack.snap_index = snap.index;
    ack.snap_term = changelog_.term_at(snap.index);
    ack.snap_digest = snap.digest;
    ack.snapshot = snap.image;
    ack.batch = changelog_.tail(snap.index + 1);
  }
  send(m.from, std::move(ack));
}

void ReplicaCore::apply_to(std::uint64_t k) {
  for (std::uint64_t i = state_.last_applied() + 1; i <= k; ++i) {
    state_.apply(changelog_.at(i), i);
  }
}

/// Advance the commit index to k, apply the newly durable entries, and
/// surface one kCommitted per index (the driver acks clients off these).
void ReplicaCore::commit_to(std::uint64_t k) {
  for (std::uint64_t i = commit_ + 1; i <= k; ++i) {
    events_.push_back(
        CoreEvent{CoreEventKind::kCommitted, i, changelog_.term_at(i)});
  }
  commit_ = k;
  apply_to(k);
  maybe_compact();
}

void ReplicaCore::maybe_compact() {
  if (config_.snapshot_interval == 0) return;
  if (state_.last_applied() <
      snapshots_.latest().index + config_.snapshot_interval) {
    return;
  }
  if (snapshots_.capture(state_)) {
    changelog_.truncate_prefix(snapshots_.latest().index);
    ++counters_.snapshot_installs;
  }
}

std::uint64_t ReplicaCore::propose(ChangeRecord rec) {
  if (role_ != Role::kLeader) return 0;
  rec.term = term_;
  const std::uint64_t prev_term = changelog_.last_term();
  const std::uint64_t index = changelog_.append(rec);
  ++counters_.log_appends;
  Msg append;
  append.kind = MsgKind::kAppend;
  append.term = term_;
  append.index = index;
  append.prev_term = prev_term;
  append.commit = commit_;
  append.record = std::move(rec);
  broadcast(append);
  if (config_.quorum_commit) {
    match_[static_cast<std::size_t>(config_.index)] = index;
    advance_commit_leader();
  } else {
    // The PR 6 hole, verbatim: commit == append. The kCommitted event —
    // and with it the client's kLineAck — fires before any follower has
    // the entry. meta_check's MC003 exists to catch exactly this.
    apply_to(index);
    commit_ = index;
    events_.push_back(CoreEvent{CoreEventKind::kCommitted, index, term_});
    maybe_compact();
  }
  return index;
}

void ReplicaCore::fire_timer() {
  switch (role_) {
    case Role::kLeader:
      broadcast_heartbeat();
      return;
    case Role::kCandidate:
      // The round timed out without a majority; revert and let the
      // staggered timeout for the next term pick the next candidate.
      role_ = Role::kFollower;
      votes_ = 0;
      bump_gen();
      return;
    case Role::kFollower:
      if (never_vote_) {
        if (leader_ >= 0) send_fetch(leader_);
        bump_gen();
        return;
      }
      start_election();
      return;
  }
}

void ReplicaCore::start_election() {
  ++term_;
  role_ = Role::kCandidate;
  leader_ = -1;
  voted_term_ = term_;  // vote for ourselves
  votes_ = 1;
  bump_gen();
  if (votes_ >= majority()) {
    become_leader();
    return;
  }
  Msg req;
  req.kind = MsgKind::kVoteReq;
  req.term = term_;
  req.last_index = changelog_.last_index();
  req.last_term = changelog_.last_term();
  broadcast(req);
}

void ReplicaCore::become_leader() {
  role_ = Role::kLeader;
  leader_ = config_.index;
  votes_ = 0;
  ++counters_.leader_elections;
  events_.push_back(CoreEvent{CoreEventKind::kBecameLeader, 0, term_});
  bump_gen();
  std::fill(match_.begin(), match_.end(), 0);
  if (config_.quorum_commit) {
    // The no-op barrier: the commit rule only counts current-term
    // entries toward the majority, so the new term needs an entry of its
    // own before the inherited tail can commit underneath it.
    ChangeRecord noop;
    noop.kind = RecordKind::kNoop;
    propose(std::move(noop));
  }
  broadcast_heartbeat();
}

void ReplicaCore::handle(const Msg& m) {
  if (config_.quorum_commit) {
    handle_quorum(m);
  } else {
    handle_legacy(m);
  }
}

// ---------------------------------------------------------------------------
// Quorum-commit protocol (the fix meta_check forced).
// ---------------------------------------------------------------------------

void ReplicaCore::step_down_if_higher(const Msg& m) {
  if (m.term <= term_) return;
  const bool was_leader = role_ == Role::kLeader;
  term_ = m.term;
  role_ = Role::kFollower;
  votes_ = 0;
  leader_ = -1;
  if (was_leader) {
    // Keep the log: any uncommitted suffix is truncated entry-by-entry
    // when the new leader's appends conflict — committed entries survive,
    // which is the whole point versus the legacy full reset.
    events_.push_back(CoreEvent{CoreEventKind::kSteppedDown, 0, term_});
  }
  bump_gen();
}

void ReplicaCore::handle_quorum(const Msg& m) {
  step_down_if_higher(m);
  switch (m.kind) {
    case MsgKind::kHeartbeat: on_heartbeat_quorum(m); return;
    case MsgKind::kAppend: on_append_quorum(m); return;
    case MsgKind::kAppendAck: on_append_ack(m); return;
    case MsgKind::kVoteReq: on_vote_req_quorum(m); return;
    case MsgKind::kVoteAck:
      if (role_ == Role::kCandidate && m.term == term_ && m.granted) {
        if (++votes_ >= majority()) become_leader();
      }
      return;
    case MsgKind::kFetch: serve_fetch(m); return;
    case MsgKind::kFetchAck: on_fetch_ack_quorum(m); return;
  }
}

void ReplicaCore::on_heartbeat_quorum(const Msg& m) {
  if (m.term < term_) return;  // stale leader
  if (role_ != Role::kFollower) {
    // Same-term heartbeat while candidate: the election already resolved.
    // (A same-term second *leader* cannot exist — election safety.)
    if (role_ == Role::kLeader) return;
    role_ = Role::kFollower;
    votes_ = 0;
  }
  leader_ = m.from;
  bump_gen();
  if (m.last_index > changelog_.last_index()) {
    send_fetch(m.from);
  }
  // Commit piggyback. Only sound when our entry at the leader's commit
  // index *is* the leader's entry — same index and same term implies the
  // whole prefix matches (the log-matching property the append prev-term
  // check maintains). Lagging or divergent: fetch first, commit later.
  if (m.commit > commit_) {
    if (m.commit <= changelog_.last_index() &&
        changelog_.term_at(m.commit) == m.commit_term) {
      commit_to(m.commit);
    } else {
      send_fetch(m.from);
    }
  }
}

void ReplicaCore::on_append_quorum(const Msg& m) {
  if (m.term < term_) return;  // stale leader's entry; let it step down
  if (role_ == Role::kLeader) return;  // impossible same-term; defensive
  if (role_ == Role::kCandidate) {
    role_ = Role::kFollower;
    votes_ = 0;
  }
  leader_ = m.from;
  bump_gen();
  const std::uint64_t index = m.index;
  if (index <= commit_) {
    // Already committed here, which implies it matches the leader's
    // entry (Leader Completeness) — pure duplicate, just re-ack.
    Msg ack;
    ack.kind = MsgKind::kAppendAck;
    ack.term = term_;
    ack.index = index;
    send(m.from, std::move(ack));
    return;
  }
  const std::uint64_t prev = index - 1;
  if (prev > changelog_.last_index()) {
    send_fetch(m.from);  // gap: we are missing the prefix
    return;
  }
  if (prev > commit_ && changelog_.term_at(prev) != m.prev_term) {
    // Our entry before the append point is not the leader's: a deposed
    // leader wrote it. Drop the divergent suffix and refetch.
    changelog_.truncate_suffix(prev);
    send_fetch(m.from);
    return;
  }
  const std::uint64_t before = changelog_.last_index();
  const bool fresh =
      index > before || changelog_.term_at(index) != m.record.term;
  if (!changelog_.append_at(index, m.record)) {
    send_fetch(m.from);
    return;
  }
  if (fresh) ++counters_.log_appends;
  Msg ack;
  ack.kind = MsgKind::kAppendAck;
  ack.term = term_;
  ack.index = index;  // matched through here; beyond may still diverge
  send(m.from, std::move(ack));
  // Everything up to the appended entry now provably matches the leader,
  // so the piggybacked commit is safe up to that point.
  const std::uint64_t c = std::min(m.commit, index);
  if (c > commit_) commit_to(c);
}

void ReplicaCore::on_append_ack(const Msg& m) {
  if (role_ != Role::kLeader || m.term != term_) return;
  if (m.from < 0 || static_cast<std::size_t>(m.from) >= match_.size()) return;
  auto& slot = match_[static_cast<std::size_t>(m.from)];
  slot = std::max(slot, m.index);
  advance_commit_leader();
}

void ReplicaCore::advance_commit_leader() {
  // Largest k with a majority holding entries through k *and* k written
  // in the current term (committing a prior-term entry by counting alone
  // is the classic Raft §5.4.2 unsoundness; the noop barrier makes the
  // tail commit instead).
  for (std::uint64_t k = changelog_.last_index(); k > commit_; --k) {
    if (changelog_.term_at(k) != term_) break;
    std::size_t holders = 0;
    for (std::uint64_t matched : match_) {
      if (matched >= k) ++holders;
    }
    if (holders >= majority()) {
      commit_to(k);
      return;
    }
  }
}

void ReplicaCore::on_vote_req_quorum(const Msg& m) {
  // step_down_if_higher already adopted a higher term (without granting).
  bool grant = false;
  if (!never_vote_ && m.term == term_ && m.term > voted_term_ &&
      log_up_to_date(m.last_term, m.last_index, changelog_.last_term(),
                     changelog_.last_index())) {
    grant = true;
    voted_term_ = m.term;
    leader_ = -1;  // the old leader is presumed dead
    bump_gen();
  }
  Msg ack;
  ack.kind = MsgKind::kVoteAck;
  ack.term = m.term;
  ack.granted = grant;
  send(m.from, std::move(ack));
}

void ReplicaCore::on_fetch_ack_quorum(const Msg& m) {
  if (m.term < term_ || role_ == Role::kLeader) return;
  leader_ = m.from;
  bump_gen();
  if (!m.snapshot.empty() && m.snap_index > state_.last_applied()) {
    util::Status installed =
        snapshots_.install(m.snap_index, m.snapshot, m.snap_digest);
    if (!installed.is_ok()) {
      // Torn or corrupted image: refuse it and retry catch-up later
      // rather than deserializing garbage into the state machine.
      return;
    }
    ++counters_.snapshot_installs;
    state_ = ReplicatedState::deserialize(m.snapshot);
    changelog_.reset(m.snap_index, m.snap_term);
    if (m.snap_index > commit_) commit_ = m.snap_index;
  }
  bool complete = true;
  for (const auto& [index, rec] : m.batch) {
    const std::uint64_t before = changelog_.last_index();
    if (!changelog_.append_at(index, rec)) {
      complete = false;  // gap: refetch later
      break;
    }
    if (changelog_.last_index() > before) ++counters_.log_appends;
  }
  if (!complete || (m.snapshot.empty() && m.batch.empty())) {
    return;  // gap or empty reply: no new matched prefix, retry later
  }
  // A fetch reply describes a *prefix* of the leader's log as of when it
  // was served — never the leader's present tail. A delayed or
  // duplicated reply can arrive after we appended (and the leader
  // quorum-counted) newer current-term entries past its end, so nothing
  // here may truncate beyond the reply's tail: a genuinely divergent
  // suffix is removed by the append path's prev-term conflict check and
  // append_at's term comparison instead.
  const std::uint64_t leader_last =
      std::max(m.snap_index,
               m.batch.empty() ? std::uint64_t{0} : m.batch.back().first);
  // Ack only the prefix this reply verified: its tail, or our commit
  // index if that is further (committed entries are shared with any
  // current-term leader by Leader Completeness). Acking the raw
  // last_index would let the leader count us for entries past the
  // reply that we may not actually share.
  const std::uint64_t verified =
      std::min(changelog_.last_index(), std::max(commit_, leader_last));
  Msg ack;
  ack.kind = MsgKind::kAppendAck;
  ack.term = term_;
  ack.index = verified;
  send(m.from, std::move(ack));
  const std::uint64_t c = std::min(m.commit, verified);
  if (c > commit_) commit_to(c);
}

// ---------------------------------------------------------------------------
// Legacy protocol (PR 6, fire-and-forget) — the checker's negative corpus.
// Faithful port of the old ReplicaDriver logic, including its bugs.
// ---------------------------------------------------------------------------

void ReplicaCore::legacy_depose(const Msg& m) {
  term_ = m.term;
  role_ = Role::kFollower;
  votes_ = 0;
  leader_ = m.kind == MsgKind::kHeartbeat ? m.from : -1;
  // The legacy data-loss amplifier: the deposed leader throws away its
  // entire log — acked entries included — and refetches from scratch.
  changelog_.reset(0);
  state_ = ReplicatedState{};
  snapshots_ = SnapshotStore{};
  commit_ = 0;
  events_.push_back(CoreEvent{CoreEventKind::kSteppedDown, 0, term_});
  bump_gen();
  if (leader_ >= 0) send_fetch(leader_);
}

void ReplicaCore::handle_legacy(const Msg& m) {
  switch (m.kind) {
    case MsgKind::kHeartbeat:
      if (role_ == Role::kLeader) {
        if (m.term > term_) legacy_depose(m);
        return;
      }
      if (m.term >= term_) {
        term_ = m.term;
        if (role_ == Role::kCandidate) role_ = Role::kFollower;
        leader_ = m.from;
        bump_gen();
        if (m.last_index > changelog_.last_index()) send_fetch(m.from);
      }
      return;
    case MsgKind::kAppend: {
      if (role_ == Role::kLeader) return;  // stale traffic
      if (m.term < term_) return;
      term_ = m.term;
      if (role_ == Role::kCandidate) role_ = Role::kFollower;
      leader_ = m.from;
      bump_gen();
      // Legacy append: duplicate indices are trusted blindly (no term
      // comparison), a gap triggers a fetch, commit == applied.
      if (m.index <= changelog_.last_index()) return;
      if (m.index != changelog_.last_index() + 1) {
        send_fetch(m.from);
        return;
      }
      changelog_.append_at(m.index, m.record);
      if (state_.apply(changelog_.at(m.index), m.index)) {
        ++counters_.log_appends;
      }
      commit_ = changelog_.last_index();
      maybe_compact();
      return;
    }
    case MsgKind::kVoteReq: {
      if (role_ == Role::kLeader) {
        if (m.term > term_) legacy_depose(m);
        return;
      }
      if (role_ == Role::kCandidate) {
        const std::uint64_t my_rank =
            candidate_rank(config_.seed, term_, config_.index);
        const std::uint64_t their_rank =
            candidate_rank(config_.seed, m.term, m.from);
        if (m.term > term_ ||
            (m.term == term_ &&
             candidate_better(m.last_index, their_rank,
                              changelog_.last_index(), my_rank))) {
          term_ = m.term;
          role_ = Role::kFollower;
          voted_term_ = m.term;
          votes_ = 0;
          bump_gen();
          Msg ack;
          ack.kind = MsgKind::kVoteAck;
          ack.term = m.term;
          ack.granted = !never_vote_;
          send(m.from, std::move(ack));
          return;
        }
        Msg ack;
        ack.kind = MsgKind::kVoteAck;
        ack.term = m.term;
        ack.granted = false;
        send(m.from, std::move(ack));
        return;
      }
      // Follower: first candidate per term whose log is at least as
      // *long* as ours — the index-only rule that ignores entry terms.
      bool grant = false;
      if (m.term > term_) term_ = m.term;
      if (!never_vote_ && m.term >= term_ && m.term > voted_term_ &&
          m.last_index >= changelog_.last_index()) {
        voted_term_ = m.term;
        grant = true;
        leader_ = -1;
        bump_gen();
      }
      Msg ack;
      ack.kind = MsgKind::kVoteAck;
      ack.term = m.term;
      ack.granted = grant;
      send(m.from, std::move(ack));
      return;
    }
    case MsgKind::kVoteAck:
      if (role_ == Role::kCandidate && m.term == term_ && m.granted) {
        if (++votes_ >= majority()) become_leader();
      }
      return;
    case MsgKind::kFetch:
      serve_fetch(m);
      return;
    case MsgKind::kFetchAck: {
      if (role_ == Role::kLeader) return;
      if (!m.snapshot.empty() && m.snap_index > state_.last_applied()) {
        util::Status installed =
            snapshots_.install(m.snap_index, m.snapshot, m.snap_digest);
        if (!installed.is_ok()) return;
        ++counters_.snapshot_installs;
        state_ = ReplicatedState::deserialize(m.snapshot);
        changelog_.reset(state_.last_applied(), m.snap_term);
      }
      for (const auto& [index, rec] : m.batch) {
        if (index != changelog_.last_index() + 1) {
          if (index <= changelog_.last_index()) continue;
          break;
        }
        changelog_.append_at(index, rec);
        if (state_.apply(changelog_.at(index), index)) {
          ++counters_.log_appends;
        }
      }
      commit_ = changelog_.last_index();
      return;
    }
    case MsgKind::kAppendAck:
      return;  // the legacy protocol never acks
  }
}

// ---------------------------------------------------------------------------

ReplicatedState ReplicaCore::projected_state() const {
  ReplicatedState projected = state_;
  for (std::uint64_t i = projected.last_applied() + 1;
       i <= changelog_.last_index(); ++i) {
    projected.apply(changelog_.at(i), i);
  }
  return projected;
}

int ReplicaCore::timer_ms() const {
  switch (role_) {
    case Role::kLeader:
      return config_.heartbeat_ms;
    case Role::kCandidate:
      return config_.election_base_ms;
    case Role::kFollower:
      return election_timeout_ms(config_.seed, term_ + 1, config_.index,
                                 config_.replicas, config_.election_base_ms);
  }
  return config_.election_base_ms;
}

util::Bytes ReplicaCore::fingerprint() const {
  util::ByteWriter out;
  out.u8(static_cast<std::uint8_t>(role_));
  out.u8(never_vote_ ? 1 : 0);
  out.u64(term_);
  out.u64(voted_term_);
  out.i64(leader_);
  out.u64(static_cast<std::uint64_t>(votes_));
  out.u64(commit_);
  for (std::uint64_t matched : match_) out.u64(matched);
  out.u64(snapshots_.latest().index);
  out.blob(snapshots_.latest().image);
  out.u64(changelog_.last_index());
  for (const auto& [index, rec] : changelog_.tail(changelog_.first_index())) {
    out.u64(index);
    out.blob(encode_record(rec));
  }
  out.blob(state_.serialize());
  return std::move(out).take();
}

}  // namespace npss::meta
