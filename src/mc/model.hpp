// The model under check: N meta::ReplicaCore instances over a virtual
// network, as one copyable World value.
//
// meta_check explores Manager replica groups the way the fault suite
// never can: instead of sampling drop schedules, it *enumerates* them.
// That is only possible because ReplicaCore is a pure steppable state
// machine — every nondeterministic choice the real system makes (which
// message arrives next, which timer fires, which replica dies) is an
// explicit Action here, and applying an Action is deterministic. The
// World owns everything around the cores: per-pair FIFO links, crash and
// restart bookkeeping, the budgets that bound the search, and the
// client's ledger of acknowledged writes — the ground truth the
// durability invariant (MC003) is judged against.
//
// Invariants (the MC0xx rows in check::diagnostic_code_table()):
//
//   MC001  election safety     — at most one leader per term, ever
//   MC002  log consistency     — committed prefixes are pairwise equal
//   MC003  durability          — an acked write is never lost: every
//                                leader of a later-or-equal term holds it
//   MC004  convergence         — equal applied index ⇒ equal state digest
//   MC005  replay idempotence  — snapshot + own log, applied twice,
//                                reproduces the live state (leaf check)
//
// check() is cheap and runs after every step; check_leaf() re-applies
// logs and runs only at the depth bound.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "meta/core.hpp"
#include "util/bytes.hpp"

namespace npss::mc {

/// Search-space bounds. Every budget is a *maximum over one schedule*,
/// not a rate: with max_crashes = 1 the checker tries every schedule in
/// which at most one replica dies.
struct Options {
  int replicas = 3;
  bool quorum_commit = true;  ///< false = PR 6 legacy protocol (MUST fail)
  int max_ops = 2;            ///< client proposes per schedule
  int max_crashes = 1;
  int max_restarts = 0;       ///< rejoins (as non-voting learners)
  int max_drops = 2;          ///< messages the network may lose
  int max_duplicates = 0;     ///< messages the network may re-deliver
  std::uint64_t seed = 42;    ///< election-stagger seed for the cores
  std::uint64_t snapshot_interval = 0;  ///< 0 = never compact
};

enum class ActionKind : std::uint8_t {
  kPropose = 1,  ///< client write on replica a (enabled on the leader)
  kDeliver,      ///< hand the head of link a→b to replica b
  kDrop,         ///< the network loses the head of link a→b
  kDuplicate,    ///< the network re-enqueues the head of link a→b
  kTimer,        ///< replica a's role timer fires
  kCrash,        ///< replica a dies; its memory and in-flight frames go
  kRestart,      ///< replica a rejoins as a non-voting learner
};

/// One scheduler choice. `a` is the acting/affected replica; `b` is the
/// destination replica for the link actions, -1 otherwise.
struct Action {
  ActionKind kind = ActionKind::kDeliver;
  int a = -1;
  int b = -1;

  bool operator==(const Action&) const = default;
};

/// A safety violation, phrased as one of the MC0xx diagnostics.
struct Violation {
  std::string code;     ///< "MC001".."MC005"
  std::string message;  ///< what was observed, with replica/term/index
};

/// One acknowledged client write: the ledger row MC003 defends.
struct AckedOp {
  std::uint64_t token = 0;  ///< client-visible op id (the line id used)
  std::uint64_t index = 0;  ///< changelog index the leader assigned
  std::uint64_t term = 0;   ///< term the commit was reported under
};

class World {
 public:
  explicit World(Options opts);

  const Options& options() const { return opts_; }

  /// Every action the scheduler may take from this state, in canonical
  /// order (deterministic across runs).
  std::vector<Action> enabled() const;

  /// Apply one enabled action. Precondition: `is_enabled(action)`.
  void step(const Action& action);

  bool is_enabled(const Action& action) const;

  /// The cheap per-step invariants (MC001–MC004).
  std::optional<Violation> check() const;

  /// The expensive leaf invariant (MC005 replay idempotence).
  std::optional<Violation> check_leaf() const;

  /// Canonical image of the entire world — cores, links, budgets,
  /// ledger — for the explorer's visited set.
  util::Bytes fingerprint() const;

  /// Human transcript line for `action` against the current state, e.g.
  /// "deliver r0→r1 append #3 (term 2)".
  std::string describe(const Action& action) const;

  /// One-line state summary per replica (transcript epilogue).
  std::string summary() const;

  const std::vector<AckedOp>& acked() const { return acked_; }
  bool up(int i) const { return nodes_[static_cast<std::size_t>(i)].up; }

 private:
  struct Node {
    meta::ReplicaCore core;
    bool up = true;
  };

  std::deque<util::Bytes>& link(int from, int to) {
    return links_[static_cast<std::size_t>(from * opts_.replicas + to)];
  }
  const std::deque<util::Bytes>& link(int from, int to) const {
    return links_[static_cast<std::size_t>(from * opts_.replicas + to)];
  }

  /// Drain replica i's queued outputs: outbound messages, encoded, onto
  /// the links (frames to a dead replica vanish — its endpoint is gone),
  /// events into the client ledger and leader history.
  void pump(int i);

  meta::CoreConfig config_for(int i) const;

  Options opts_;
  std::vector<Node> nodes_;
  /// [from * n + to]: per-pair FIFO of encode_msg frames — the bytes the
  /// live Manager puts on the fabric.
  std::vector<std::deque<util::Bytes>> links_;

  // Budgets consumed so far (each gates its action in enabled()).
  int ops_done_ = 0;
  int crashes_ = 0;
  int restarts_ = 0;
  int drops_ = 0;
  int dups_ = 0;

  /// Proposed but not yet acknowledged: (token, index, term, leader).
  /// Dropped when the proposing leader crashes or steps down — the
  /// client never saw an ack, so losing the write is legal.
  struct PendingOp {
    std::uint64_t token = 0;
    std::uint64_t index = 0;
    std::uint64_t term = 0;
    int leader = -1;
  };
  std::vector<PendingOp> pending_;
  std::vector<AckedOp> acked_;
  std::uint64_t next_token_ = 1;

  /// Every replica ever observed leading each term (MC001).
  std::map<std::uint64_t, std::set<int>> leaders_by_term_;
};

}  // namespace npss::mc
