// Deterministic leader-election primitives for the Manager replica group.
//
// Elections must be reproducible: the fault suite's contract (PR 3) is
// that the same seed produces the same recovery, and a timing race between
// two candidates would break it. Two mechanisms make the outcome a pure
// function of (seed, term, who is alive, log lengths) instead of host
// scheduling:
//
//  1. *Staggered candidacy.* Each replica's election timeout for term t is
//     base * (1 + 2 * position), where position orders the replicas by a
//     seeded per-term rank — so would-be candidates wake far enough apart
//     (>= 2 * base) that the first one finishes before the next wakes.
//  2. *Total candidate order.* Votes (and candidate yields) prefer the
//     longer log, tie-broken by the lower rank. Even if scheduling ever
//     produced simultaneous candidates, both orderings agree on one
//     winner, so the election result is deterministic regardless.
//
// Threading: pure functions of their arguments — no shared state, no
// locks; callable from any replica thread (lock_hierarchy.md).
#pragma once

#include <cstdint>
#include <string_view>

namespace npss::meta {

enum class Role : std::uint8_t { kFollower = 0, kCandidate, kLeader };

std::string_view role_name(Role role);

/// Seeded per-term rank of a replica; lower rank wins ties.
std::uint64_t candidate_rank(std::uint64_t seed, std::uint64_t term,
                             int replica_index);

/// Election timeout (ms of host time without a heartbeat) before
/// `replica_index` stands for election in `term`. Staggered by the
/// replica's rank position among `n_replicas` so candidacies are serialized.
int election_timeout_ms(std::uint64_t seed, std::uint64_t term,
                        int replica_index, int n_replicas, int base_ms);

/// The longest election_timeout_ms any replica of an `n_replicas` group
/// can draw, base * (2n - 1): a follower that has heard no heartbeat for
/// this long has stood for election, whatever its rank.
int slowest_election_timeout_ms(int n_replicas, int base_ms);

/// The vote/yield ordering: true when candidate a (log length, rank)
/// should win over candidate b.
bool candidate_better(std::uint64_t last_index_a, std::uint64_t rank_a,
                      std::uint64_t last_index_b, std::uint64_t rank_b);

/// Term-aware vote/yield ordering for the quorum-commit protocol:
/// (last log term, last index) lexicographically, rank as tie-break.
bool candidate_better(std::uint64_t last_term_a, std::uint64_t last_index_a,
                      std::uint64_t rank_a, std::uint64_t last_term_b,
                      std::uint64_t last_index_b, std::uint64_t rank_b);

/// The election restriction: a voter grants only when the candidate's
/// log is at least as up to date as its own — (last term, last index)
/// compared lexicographically. This is what makes the commit rule sound:
/// a majority-committed entry lives on a majority, so any electable
/// candidate carries it.
bool log_up_to_date(std::uint64_t their_last_term,
                    std::uint64_t their_last_index,
                    std::uint64_t our_last_term,
                    std::uint64_t our_last_index);

}  // namespace npss::meta
