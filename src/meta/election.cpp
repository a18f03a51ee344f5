#include "meta/election.hpp"

#include <string_view>

namespace npss::meta {

namespace {

// SplitMix64, the same generator family as sim::FaultInjector and the
// call-path backoff jitter: good dispersion, and deterministic.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::string_view role_name(Role role) {
  switch (role) {
    case Role::kFollower: return "follower";
    case Role::kCandidate: return "candidate";
    case Role::kLeader: return "leader";
  }
  return "?";
}

std::uint64_t candidate_rank(std::uint64_t seed, std::uint64_t term,
                             int replica_index) {
  return mix64(mix64(seed ^ 0x6d657461ULL) ^ mix64(term) ^
               static_cast<std::uint64_t>(replica_index));
}

int election_timeout_ms(std::uint64_t seed, std::uint64_t term,
                        int replica_index, int n_replicas, int base_ms) {
  // Position of this replica in the term's rank order (0 = first to wake).
  const std::uint64_t mine = candidate_rank(seed, term, replica_index);
  int position = 0;
  for (int i = 0; i < n_replicas; ++i) {
    if (i == replica_index) continue;
    const std::uint64_t other = candidate_rank(seed, term, i);
    if (other < mine || (other == mine && i < replica_index)) ++position;
  }
  return base_ms * (1 + 2 * position);
}

int slowest_election_timeout_ms(int n_replicas, int base_ms) {
  return base_ms * (2 * n_replicas - 1);
}

bool candidate_better(std::uint64_t last_index_a, std::uint64_t rank_a,
                      std::uint64_t last_index_b, std::uint64_t rank_b) {
  if (last_index_a != last_index_b) return last_index_a > last_index_b;
  return rank_a < rank_b;
}

bool candidate_better(std::uint64_t last_term_a, std::uint64_t last_index_a,
                      std::uint64_t rank_a, std::uint64_t last_term_b,
                      std::uint64_t last_index_b, std::uint64_t rank_b) {
  if (last_term_a != last_term_b) return last_term_a > last_term_b;
  if (last_index_a != last_index_b) return last_index_a > last_index_b;
  return rank_a < rank_b;
}

bool log_up_to_date(std::uint64_t their_last_term,
                    std::uint64_t their_last_index,
                    std::uint64_t our_last_term,
                    std::uint64_t our_last_index) {
  if (their_last_term != our_last_term) {
    return their_last_term > our_last_term;
  }
  return their_last_index >= our_last_index;
}

}  // namespace npss::meta
