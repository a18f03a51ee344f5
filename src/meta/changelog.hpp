// The append-only changelog of Manager state transitions.
//
// Indices are 1-based and never reused. The log may be compacted from the
// front once a snapshot covers a prefix (truncate_prefix); first_index()
// then names the oldest retained record. A follower that needs records
// older than first_index() is served the snapshot instead — the
// snapshot + log-tail catch-up path.
//
// Threading: replica-thread confined (lock_hierarchy.md). A Changelog
// is owned by one replica's manager_main loop and is never shared, so
// it carries no lock; cross-replica effects travel as messages. Counter
// visibility to the bench thread goes through the replica's
// rpc::ManagerTally, never through this object.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "meta/record.hpp"
#include "util/status.hpp"

namespace npss::meta {

class Changelog {
 public:
  /// Leader append: assigns and returns the next index.
  std::uint64_t append(ChangeRecord record);

  /// Follower append at an explicit index. Returns false on a gap (the
  /// caller must fetch the missing tail); an index already held with the
  /// same term is a no-op returning true (duplicate delivery is
  /// harmless); an index already held with a *different* term is a
  /// conflict — the held suffix from that index on was written by a
  /// deposed leader and is discarded, then `record` is appended in its
  /// place. An index at or below the compacted prefix is a no-op
  /// returning true (the snapshot already covers it).
  bool append_at(std::uint64_t index, ChangeRecord record);

  std::uint64_t last_index() const {
    return base_ + static_cast<std::uint64_t>(records_.size());
  }
  /// Oldest retained index; 0 when the log is empty.
  std::uint64_t first_index() const {
    return records_.empty() ? 0 : base_ + 1;
  }
  std::size_t size() const { return records_.size(); }

  /// Throws ProtocolError when `index` is not retained.
  const ChangeRecord& at(std::uint64_t index) const;

  /// Election term of the entry at `index`. Defined for every index the
  /// log still knows about: retained entries answer their record's term,
  /// and the compaction/reset base answers the base term recorded when
  /// the prefix was dropped. Index 0 is term 0. Throws ProtocolError for
  /// an index below the base or beyond the last entry.
  std::uint64_t term_at(std::uint64_t index) const;

  /// Term of the newest entry (the base term when the log is fully
  /// compacted; 0 when nothing was ever appended).
  std::uint64_t last_term() const {
    return records_.empty() ? base_term_ : records_.back().term;
  }

  /// Drop every record with index >= from (conflict with a newer
  /// leader's log). No-op when `from` is past the end; throws
  /// ProtocolError when `from` would cut into the compacted prefix.
  void truncate_suffix(std::uint64_t from);

  /// All retained records with index >= from, as (index, record) pairs.
  std::vector<std::pair<std::uint64_t, ChangeRecord>> tail(
      std::uint64_t from) const;

  /// Drop every record with index <= upto (snapshot compaction).
  void truncate_prefix(std::uint64_t upto);

  /// Discard everything and restart after `base_index` (snapshot install:
  /// the next append_at must be base_index + 1). `base_term` is the term
  /// of entry `base_index` so prev-term consistency checks keep working
  /// across the compaction boundary.
  void reset(std::uint64_t base_index, std::uint64_t base_term = 0);

 private:
  std::uint64_t base_ = 0;  ///< index of the record before records_[0]
  std::uint64_t base_term_ = 0;  ///< term of entry base_ (0 = log start)
  std::deque<ChangeRecord> records_;
};

}  // namespace npss::meta
