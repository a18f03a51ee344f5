// The replicated half of the Manager's state.
//
// ReplicatedState is the pure, deterministic state machine the changelog
// drives: lines, the export table (per-process export groups keyed by
// process address, spec hashes included), and the line-id counter. It is
// what a follower mirrors, what a snapshot serializes, and the only state
// the Manager serves from: its leader answers lookups from the committed
// copy and checks writes against a projected copy (committed state plus
// its own uncommitted tail).
//
// Names resolve through a derived case-synonym index (§4.1): a binding is
// reachable by its exact, lower- and upper-case spellings, which is the
// same as comparing case-folded names. The index is rebuilt by
// deserialize() and kept current by apply(); it is not serialized and
// not part of digest().
//
// apply() is *idempotent by index*: every record carries its changelog
// index and a record at or below last_applied() is a no-op, so replaying
// an overlapping snapshot + log tail (or the same log twice) converges to
// the same table. Serialization is canonical — all containers are ordered
// — so two replicas with equal state produce byte-identical images and
// equal digest() values, which is how the fault suite proves the export
// table survived a failover intact.
//
// Threading: replica-thread confined (lock_hierarchy.md). Each replica
// owns its committed ReplicatedState (and, while it leads, the projected
// copy), mutated only from its own manager_main fiber; replication
// happens by shipping records/snapshots, not by sharing these objects, so
// they are deliberately lock-free and carry no thread-safety annotations.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "meta/record.hpp"
#include "util/bytes.hpp"

namespace npss::meta {

/// Every procedure one process registered in one kExport handshake.
struct ExportGroup {
  std::int64_t line = -1;  ///< -1 (kNoLine) for shared procedures
  bool shared = false;
  std::string machine;
  std::string path;
  std::string spec_hash;  ///< the PR 5 spec sha256 the exporter stamped
  std::vector<std::pair<std::string, std::string>> procs;

  bool operator==(const ExportGroup&) const = default;
};

struct LineInfo {
  std::string description;
  /// Outstanding-call quota the leader granted at admission (0 =
  /// unlimited); replicated so a new leader re-states the same policy.
  std::int64_t quota = 0;

  bool operator==(const LineInfo&) const = default;
};

/// Lower-case ASCII fold: two names are case synonyms when their folds
/// are equal.
std::string fold_case(std::string_view name);

/// What a name resolves to: the exporting process and the procedure's
/// (canonical name, export declaration text). References into the state;
/// valid until its next apply().
struct ProcRef {
  const std::string& address;
  const std::pair<std::string, std::string>& proc;
};

class ReplicatedState {
 public:
  /// Apply `record` as changelog entry `index`. Returns false (and changes
  /// nothing) when index <= last_applied() — the replay-idempotence rule.
  bool apply(const ChangeRecord& record, std::uint64_t index);

  std::uint64_t last_applied() const { return last_applied_; }
  std::int64_t next_line() const { return next_line_; }

  const std::map<std::int64_t, LineInfo>& lines() const { return lines_; }
  /// Export table: process address -> its export group.
  const std::map<std::string, ExportGroup>& exports() const {
    return exports_;
  }

  /// The procedure `name` (any case synonym) names in one name database:
  /// line `db`'s, or the shared one when `db` is -1 (kNoLine).
  std::optional<ProcRef> find(std::int64_t db, std::string_view name) const;

  /// Canonical snapshot image (versioned; see kStateVersion).
  util::Bytes serialize() const;
  static ReplicatedState deserialize(std::span<const std::uint8_t> bytes);

  /// sha256 of the canonical image — the export-table fingerprint the
  /// failover transcript compares across a leader change.
  std::string digest() const;

  /// Equal tables at the same log position (the derived index follows).
  bool operator==(const ReplicatedState& other) const {
    return last_applied_ == other.last_applied_ &&
           next_line_ == other.next_line_ && lines_ == other.lines_ &&
           exports_ == other.exports_;
  }

 private:
  void add_names(const std::string& address, const ExportGroup& group);
  void drop_names(const std::string& address, const ExportGroup& group);

  std::uint64_t last_applied_ = 0;
  std::int64_t next_line_ = 1;
  std::map<std::int64_t, LineInfo> lines_;
  std::map<std::string, ExportGroup> exports_;
  /// (name database, folded name) -> (address, position in its procs).
  std::map<std::pair<std::int64_t, std::string>,
           std::pair<std::string, std::size_t>>
      names_;
};

/// v2: + LineInfo::quota (admission-control grant).
constexpr std::uint8_t kStateVersion = 2;

}  // namespace npss::meta
