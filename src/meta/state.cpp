#include "meta/state.hpp"

#include <algorithm>
#include <cctype>

#include "util/sha256.hpp"

namespace npss::meta {

using util::ByteReader;
using util::ByteWriter;

std::string fold_case(std::string_view name) {
  std::string folded(name);
  for (char& c : folded) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return folded;
}

std::optional<ProcRef> ReplicatedState::find(std::int64_t db,
                                             std::string_view name) const {
  auto it = names_.find({db, fold_case(name)});
  if (it == names_.end()) return std::nullopt;
  const auto& [address, group] = *exports_.find(it->second.first);
  return ProcRef{address, group.procs[it->second.second]};
}

void ReplicatedState::add_names(const std::string& address,
                                const ExportGroup& group) {
  const std::int64_t db = group.shared ? -1 : group.line;
  for (std::size_t i = 0; i < group.procs.size(); ++i) {
    names_.try_emplace({db, fold_case(group.procs[i].first)}, address, i);
  }
}

void ReplicatedState::drop_names(const std::string& address,
                                 const ExportGroup& group) {
  const std::int64_t db = group.shared ? -1 : group.line;
  for (const auto& [name, sig] : group.procs) {
    auto it = names_.find({db, fold_case(name)});
    if (it != names_.end() && it->second.first == address) names_.erase(it);
  }
}

bool ReplicatedState::apply(const ChangeRecord& record, std::uint64_t index) {
  if (index <= last_applied_) return false;
  switch (record.kind) {
    case RecordKind::kLineCreate:
      lines_[record.line] = LineInfo{record.note, record.quota};
      next_line_ = std::max(next_line_, record.line + 1);
      break;
    case RecordKind::kLineQuit: {
      lines_.erase(record.line);
      // The line's processes are shut down with it; shared exports stay.
      for (auto it = exports_.begin(); it != exports_.end();) {
        if (!it->second.shared && it->second.line == record.line) {
          drop_names(it->first, it->second);
          it = exports_.erase(it);
        } else {
          ++it;
        }
      }
      break;
    }
    case RecordKind::kExport: {
      ExportGroup group;
      group.line = record.line;
      group.shared = record.shared;
      group.machine = record.machine;
      group.path = record.path;
      group.spec_hash = record.spec_hash;
      group.procs = record.procs;
      auto [it, fresh] = exports_.try_emplace(record.address);
      if (!fresh) drop_names(it->first, it->second);
      it->second = std::move(group);
      add_names(it->first, it->second);
      break;
    }
    case RecordKind::kRetire: {
      auto it = exports_.find(record.address);
      if (it == exports_.end()) break;
      drop_names(it->first, it->second);
      exports_.erase(it);
      break;
    }
    case RecordKind::kNoop:
      break;  // advances last_applied_ only — the new-leader barrier
  }
  last_applied_ = index;
  return true;
}

util::Bytes ReplicatedState::serialize() const {
  ByteWriter out;
  out.u8(kStateVersion);
  out.u64(last_applied_);
  out.i64(next_line_);
  out.u32(static_cast<std::uint32_t>(lines_.size()));
  for (const auto& [id, info] : lines_) {
    out.i64(id);
    out.str(info.description);
    out.i64(info.quota);  // v2 field
  }
  out.u32(static_cast<std::uint32_t>(exports_.size()));
  for (const auto& [address, group] : exports_) {
    out.str(address);
    out.i64(group.line);
    out.u8(group.shared ? 1 : 0);
    out.str(group.machine);
    out.str(group.path);
    out.str(group.spec_hash);
    out.u32(static_cast<std::uint32_t>(group.procs.size()));
    for (const auto& [name, sig] : group.procs) {
      out.str(name);
      out.str(sig);
    }
  }
  return std::move(out).take();
}

ReplicatedState ReplicatedState::deserialize(
    std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  const std::uint8_t version = in.u8();
  if (version == 0 || version > kStateVersion) {
    throw util::EncodingError("unsupported snapshot image version " +
                              std::to_string(version));
  }
  ReplicatedState state;
  state.last_applied_ = in.u64();
  state.next_line_ = in.i64();
  const std::uint32_t nlines = in.u32();
  if (static_cast<std::size_t>(nlines) * 12 > in.remaining()) {
    throw util::EncodingError("snapshot line count exceeds image size");
  }
  for (std::uint32_t i = 0; i < nlines; ++i) {
    const std::int64_t id = in.i64();
    LineInfo info;
    info.description = in.str();
    if (version >= 2) info.quota = in.i64();  // absent (0) in v1 images
    state.lines_[id] = std::move(info);
  }
  const std::uint32_t ngroups = in.u32();
  if (static_cast<std::size_t>(ngroups) * 8 > in.remaining()) {
    throw util::EncodingError("snapshot export count exceeds image size");
  }
  for (std::uint32_t i = 0; i < ngroups; ++i) {
    std::string address = in.str();
    ExportGroup group;
    group.line = in.i64();
    group.shared = in.u8() != 0;
    group.machine = in.str();
    group.path = in.str();
    group.spec_hash = in.str();
    const std::uint32_t nprocs = in.u32();
    if (static_cast<std::size_t>(nprocs) * 8 > in.remaining()) {
      throw util::EncodingError("snapshot proc count exceeds image size");
    }
    group.procs.reserve(nprocs);
    for (std::uint32_t p = 0; p < nprocs; ++p) {
      std::string name = in.str();
      std::string sig = in.str();
      group.procs.emplace_back(std::move(name), std::move(sig));
    }
    auto [it, fresh] =
        state.exports_.emplace(std::move(address), std::move(group));
    if (fresh) state.add_names(it->first, it->second);
  }
  if (!in.exhausted()) {
    throw util::EncodingError("trailing bytes in snapshot image");
  }
  return state;
}

std::string ReplicatedState::digest() const {
  // Fingerprint the *table* (lines + exports), not the log position: a
  // replica that applied more records but holds the same table must
  // compare equal, or the failover transcript could never match.
  ReplicatedState table = *this;
  table.last_applied_ = 0;
  util::Bytes image = table.serialize();
  return util::sha256_hex(std::string_view(
      reinterpret_cast<const char*>(image.data()), image.size()));
}

}  // namespace npss::meta
