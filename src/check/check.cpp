#include "check/check.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>

#include "arch/arch.hpp"
#include "arch/float_format.hpp"
#include "util/sha256.hpp"
#include "uts/marshal_plan.hpp"

namespace npss::check {

std::string_view tool_version() { return "npss-uts-check 0.5.0"; }

namespace {

using uts::DeclKind;
using uts::ParamMode;
using uts::ProcDecl;
using uts::SourceLoc;
using uts::Type;
using uts::TypeKind;

std::string fold(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

std::string_view decl_kind_name(DeclKind kind) {
  return kind == DeclKind::kExport ? "export" : "import";
}

std::string at(const std::string& file, SourceLoc loc) {
  std::string out = file;
  if (loc.known()) {
    out += ':' + std::to_string(loc.line) + ':' + std::to_string(loc.column);
  }
  return out;
}

/// Path of the first string leaf strictly below the top of `type`, or ""
/// when none ("" also when the whole type IS a string — a scalar string
/// result is returnable, a string buried in fixed-layout storage is not).
std::string nested_string_path(const Type& type, const std::string& path,
                               bool top) {
  switch (type.kind()) {
    case TypeKind::kString:
      return top ? "" : path;
    case TypeKind::kArray:
      return nested_string_path(type.element(), path + "[]", false);
    case TypeKind::kRecord:
      for (const uts::Field& f : type.fields()) {
        std::string hit = nested_string_path(
            *f.type, path + ".\"" + f.name + "\"", false);
        if (!hit.empty()) return hit;
      }
      return "";
    default:
      return "";
  }
}

/// UTS006: duplicate field names in any record reachable from `type`.
void lint_record_fields(const Type& type, const std::string& path,
                        const std::string& file, SourceLoc loc,
                        std::vector<Diagnostic>& out) {
  if (type.kind() == TypeKind::kArray) {
    lint_record_fields(type.element(), path + "[]", file, loc, out);
    return;
  }
  if (type.kind() != TypeKind::kRecord) return;
  std::set<std::string> seen;
  for (const uts::Field& f : type.fields()) {
    if (!seen.insert(f.name).second) {
      out.push_back(Diagnostic{
          "UTS006", Severity::kError, file, loc,
          "duplicate field \"" + f.name + "\" in record", path});
    }
    lint_record_fields(*f.type, path + ".\"" + f.name + "\"", file, loc, out);
  }
}

Severity default_severity(const std::string& code) {
  for (const CodeInfo& info : diagnostic_code_table()) {
    if (info.code == code) return info.default_severity;
  }
  return Severity::kError;
}

/// The canonical IEEE format a leaf travels the wire in.
arch::FloatFormatKind canonical_format(TypeKind kind) {
  return kind == TypeKind::kFloat ? arch::FloatFormatKind::kIeee32
                                  : arch::FloatFormatKind::kIeee64;
}

arch::FloatFormatKind native_format(const arch::ArchDescriptor& arch,
                                    TypeKind kind) {
  return kind == TypeKind::kFloat ? arch.float_single : arch.float_double;
}

struct LeafVisitor {
  /// Invoke fn(path, kind) for every float/double leaf of `type`.
  template <typename Fn>
  static void walk(const Type& type, const std::string& path, Fn&& fn) {
    switch (type.kind()) {
      case TypeKind::kFloat:
      case TypeKind::kDouble:
        fn(path, type.kind());
        return;
      case TypeKind::kArray:
        walk(type.element(), path + "[]", fn);
        return;
      case TypeKind::kRecord:
        for (const uts::Field& f : type.fields()) {
          walk(*f.type, path + ".\"" + f.name + "\"", fn);
        }
        return;
      default:
        return;
    }
  }
};

}  // namespace

std::vector<Diagnostic> lint_spec(const uts::ParsedSpec& parsed,
                                  const std::string& file) {
  std::vector<Diagnostic> out;
  for (const uts::SpecIssue& issue : parsed.issues) {
    out.push_back(Diagnostic{issue.code, default_severity(issue.code), file,
                             issue.loc, issue.message, ""});
  }

  // UTS001: duplicate declaration names per kind, case-folded the way the
  // Manager's name index folds them (§4.1 Fortran synonyms).
  std::map<std::string, const ProcDecl*> seen[2];
  for (const ProcDecl& decl : parsed.file.decls) {
    auto& kind_seen = seen[static_cast<int>(decl.kind)];
    auto [it, fresh] = kind_seen.emplace(fold(decl.name), &decl);
    if (!fresh) {
      out.push_back(Diagnostic{
          "UTS001", Severity::kError, file, decl.loc,
          std::string(decl_kind_name(decl.kind)) + " '" + decl.name +
              "' duplicates '" + it->second->name + "' declared at " +
              at(file, it->second->loc) +
              " (names collide after Fortran case folding)",
          ""});
    }

    // UTS002: duplicate parameter names within the signature.
    std::set<std::string> params;
    for (std::size_t i = 0; i < decl.signature.size(); ++i) {
      const uts::Param& p = decl.signature[i];
      if (!params.insert(p.name).second) {
        out.push_back(Diagnostic{
            "UTS002", Severity::kError, file, decl.param_loc(i),
            "duplicate parameter \"" + p.name + "\" in " +
                std::string(decl_kind_name(decl.kind)) + " '" + decl.name +
                "'",
            ""});
      }

      // UTS004: a res/var parameter must be returnable into caller-owned
      // storage; a string nested inside an array or record makes the
      // layout variable below the top level, which no stub can preallocate.
      if (p.mode != ParamMode::kVal) {
        std::string hit =
            nested_string_path(p.type, "\"" + p.name + "\"", true);
        if (!hit.empty()) {
          out.push_back(Diagnostic{
              "UTS004", Severity::kError, file, decl.param_loc(i),
              std::string(uts::param_mode_name(p.mode)) + " parameter \"" +
                  p.name + "\" of '" + decl.name +
                  "' has unsupported shape: string nested in fixed-layout "
                  "storage",
              hit});
        }
      }

      // UTS006: duplicate record field names anywhere in the type.
      lint_record_fields(p.type, "\"" + p.name + "\"", file,
                         decl.param_loc(i), out);
    }
  }
  return out;
}

FileReport lint_spec_text(const std::string& file, std::string_view text) {
  FileReport report;
  report.file = file;
  report.sha256 = util::sha256_hex(text);
  uts::ParsedSpec parsed = uts::parse_spec_located(text);
  report.diags = lint_spec(parsed, file);
  report.spec = std::move(parsed.file);
  for (const uts::SpecIssue& issue : parsed.issues) {
    if (issue.fatal) report.parse_failed = true;
  }
  return report;
}

std::vector<Diagnostic> link_check(const std::vector<FileReport>& files,
                                   bool closed) {
  std::vector<Diagnostic> out;

  struct ExportSite {
    const FileReport* file;
    const ProcDecl* decl;
  };
  std::map<std::string, std::vector<ExportSite>> exports;
  for (const FileReport& f : files) {
    for (const ProcDecl& d : f.spec.decls) {
      if (d.kind == DeclKind::kExport) {
        exports[fold(d.name)].push_back(ExportSite{&f, &d});
      }
    }
  }

  // UTS103: a configuration (one line's worth of programs) must export each
  // name at most once — the Manager's name check would reject the second
  // registration at runtime.
  for (const auto& [name, sites] : exports) {
    for (std::size_t i = 1; i < sites.size(); ++i) {
      out.push_back(Diagnostic{
          "UTS103", Severity::kError, sites[i].file->file,
          sites[i].decl->loc,
          "procedure '" + sites[i].decl->name + "' already exported at " +
              at(sites[0].file->file, sites[0].decl->loc),
          ""});
    }
  }

  // UTS101/UTS102: every import must find exactly one compatible export.
  for (const FileReport& f : files) {
    for (const ProcDecl& d : f.spec.decls) {
      if (d.kind != DeclKind::kImport) continue;
      auto it = exports.find(fold(d.name));
      if (it == exports.end()) {
        out.push_back(Diagnostic{
            "UTS101", closed ? Severity::kError : Severity::kWarning, f.file,
            d.loc,
            "import '" + d.name + "' has no matching export in the "
            "configuration",
            ""});
        continue;
      }
      const ExportSite& site = it->second.front();
      std::string why = uts::signature_compatibility_error(
          d.signature, site.decl->signature);
      if (!why.empty()) {
        out.push_back(Diagnostic{
            "UTS102", Severity::kError, f.file, d.loc,
            "import '" + d.name + "' incompatible with export at " +
                at(site.file->file, site.decl->loc) + ": " + why,
            ""});
      }
    }
  }
  return out;
}

std::vector<Diagnostic> portability_check(
    const std::vector<FileReport>& files,
    const std::vector<std::string>& arch_keys) {
  std::vector<Diagnostic> out;
  if (arch_keys.size() < 2) return out;
  std::vector<const arch::ArchDescriptor*> archs;
  archs.reserve(arch_keys.size());
  for (const std::string& key : arch_keys) {
    archs.push_back(&arch::arch_catalog(key));  // throws on unknown key
  }

  // An import and its matching export carry the same leaves; report each
  // (procedure, leaf) once for the whole configuration.
  std::set<std::string> reported;
  for (const FileReport& f : files) {
    for (const ProcDecl& d : f.spec.decls) {
      for (std::size_t i = 0; i < d.signature.size(); ++i) {
        const uts::Param& p = d.signature[i];
        LeafVisitor::walk(
            p.type, "\"" + p.name + "\"",
            [&](const std::string& path, TypeKind kind) {
              if (!reported.insert(fold(d.name) + "\x1f" + path).second) {
                return;
              }
              const arch::FloatFormatKind canon = canonical_format(kind);
              std::vector<std::string> hazards;
              for (const arch::ArchDescriptor* src : archs) {
                for (const arch::ArchDescriptor* dst : archs) {
                  if (src == dst) continue;
                  // Wire path: src native -> canonical IEEE -> dst native;
                  // a range that any hop cannot subsume may raise the
                  // paper's §4.1 out-of-range error mid-run.
                  const bool encode_hazard = !arch::float_range_subsumes(
                      canon, native_format(*src, kind));
                  const bool decode_hazard = !arch::float_range_subsumes(
                      native_format(*dst, kind), canon);
                  if (encode_hazard || decode_hazard) {
                    hazards.push_back(src->name + "->" + dst->name);
                  }
                }
              }
              if (hazards.empty()) return;
              std::ostringstream msg;
              msg << (kind == TypeKind::kFloat ? "float" : "double")
                  << " leaf of '" << d.name
                  << "' cannot round-trip without range risk for: ";
              for (std::size_t h = 0; h < hazards.size(); ++h) {
                if (h) msg << ", ";
                msg << hazards[h];
              }
              out.push_back(Diagnostic{"UTS201", Severity::kWarning, f.file,
                                       d.param_loc(i), msg.str(), path});
            });
      }
    }
  }
  return out;
}

std::map<std::string, std::string> collect_exports(
    const std::vector<FileReport>& files) {
  std::map<std::string, std::string> out;
  for (const FileReport& f : files) {
    for (const ProcDecl& d : f.spec.decls) {
      if (d.kind != DeclKind::kExport) continue;
      out.emplace(d.name, uts::decl_to_string(d));
    }
  }
  return out;
}

std::vector<Diagnostic> RunResult::all_diagnostics() const {
  std::vector<Diagnostic> out;
  for (const FileReport& f : files) {
    out.insert(out.end(), f.diags.begin(), f.diags.end());
  }
  out.insert(out.end(), config_diags.begin(), config_diags.end());
  return out;
}

int RunResult::error_count() const {
  int n = 0;
  for (const Diagnostic& d : all_diagnostics()) {
    if (d.severity == Severity::kError) ++n;
  }
  return n;
}

int RunResult::warning_count() const {
  int n = 0;
  for (const Diagnostic& d : all_diagnostics()) {
    if (d.severity == Severity::kWarning) ++n;
  }
  return n;
}

RunResult run_check(
    const std::vector<std::pair<std::string, std::string>>& inputs,
    const RunOptions& options) {
  RunResult result;
  result.files.reserve(inputs.size());
  for (const auto& [file, text] : inputs) {
    result.files.push_back(lint_spec_text(file, text));
  }
  if (!options.lint_only) {
    result.config_diags = link_check(result.files, options.closed);
  }
  if (!options.arch_keys.empty()) {
    std::vector<Diagnostic> hazards =
        portability_check(result.files, options.arch_keys);
    result.config_diags.insert(result.config_diags.end(), hazards.begin(),
                               hazards.end());
  }
  return result;
}

std::string manifest_hash(const std::map<std::string, std::string>& exports) {
  std::string surface;
  for (const auto& [name, text] : exports) {
    surface += name;
    surface += '=';
    surface += text;
    surface += '\n';
  }
  return util::sha256_hex(surface);
}

std::string run_result_to_json(const RunResult& result) {
  std::ostringstream os;
  os << "{\n  \"tool_version\": \"" << json_escape(tool_version())
     << "\",\n  \"files\": [";
  for (std::size_t i = 0; i < result.files.size(); ++i) {
    if (i) os << ", ";
    os << "{\"file\": \"" << json_escape(result.files[i].file)
       << "\", \"sha256\": \"" << json_escape(result.files[i].sha256)
       << "\", \"parse_failed\": "
       << (result.files[i].parse_failed ? "true" : "false") << "}";
  }
  os << "],\n  \"diagnostics\": [";
  bool first = true;
  for (const Diagnostic& d : result.all_diagnostics()) {
    if (!first) os << ",";
    first = false;
    os << "\n    {\"code\": \"" << json_escape(d.code) << "\", \"severity\": \""
       << severity_name(d.severity) << "\", \"file\": \""
       << json_escape(d.file) << "\", \"line\": " << d.loc.line
       << ", \"column\": " << d.loc.column << ", \"message\": \""
       << json_escape(d.message) << "\"";
    if (!d.type_path.empty()) {
      os << ", \"type_path\": \"" << json_escape(d.type_path) << "\"";
    }
    os << "}";
  }
  os << "\n  ],\n  \"errors\": " << result.error_count()
     << ",\n  \"warnings\": " << result.warning_count() << ",\n  \"ok\": "
     << (result.ok() ? "true" : "false");

  std::map<std::string, std::string> exports = collect_exports(result.files);
  os << ",\n  \"manifest_sha256\": \"" << manifest_hash(exports) << "\"";
  os << ",\n  \"exports\": {";
  first = true;
  for (const auto& [name, text] : exports) {
    if (!first) os << ",";
    first = false;
    os << "\n    \"" << json_escape(name) << "\": \"" << json_escape(text)
       << "\"";
  }
  os << "\n  },\n  \"plans\": {";
  first = true;
  for (const FileReport& f : result.files) {
    for (const ProcDecl& d : f.spec.decls) {
      if (d.kind != DeclKind::kExport) continue;
      auto request = uts::compile_plan(d.signature, uts::Direction::kRequest);
      auto reply = uts::compile_plan(d.signature, uts::Direction::kReply);
      if (!first) os << ",";
      first = false;
      os << "\n    \"" << json_escape(d.name) << "\": {\"request_fixed_bytes\": "
         << (request->fixed_size()
                 ? static_cast<long>(request->fixed_wire_bytes())
                 : -1)
         << ", \"reply_fixed_bytes\": "
         << (reply->fixed_size() ? static_cast<long>(reply->fixed_wire_bytes())
                                 : -1)
         << "}";
    }
  }
  os << "\n  }\n}\n";
  return os.str();
}

namespace {

/// Just enough JSON to read back run_result_to_json documents.
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of JSON");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "' in JSON");
    }
    ++pos_;
  }

  bool consume(char c) {
    if (!at_end() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("bad escape in JSON string");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape in JSON string");
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            value <<= 4;
            if (h >= '0' && h <= '9') value |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') value |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') value |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape in JSON string");
          }
          // Our own writer only emits \u00xx control escapes.
          out += static_cast<char>(value & 0xff);
          break;
        }
        default:
          fail("bad escape in JSON string");
      }
    }
    if (pos_ >= text_.size()) fail("unterminated JSON string");
    ++pos_;  // closing quote
    return out;
  }

  void skip_value() {
    char c = peek();
    if (c == '"') {
      (void)parse_string();
    } else if (c == '{') {
      ++pos_;
      if (!consume('}')) {
        do {
          (void)parse_string();
          expect(':');
          skip_value();
        } while (consume(','));
        expect('}');
      }
    } else if (c == '[') {
      ++pos_;
      if (!consume(']')) {
        do {
          skip_value();
        } while (consume(','));
        expect(']');
      }
    } else {
      // number / true / false / null
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '-' || text_[pos_] == '+' ||
              text_[pos_] == '.' || text_[pos_] == 'e' ||
              text_[pos_] == 'E')) {
        ++pos_;
      }
    }
  }

  [[noreturn]] void fail(const std::string& what) {
    throw util::ParseError(what + " (offset " + std::to_string(pos_) + ")");
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Manifest load_manifest(std::string_view json) {
  JsonCursor cur(json);
  cur.expect('{');
  Manifest manifest;
  bool found = false;
  if (!cur.consume('}')) {
    do {
      std::string key = cur.parse_string();
      cur.expect(':');
      if (key == "exports") {
        found = true;
        cur.expect('{');
        if (!cur.consume('}')) {
          do {
            std::string name = cur.parse_string();
            cur.expect(':');
            manifest.exports[name] = cur.parse_string();
          } while (cur.consume(','));
          cur.expect('}');
        }
      } else if (key == "manifest_sha256") {
        manifest.manifest_sha256 = cur.parse_string();
      } else if (key == "tool_version") {
        manifest.tool_version = cur.parse_string();
      } else if (key == "files") {
        // [{"file": ..., "sha256": ..., "parse_failed": ...}, ...]
        cur.expect('[');
        if (!cur.consume(']')) {
          do {
            cur.expect('{');
            if (!cur.consume('}')) {
              do {
                std::string field = cur.parse_string();
                cur.expect(':');
                if (field == "sha256") {
                  manifest.spec_hashes.push_back(cur.parse_string());
                } else {
                  cur.skip_value();
                }
              } while (cur.consume(','));
              cur.expect('}');
            }
          } while (cur.consume(','));
          cur.expect(']');
        }
      } else {
        cur.skip_value();
      }
    } while (cur.consume(','));
    cur.expect('}');
  }
  if (!found) {
    throw util::ParseError("manifest JSON has no \"exports\" object");
  }
  return manifest;
}

std::map<std::string, std::string> load_manifest_json(std::string_view json) {
  return load_manifest(json).exports;
}

}  // namespace npss::check
