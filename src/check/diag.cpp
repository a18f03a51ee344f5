#include "check/diag.hpp"

#include <sstream>

namespace npss::check {

std::string_view severity_name(Severity severity) {
  switch (severity) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kNote: return "note";
  }
  return "error";
}

std::string to_string(const Diagnostic& diag) {
  std::ostringstream os;
  if (!diag.file.empty()) {
    os << diag.file << ':';
    if (diag.loc.known()) os << diag.loc.line << ':' << diag.loc.column << ':';
    os << ' ';
  }
  os << severity_name(diag.severity) << ": " << diag.code << ": "
     << diag.message;
  if (!diag.type_path.empty()) os << " [" << diag.type_path << "]";
  return os.str();
}

std::string render_human(const std::vector<Diagnostic>& diags) {
  std::string out;
  for (const Diagnostic& d : diags) {
    out += to_string(d);
    out += '\n';
  }
  return out;
}

bool has_errors(const std::vector<Diagnostic>& diags) {
  for (const Diagnostic& d : diags) {
    if (d.severity == Severity::kError) return true;
  }
  return false;
}

const std::vector<CodeInfo>& diagnostic_code_table() {
  static const std::vector<CodeInfo> table = {
      {"UTS001", Severity::kError,
       "duplicate declaration name in one spec file (after Fortran case "
       "folding, the Manager's §4.1 synonym rule)"},
      {"UTS002", Severity::kError, "duplicate parameter name in a signature"},
      {"UTS003", Severity::kError, "zero or negative array bound"},
      {"UTS004", Severity::kError,
       "res/var parameter of unsupported shape: a string nested inside an "
       "array or record cannot be returned into caller-allocated storage"},
      {"UTS005", Severity::kError, "empty record"},
      {"UTS006", Severity::kError, "duplicate field name in a record"},
      {"UTS010", Severity::kError, "specification syntax error"},
      {"UTS101", Severity::kWarning,
       "import has no matching export in the configuration (error with "
       "--closed)"},
      {"UTS102", Severity::kError,
       "import incompatible with its export (arity, parameter types, or "
       "val/res/var directions)"},
      {"UTS103", Severity::kError,
       "procedure name exported more than once in the configuration"},
      {"UTS201", Severity::kWarning,
       "float/double leaf cannot round-trip between the given architectures "
       "without risking a range error"},
      {"UTS301", Severity::kError,
       "export removed or renamed between spec versions: existing importers "
       "can no longer bind"},
      {"UTS302", Severity::kError,
       "parameter type changed incompatibly between spec versions (shape, "
       "record field order, or narrowed array bound)"},
      {"UTS303", Severity::kError,
       "parameter val/res/var mode changed between spec versions"},
      {"UTS304", Severity::kError,
       "parameter removed or reordered between spec versions: old imports "
       "are no longer a subsequence of the export"},
      {"UTS310", Severity::kNote,
       "new export added (wire-compatible: no existing importer binds it)"},
      {"UTS311", Severity::kNote,
       "parameter added to an export (wire-compatible: old imports remain a "
       "subsequence, footnote-1 rule)"},
      {"UTS312", Severity::kNote,
       "array bound widened on a val parameter (wire-compatible: the wire "
       "layout follows the caller's import signature)"},
      {"UTS400", Severity::kError,
       "network description syntax error (malformed line, unknown verb, or "
       "unknown widget)"},
      {"UTS401", Severity::kError,
       "invalid module declaration: unknown module type or duplicate "
       "instance name"},
      {"UTS402", Severity::kError,
       "dangling connection: unknown module instance or port name"},
      {"UTS403", Severity::kError,
       "port type mismatch on a connection (source output type != "
       "destination input type)"},
      {"UTS404", Severity::kError,
       "ambiguous input: more than one source drives the same input port"},
      {"UTS405", Severity::kError,
       "cycle outside a declared solver loop (the wavefront scheduler "
       "requires a DAG)"},
      {"UTS406", Severity::kWarning,
       "isolated module: it has ports but none are connected, so the "
       "scheduler runs it for nothing"},
      {"UTS408", Severity::kNote,
       "predicted wavefront width for a dependency level (the modules the "
       "executive runs one after another at that level)"},
      {"MC001", Severity::kError,
       "election safety violated: two replicas both led the same term"},
      {"MC002", Severity::kError,
       "log consistency violated: two replicas committed different records "
       "at the same index"},
      {"MC003", Severity::kError,
       "durability violated: a client-acknowledged change is missing from "
       "the current leader's log and state"},
      {"MC004", Severity::kError,
       "convergence violated: two replicas applied the same index but their "
       "state digests differ"},
      {"MC005", Severity::kError,
       "replay idempotence violated: re-applying a replica's own log to its "
       "snapshot does not reproduce its state"},
  };
  return table;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace npss::check
