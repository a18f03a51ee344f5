// flow-lint — whole-configuration static analysis of a flow network
// description (UTS4xx).
//
// The flow executive validates a network incrementally while it is being
// built: Network::connect throws on the first bad edge. This pass lints the
// *serialized* network form — the text Network::save_to_text emits and
// load_from_text replays — in one sweep, reporting every problem with
// file:line positions and without instantiating live module state beyond a
// port/widget catalog:
//
//   UTS400 syntax error (bad verb, malformed line, unknown widget)
//   UTS401 unknown module type / duplicate instance
//   UTS402 dangling connection (unknown module or port)
//   UTS403 port type mismatch
//   UTS404 input with more than one source
//   UTS405 cycle outside a declared solver loop (`loop` verb)
//   UTS406 isolated module (warning)
//   UTS408 predicted wavefront width per level (note)
//
// A `loop <name> <module>...` line declares a solver loop: a cycle whose
// modules all belong to one declared loop is legal (the executive's solver
// iterates it); any other cycle is UTS405. The runtime loader ignores
// `loop` lines.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "check/diag.hpp"
#include "uts/types.hpp"

namespace npss::check {

/// Static port/widget surface of one module type.
struct ModuleTypeInfo {
  std::string type_name;
  std::vector<std::pair<std::string, uts::Type>> inputs;
  std::vector<std::pair<std::string, uts::Type>> outputs;
  std::vector<std::string> widgets;
};

/// The module types a network description may reference. Build one from
/// the live ModuleFactory (from_factory) or assemble synthetic entries in
/// tests.
class ModuleCatalog {
 public:
  void add(ModuleTypeInfo info);
  bool knows(const std::string& type_name) const;
  const ModuleTypeInfo& info(const std::string& type_name) const;
  std::vector<std::string> type_names() const;

  /// Snapshot every registered ModuleFactory type by instantiating it and
  /// running its spec() (no network involved).
  static ModuleCatalog from_factory();

 private:
  std::map<std::string, ModuleTypeInfo> types_;
};

struct FlowLintResult {
  std::vector<Diagnostic> diags;
  /// Predicted wavefront width per dependency level (empty when the graph
  /// had cycles or did not parse).
  std::vector<std::size_t> wavefront_widths;

  bool ok() const { return !has_errors(diags); }
  int error_count() const;
  int warning_count() const;
};

/// Lint one serialized network against the catalog.
FlowLintResult lint_network_text(const std::string& file,
                                 std::string_view text,
                                 const ModuleCatalog& catalog);

/// The `flow_lint --json` document for one or more lint results.
std::string flow_lint_to_json(
    const std::vector<std::pair<std::string, FlowLintResult>>& results);

}  // namespace npss::check
