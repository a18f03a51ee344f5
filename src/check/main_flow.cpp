// flow_lint — static analysis of serialized flow networks.
//
//   flow_lint [--json] <network-file>...
//
// Lints each saved network description (the Network::save_to_text form)
// against the registered module catalog: dangling connections, port type
// mismatches, ambiguous inputs, undeclared cycles and unreachable
// modules, plus the predicted wavefront width per dependency level (the
// modules the sequential executive runs one after another at that level).
// Exit status: 0 when clean (notes allowed), 1 when any error or warning
// was reported, 2 on usage or I/O problems.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "check/flowlint.hpp"
#include "flow/basic_modules.hpp"
#include "npss/modules.hpp"
#include "util/status.hpp"

namespace {

void usage(std::ostream& os) {
  os << "usage: flow_lint [--json] <network-file>...\n"
        "\n"
        "Static lint of serialized flow networks (the save_to_text form)\n"
        "against the basic + TESS module catalog. Exit 0 = clean (notes\n"
        "allowed), 1 = findings (errors or warnings), 2 = usage.\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "-h" || arg == "--help") {
      usage(std::cout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "flow_lint: unknown option '" << arg << "'\n";
      usage(std::cerr);
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::cerr << "flow_lint: no network files given\n";
    usage(std::cerr);
    return 2;
  }

  npss::flow::register_basic_modules();
  npss::glue::register_tess_modules();
  const npss::check::ModuleCatalog catalog =
      npss::check::ModuleCatalog::from_factory();

  bool any_errors = false;
  std::vector<std::pair<std::string, npss::check::FlowLintResult>> results;
  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "flow_lint: cannot open '" << path << "'\n";
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
      npss::check::FlowLintResult result =
          npss::check::lint_network_text(path, text.str(), catalog);
      any_errors =
          any_errors || !result.ok() || result.warning_count() > 0;
      if (!json) {
        std::cout << npss::check::render_human(result.diags);
        std::cout << path << ": " << result.error_count() << " error(s), "
                  << result.warning_count() << " warning(s)\n";
      }
      results.emplace_back(path, std::move(result));
    } catch (const npss::util::Error& e) {
      std::cerr << "flow_lint: " << e.what() << "\n";
      return 2;
    }
  }
  if (json) std::cout << npss::check::flow_lint_to_json(results);
  return any_errors ? 1 : 0;
}
