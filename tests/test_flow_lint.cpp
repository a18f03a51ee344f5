// flow_lint (UTS4xx) suite: every seeded bad network under
// tests/networks/bad/ must be flagged with its expected code, the clean
// networks (including the serialized F100 engine) must lint clean, and
// the predicted wavefront widths must match the live scheduler's levels.
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/flowlint.hpp"
#include "flow/basic_modules.hpp"
#include "flow/network.hpp"
#include "npss/modules.hpp"
#include "npss/network_driver.hpp"
#include "util/status.hpp"

namespace fs = std::filesystem;
using npss::check::FlowLintResult;
using npss::check::ModuleCatalog;

namespace {

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

const ModuleCatalog& catalog() {
  static const ModuleCatalog instance = [] {
    npss::flow::register_basic_modules();
    npss::glue::register_tess_modules();
    return ModuleCatalog::from_factory();
  }();
  return instance;
}

FlowLintResult lint_file(const fs::path& path) {
  return npss::check::lint_network_text(path.string(), slurp(path),
                                        catalog());
}

bool has_code(const FlowLintResult& result, const std::string& code) {
  for (const npss::check::Diagnostic& d : result.diags) {
    if (d.code == code) return true;
  }
  return false;
}

/// Expected code per seeded bad network; a directory entry without a row
/// here fails the sweep, so the corpus and its expectations stay in sync.
const std::map<std::string, std::string>& expected_codes() {
  static const std::map<std::string, std::string> table = {
      {"dangling_port.net", "UTS402"},
      {"unknown_port.net", "UTS402"},
      {"unknown_type.net", "UTS401"},
      {"duplicate_instance.net", "UTS401"},
      {"type_mismatch.net", "UTS403"},
      {"ambiguous_input.net", "UTS404"},
      {"undeclared_cycle.net", "UTS405"},
      {"bad_widget.net", "UTS400"},
      {"bad_verb.net", "UTS400"},
  };
  return table;
}

TEST(BadNetworks, EveryCaseFlaggedWithExpectedCode) {
  int cases = 0;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(fs::path(FLOW_LINT_NETWORK_DIR) / "bad")) {
    const std::string name = entry.path().filename().string();
    ++cases;
    auto expect = expected_codes().find(name);
    ASSERT_NE(expect, expected_codes().end())
        << "bad network '" << name << "' has no expectation wired";
    FlowLintResult result = lint_file(entry.path());
    EXPECT_TRUE(has_code(result, expect->second))
        << name << " should report " << expect->second;
    EXPECT_TRUE(result.error_count() > 0 || result.warning_count() > 0)
        << name;
  }
  EXPECT_EQ(cases, static_cast<int>(expected_codes().size()));
}

TEST(CleanNetworks, QuickstartLintsClean) {
  FlowLintResult result =
      lint_file(fs::path(FLOW_LINT_NETWORK_DIR) / "quickstart.net");
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.warning_count(), 0);
  // src feeds two sinks: levels {src} then {mon, chart}.
  ASSERT_EQ(result.wavefront_widths.size(), 2u);
  EXPECT_EQ(result.wavefront_widths[0], 1u);
  EXPECT_EQ(result.wavefront_widths[1], 2u);
  EXPECT_TRUE(has_code(result, "UTS408"));
}

// The serialized form of the live F100 network must lint clean, and the
// predicted wavefront widths must agree with the levels the scheduler
// actually builds — the lint is a faithful static model of evaluate().
TEST(CleanNetworks, F100EngineMatchesLiveWavefronts) {
  npss::flow::Network net;
  npss::glue::build_f100_network(net);
  FlowLintResult result =
      npss::check::lint_network_text("f100", net.save_to_text(), catalog());
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.warning_count(), 0);

  const std::vector<std::vector<std::string>> live = net.wavefronts();
  ASSERT_EQ(result.wavefront_widths.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(result.wavefront_widths[i], live[i].size()) << "level " << i;
  }
}

TEST(DeclaredLoop, LegalizesCycleAndRuntimeLoaderIgnoresIt) {
  const std::string text =
      "module intake tess-inlet\n"
      "module mix tess-mixer\n"
      "module pipe tess-duct\n"
      "connect intake out mix core\n"
      "connect mix out pipe in\n"
      "connect pipe out mix bypass\n"
      "loop mixer-balance mix pipe\n";
  FlowLintResult result =
      npss::check::lint_network_text("looped", text, catalog());
  EXPECT_FALSE(has_code(result, "UTS405"));
  EXPECT_TRUE(result.ok());

  // Without the declaration the same cycle is UTS405.
  const std::string undeclared = text.substr(0, text.find("loop "));
  FlowLintResult bad =
      npss::check::lint_network_text("undeclared", undeclared, catalog());
  EXPECT_TRUE(has_code(bad, "UTS405"));

  // The runtime loader skips `loop` lines (flow_lint metadata only) —
  // everything else must load; the cycle itself is the executive's error.
  npss::flow::Network net;
  EXPECT_THROW(net.load_from_text(text), npss::util::GraphError);
  npss::flow::Network ok;
  ok.load_from_text(
      "module src constant\nmodule mon monitor\nconnect src out mon in\n"
      "loop solo src\n");
  EXPECT_EQ(ok.module_names().size(), 2u);
}

/// A module type nothing ever registered with the ModuleFactory — the
/// static pass cannot vet a network containing one (UTS401).
class UnregisteredModule final : public npss::flow::Module {
 public:
  std::string type_name() const override { return "bespoke-unregistered"; }
  void spec(npss::flow::ModuleSpec& spec) override {
    spec.input("in", npss::uts::Type::real_double());
  }
  void compute() override {}
};

TEST(DriverLint, RejectsBrokenEngineNetworkAtStartup) {
  // An engine over a valid F100 network starts fine (lint runs in the
  // constructor)...
  npss::flow::Network good;
  npss::glue::F100NetworkNames names = npss::glue::build_f100_network(good);
  EXPECT_NO_THROW({ npss::glue::NetworkEngine engine(good, names); });

  // ...but a network whose serialized form the static pass cannot vet —
  // here a module type absent from the factory — is refused before any
  // evaluate.
  npss::flow::Network bad;
  npss::glue::build_f100_network(bad);
  bad.add("rogue", std::make_unique<UnregisteredModule>());
  EXPECT_THROW({ npss::glue::NetworkEngine engine(bad, {}); },
               npss::util::GraphError);
}

TEST(FlowLintJson, CarriesCodesAndWidths) {
  FlowLintResult result =
      lint_file(fs::path(FLOW_LINT_NETWORK_DIR) / "quickstart.net");
  const std::string json = npss::check::flow_lint_to_json(
      {{"quickstart.net", std::move(result)}});
  EXPECT_NE(json.find("UTS408"), std::string::npos);
  EXPECT_NE(json.find("wavefront_widths"), std::string::npos);
  EXPECT_NE(json.find("quickstart.net"), std::string::npos);
}

}  // namespace
