// The uts-check static analyzer: the seeded bad-spec corpus pinned to its
// diagnostic codes, clean runs over the good specs, the JSON manifest
// round trip, portability screening, and the strict-mode Manager that
// rejects a drifted export at startup — before any call is issued.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "check/check.hpp"
#include "obs/metrics.hpp"
#include "rpc/host.hpp"
#include "rpc/schooner.hpp"
#include "util/sha256.hpp"

#ifndef UTS_CHECK_SPEC_DIR
#error "UTS_CHECK_SPEC_DIR must point at tests/specs"
#endif

namespace npss {
namespace {

using check::Diagnostic;
using check::RunOptions;
using check::RunResult;
using check::Severity;

/// No deadline, one stale-binding retry: the historical call contract.
const rpc::CallOptions kLegacy = rpc::CallOptions::legacy();

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

RunResult check_files(const std::vector<std::string>& relative,
                      RunOptions options = {}) {
  std::vector<std::pair<std::string, std::string>> inputs;
  for (const std::string& rel : relative) {
    std::string path = std::string(UTS_CHECK_SPEC_DIR) + "/" + rel;
    inputs.emplace_back(rel, read_file(path));
  }
  return check::run_check(inputs, options);
}

bool has_code(const std::vector<Diagnostic>& diags, std::string_view code) {
  for (const Diagnostic& d : diags) {
    if (d.code == code) return true;
  }
  return false;
}

// --- Seeded bad corpus: every file carries its expected code ------------

struct CorpusCase {
  const char* file;
  const char* code;
};

class BadCorpus : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(BadCorpus, FlaggedWithExpectedCode) {
  RunOptions closed;
  closed.closed = true;
  RunResult result = check_files({std::string("bad/") + GetParam().file},
                                 closed);
  std::vector<Diagnostic> diags = result.all_diagnostics();
  EXPECT_TRUE(has_code(diags, GetParam().code))
      << GetParam().file << " should raise " << GetParam().code << "; got:\n"
      << check::render_human(diags);
  EXPECT_FALSE(result.ok()) << GetParam().file << " should have errors";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BadCorpus,
    ::testing::Values(CorpusCase{"dup_export.spec", "UTS001"},
                      CorpusCase{"dup_param.spec", "UTS002"},
                      CorpusCase{"bad_bound.spec", "UTS003"},
                      CorpusCase{"res_string_nested.spec", "UTS004"},
                      CorpusCase{"empty_record.spec", "UTS005"},
                      CorpusCase{"dup_field.spec", "UTS006"},
                      CorpusCase{"syntax_error.spec", "UTS010"},
                      CorpusCase{"wrong_arity.spec", "UTS102"},
                      CorpusCase{"swapped_directions.spec", "UTS102"},
                      CorpusCase{"float_vs_double.spec", "UTS102"},
                      CorpusCase{"unmatched_import.spec", "UTS101"},
                      CorpusCase{"ambiguous_export.spec", "UTS103"}),
    [](const auto& info) {
      std::string name = info.param.file;
      return name.substr(0, name.find('.'));
    });

TEST(UtsCheckGood, ShaftConfigurationIsCleanAndClosed) {
  RunOptions closed;
  closed.closed = true;
  RunResult result = check_files({"shaft.spec", "shaft_exports.spec"}, closed);
  EXPECT_EQ(result.error_count(), 0)
      << check::render_human(result.all_diagnostics());
  EXPECT_EQ(result.warning_count(), 0)
      << check::render_human(result.all_diagnostics());
}

TEST(UtsCheckGood, ShaftSpecAloneLintsCleanWithOpenImports) {
  // Without the exporting program's spec the imports are merely open —
  // a warning, never an error (shaft.spec must keep exiting 0).
  RunResult result = check_files({"shaft.spec"});
  EXPECT_EQ(result.error_count(), 0);
  EXPECT_TRUE(has_code(result.all_diagnostics(), "UTS101"));
  for (const Diagnostic& d : result.all_diagnostics()) {
    EXPECT_EQ(d.severity, Severity::kWarning) << check::to_string(d);
  }
}

TEST(UtsCheckLint, DiagnosticsCarryFileLineColumn) {
  check::FileReport report = check::lint_spec_text(
      "probe.spec", "export f prog(\n  \"a\" val array[0] of float)");
  ASSERT_EQ(report.diags.size(), 1u);
  EXPECT_EQ(report.diags[0].code, "UTS003");
  EXPECT_EQ(report.diags[0].file, "probe.spec");
  EXPECT_EQ(report.diags[0].loc.line, 2);
  EXPECT_EQ(report.diags[0].loc.column, 17);
  EXPECT_NE(check::to_string(report.diags[0]).find("probe.spec:2:17"),
            std::string::npos);
}

TEST(UtsCheckLink, MismatchedPairRejectedStatically) {
  // The Manager would only find this when the call happens; uts_check
  // rejects the configuration before anything runs.
  RunResult result = check::run_check(
      {{"server.spec", "export f prog(\"x\" val double, \"y\" res double)"},
       {"client.spec", "import f prog(\"x\" val integer, \"y\" res double)"}});
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_code(result.all_diagnostics(), "UTS102"));
}

TEST(UtsCheckPortability, CrayRangeHazardFlaggedWithTypePath) {
  RunOptions options;
  options.arch_keys = {"cray-ymp", "sun-sparc10"};
  RunResult result = check::run_check(
      {{"grid.spec",
        "export grid prog(\"mesh\" val array[2] of record \"v\": double "
        "end)"}},
      options);
  std::vector<Diagnostic> diags = result.all_diagnostics();
  ASSERT_TRUE(has_code(diags, "UTS201")) << check::render_human(diags);
  for (const Diagnostic& d : diags) {
    if (d.code != "UTS201") continue;
    EXPECT_EQ(d.severity, Severity::kWarning);
    EXPECT_EQ(d.type_path, "\"mesh\"[].\"v\"");
    EXPECT_NE(d.message.find("cray-ymp->sun-sparc10"), std::string::npos)
        << d.message;
  }
  // All-IEEE machines have no hazard.
  options.arch_keys = {"sun-sparc10", "sgi-4d340"};
  RunResult ieee = check::run_check(
      {{"grid.spec",
        "export grid prog(\"mesh\" val array[2] of record \"v\": double "
        "end)"}},
      options);
  EXPECT_FALSE(has_code(ieee.all_diagnostics(), "UTS201"));
}

TEST(UtsCheckManifest, JsonRoundTripsExportTable) {
  RunResult result = check_files({"shaft.spec", "shaft_exports.spec"});
  std::string json = check::run_result_to_json(result);
  std::map<std::string, std::string> manifest =
      check::load_manifest_json(json);
  EXPECT_EQ(manifest.size(), 3u);  // setshaft, shaft, probe
  ASSERT_TRUE(manifest.contains("probe"));
  // The manifest text parses back to the original declaration.
  uts::ProcDecl decl = rpc::parse_signature_text(manifest.at("probe"));
  EXPECT_EQ(decl.name, "probe");
  EXPECT_EQ(decl.signature.size(), 4u);
}

TEST(UtsCheckManifest, LoaderRejectsMalformedJson) {
  EXPECT_THROW((void)check::load_manifest_json("{\"diagnostics\": []}"),
               util::ParseError);
  EXPECT_THROW((void)check::load_manifest_json("not json"),
               util::ParseError);
}

// --- Strict-mode Manager ------------------------------------------------

const char* kAddExport = R"(
  export add prog(
    "x" val double,
    "y" val double,
    "sum" res double)
)";

const char* kAddImport = R"(
  import add prog(
    "x" val double,
    "y" val double,
    "sum" res double)
)";

sim::ProgramImage add_image() {
  return rpc::make_procedure_image(
      kAddExport, {{"add", [](rpc::ProcCall& call) {
                      call.set_real("sum", call.real("x") + call.real("y"));
                    }}});
}

std::map<std::string, std::string> manifest_for(const char* spec_text) {
  RunResult result = check::run_check({{"config.spec", spec_text}});
  EXPECT_TRUE(result.ok());
  return check::load_manifest_json(check::run_result_to_json(result));
}

TEST(StrictManager, MatchingManifestPassesAndCallsWork) {
  obs::set_enabled(true);
  const std::uint64_t pass_before =
      obs::Registry::global().counter("rpc.manager.static_check_pass").value();

  sim::Cluster cluster;
  cluster.add_machine("sparc", "sun-sparc10", "lerc");
  cluster.add_machine("cray", "cray-ymp", "lerc");
  rpc::SystemOptions options;
  options.strict_static_check = true;
  options.static_manifest = manifest_for(kAddExport);
  rpc::SchoonerSystem system(cluster, "sparc", std::move(options));

  cluster.install_image("cray", "/npss/add", add_image());
  auto session = system.make_session("sparc");
  auto client = session->open_line(rpc::LineOptions{}.with_name("strict-ok"));
  client->contact_schx("cray", "/npss/add");
  auto add = client->import_proc("add", kAddImport);
  uts::ValueList out = add->call(
      {uts::Value::real(2), uts::Value::real(3), uts::Value::real(0)}, kLegacy)
          .values_or_raise();
  EXPECT_DOUBLE_EQ(out[2].as_real(), 5.0);
  EXPECT_EQ(system.stats().static_check_failures, 0u);
  EXPECT_GT(
      obs::Registry::global().counter("rpc.manager.static_check_pass").value(),
      pass_before);
}

TEST(StrictManager, DriftedExportRejectedAtStartupBeforeAnyCall) {
  obs::set_enabled(true);
  const std::uint64_t fail_before =
      obs::Registry::global().counter("rpc.manager.static_check_fail").value();

  // The manifest was checked against a float result; the program actually
  // exports a double result — the classic silent recompile drift.
  const char* stale_spec = R"(
    export add prog(
      "x" val double,
      "y" val double,
      "sum" res float)
  )";
  sim::Cluster cluster;
  cluster.add_machine("sparc", "sun-sparc10", "lerc");
  cluster.add_machine("cray", "cray-ymp", "lerc");
  rpc::SystemOptions options;
  options.strict_static_check = true;
  options.static_manifest = manifest_for(stale_spec);
  rpc::SchoonerSystem system(cluster, "sparc", std::move(options));

  cluster.install_image("cray", "/npss/add", add_image());
  auto session = system.make_session("sparc");
  auto client = session->open_line(
      rpc::LineOptions{}.with_name("strict-drift"));
  EXPECT_THROW(client->contact_schx("cray", "/npss/add"),
               util::TypeMismatchError);
  EXPECT_EQ(system.stats().static_check_failures, 1u);
  EXPECT_GT(
      obs::Registry::global().counter("rpc.manager.static_check_fail").value(),
      fail_before);
}

TEST(StrictManager, UnlistedExportRejected) {
  const char* other_spec = R"(
    export mul prog("x" val double, "y" val double, "prod" res double)
  )";
  sim::Cluster cluster;
  cluster.add_machine("sparc", "sun-sparc10", "lerc");
  cluster.add_machine("cray", "cray-ymp", "lerc");
  rpc::SystemOptions options;
  options.strict_static_check = true;
  options.static_manifest = manifest_for(other_spec);
  rpc::SchoonerSystem system(cluster, "sparc", std::move(options));

  cluster.install_image("cray", "/npss/add", add_image());
  auto session = system.make_session("sparc");
  auto client = session->open_line(
      rpc::LineOptions{}.with_name("strict-unlisted"));
  EXPECT_THROW(client->contact_schx("cray", "/npss/add"),
               util::TypeMismatchError);
  EXPECT_EQ(system.stats().static_check_failures, 1u);
}

TEST(StrictManager, CompatibleDriftAdmittedWithStaleWarning) {
  // The program grew an appended parameter since uts_check ran. Old
  // imports still bind (footnote-1 subsequence), so the drift is
  // *compatible*: the Manager admits the export but flags the manifest as
  // stale — distinctly from an incompatible rejection.
  const char* grown_spec = R"(
    export add prog(
      "x" val double,
      "y" val double,
      "bias" val double,
      "sum" res double)
  )";
  sim::Cluster cluster;
  cluster.add_machine("sparc", "sun-sparc10", "lerc");
  cluster.add_machine("cray", "cray-ymp", "lerc");
  rpc::SystemOptions options;
  options.strict_static_check = true;
  options.static_manifest = manifest_for(kAddExport);
  rpc::SchoonerSystem system(cluster, "sparc", std::move(options));

  cluster.install_image(
      "cray", "/npss/add",
      rpc::make_procedure_image(
          grown_spec, {{"add", [](rpc::ProcCall& call) {
                          call.set_real("sum", call.real("x") +
                                                   call.real("y") +
                                                   call.real("bias"));
                        }}}));
  auto session = system.make_session("sparc");
  auto client = session->open_line(
      rpc::LineOptions{}.with_name("strict-stale"));
  EXPECT_NO_THROW(client->contact_schx("cray", "/npss/add"));
  auto add = client->import_proc("add", kAddImport);
  uts::ValueList out = add->call(
      {uts::Value::real(2), uts::Value::real(3), uts::Value::real(0)}, kLegacy)
          .values_or_raise();
  EXPECT_DOUBLE_EQ(out[2].as_real(), 5.0);
  EXPECT_GE(system.stats().stale_manifest_warnings, 1u);
  EXPECT_EQ(system.stats().static_check_failures, 0u);
  EXPECT_EQ(system.stats().compat_rejects, 0u);
}

TEST(StrictManager, SpecHashMismatchWarnsStaleButAdmitsMatchingExport) {
  // The exporter stamps its spec text's sha256 into the registration; a
  // hash the manifest does not list means the spec file changed after
  // uts_check ran. With an unchanged export surface that is a warning
  // only — the distinction satellite: stale != incompatible.
  sim::Cluster cluster;
  cluster.add_machine("sparc", "sun-sparc10", "lerc");
  cluster.add_machine("cray", "cray-ymp", "lerc");
  rpc::SystemOptions options;
  options.strict_static_check = true;
  options.static_manifest = manifest_for(kAddExport);
  options.manifest_spec_hashes = {
      util::sha256_hex("# a different spec text entirely\n")};
  rpc::SchoonerSystem system(cluster, "sparc", std::move(options));

  cluster.install_image("cray", "/npss/add", add_image());
  auto session = system.make_session("sparc");
  auto client = session->open_line(rpc::LineOptions{}.with_name("strict-hash"));
  EXPECT_NO_THROW(client->contact_schx("cray", "/npss/add"));
  EXPECT_GE(system.stats().stale_manifest_warnings, 1u);
  EXPECT_EQ(system.stats().compat_rejects, 0u);

  // With the exporter's actual hash listed, no staleness is reported.
  sim::Cluster fresh_cluster;
  fresh_cluster.add_machine("sparc", "sun-sparc10", "lerc");
  fresh_cluster.add_machine("cray", "cray-ymp", "lerc");
  rpc::SystemOptions fresh;
  fresh.strict_static_check = true;
  fresh.static_manifest = manifest_for(kAddExport);
  fresh.manifest_spec_hashes = {util::sha256_hex(kAddExport)};
  rpc::SchoonerSystem fresh_system(fresh_cluster, "sparc", std::move(fresh));
  fresh_cluster.install_image("cray", "/npss/add", add_image());
  auto session2 = fresh_system.make_session("sparc");
  auto fresh_client = session2->open_line(
      rpc::LineOptions{}.with_name("fresh-hash"));
  EXPECT_NO_THROW(fresh_client->contact_schx("cray", "/npss/add"));
  EXPECT_EQ(fresh_system.stats().stale_manifest_warnings, 0u);
}

TEST(StrictManager, OffByDefaultKeepsLegacyBehavior) {
  sim::Cluster cluster;
  cluster.add_machine("sparc", "sun-sparc10", "lerc");
  cluster.add_machine("cray", "cray-ymp", "lerc");
  rpc::SchoonerSystem system(cluster, "sparc");
  cluster.install_image("cray", "/npss/add", add_image());
  auto session = system.make_session("sparc");
  auto client = session->open_line(rpc::LineOptions{}.with_name("lenient"));
  EXPECT_NO_THROW(client->contact_schx("cray", "/npss/add"));
}

}  // namespace
}  // namespace npss
