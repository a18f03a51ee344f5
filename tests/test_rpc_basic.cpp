// End-to-end tests of the Schooner runtime on a small virtual cluster:
// startup protocol, calls with heterogeneous marshaling, Fortran name-case
// synonyms, type checking, per-line name spaces and shutdown, shared
// procedures, migration with stale-cache recovery, and nested (Figure 1)
// calls.
#include <gtest/gtest.h>

#include "rpc/schooner.hpp"

namespace npss {
namespace {

using rpc::ProcCall;
using rpc::ProcedureDef;
using rpc::ProcedureImageOptions;
using uts::Value;
using uts::ValueList;

/// No deadline, one stale-binding retry: the historical call contract.
const rpc::CallOptions kLegacy = rpc::CallOptions::legacy();

const char* kAddSpec = R"(
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
      kAddSpec, {{"add", [](ProcCall& call) {
                    call.set_real("sum", call.real("x") + call.real("y"));
                  }}});
}

class RpcBasicTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_.add_machine("sparc", "sun-sparc10", "lerc");
    cluster_.add_machine("cray", "cray-ymp", "lerc");
    cluster_.add_machine("rs6000", "ibm-rs6000", "uarizona");
    cluster_.set_site_link("lerc", "uarizona",
                           sim::link_profile("internet-wan"));
    system_ = std::make_unique<rpc::SchoonerSystem>(cluster_, "sparc");
  }

  sim::Cluster cluster_;
  std::unique_ptr<rpc::SchoonerSystem> system_;
};

TEST_F(RpcBasicTest, CallRemoteProcedureOnSameSite) {
  cluster_.install_image("cray", "/npss/add", add_image());
  auto session = system_->make_session("sparc");
  auto client = session->open_line(rpc::LineOptions{}.with_name("test"));
  client->contact_schx("cray", "/npss/add");
  auto add = client->import_proc("add", kAddImport);
  ValueList out = add->call({Value::real(2.5), Value::real(4.25),
                             Value::real(0)}, kLegacy).values_or_raise();
  EXPECT_DOUBLE_EQ(out[2].as_real(), 6.75);
}

TEST_F(RpcBasicTest, CallAcrossWanAdvancesVirtualClockMore) {
  cluster_.install_image("cray", "/npss/add", add_image());
  cluster_.install_image("rs6000", "/npss/add", add_image());

  auto session = system_->make_session("sparc");
  auto client_lan = session->open_line(rpc::LineOptions{}.with_name("lan"));
  client_lan->contact_schx("cray", "/npss/add");
  auto add_lan = client_lan->import_proc("add", kAddImport);

  auto client_wan = session->open_line(rpc::LineOptions{}.with_name("wan"));
  client_wan->contact_schx("rs6000", "/npss/add");
  auto add_wan = client_wan->import_proc("add", kAddImport);

  auto lan_ep = cluster_.create_endpoint("sparc", "probe-lan");
  (void)lan_ep;

  // Warm both bindings, then compare per-call virtual time.
  add_lan->call({Value::real(1), Value::real(2), Value::real(0)}, kLegacy)
      .values_or_raise();
  add_wan->call({Value::real(1), Value::real(2), Value::real(0)}, kLegacy)
      .values_or_raise();

  auto& lan_clock = client_lan->io().endpoint().clock();
  auto& wan_clock = client_wan->io().endpoint().clock();
  const util::SimTime lan_before = lan_clock.now();
  const util::SimTime wan_before = wan_clock.now();
  add_lan->call({Value::real(1), Value::real(2), Value::real(0)}, kLegacy)
      .values_or_raise();
  add_wan->call({Value::real(1), Value::real(2), Value::real(0)}, kLegacy)
      .values_or_raise();
  const util::SimTime lan_cost = lan_clock.now() - lan_before;
  const util::SimTime wan_cost = wan_clock.now() - wan_before;
  EXPECT_GT(wan_cost, 10 * lan_cost)
      << "WAN round trip should dwarf the LAN one";
}

TEST_F(RpcBasicTest, FortranNamesResolveAcrossCaseConventions) {
  // On the Cray the Fortran compiler upper-cases external names; the
  // importer should never need to know that (§4.1).
  cluster_.install_image("cray", "/npss/add", add_image());
  auto session = system_->make_session("sparc");
  auto client = session->open_line(rpc::LineOptions{}.with_name("case-test"));
  rpc::StartResult result = client->contact_schx("cray", "/npss/add");
  ASSERT_FALSE(result.exports.empty());
  // The export list shows the upper-cased external name...
  EXPECT_EQ(result.exports[0].first, "ADD");
  // ...but the lower-case import still resolves.
  auto add = client->import_proc("add", kAddImport);
  ValueList out = add->call(
      {Value::real(1), Value::real(1), Value::real(0)}, kLegacy)
          .values_or_raise();
  EXPECT_DOUBLE_EQ(out[2].as_real(), 2.0);
}

TEST_F(RpcBasicTest, TypeCheckRejectsIncompatibleImport) {
  cluster_.install_image("cray", "/npss/add", add_image());
  auto session = system_->make_session("sparc");
  auto client = session->open_line(rpc::LineOptions{}.with_name("type-test"));
  client->contact_schx("cray", "/npss/add");
  const char* bad_import = R"(
    import add prog(
      "x" val integer,
      "y" val double,
      "sum" res double)
  )";
  auto add = client->import_proc("add", bad_import);
  EXPECT_THROW(
      add->call({Value::integer(1), Value::real(1), Value::real(0)}, kLegacy)
          .values_or_raise(),
      util::TypeMismatchError);
}

TEST_F(RpcBasicTest, SubsetImportIsAccepted) {
  // Footnote 1: the import may be a subsequence of the export.
  const char* wide_spec = R"(
    export combo prog(
      "a" val double,
      "b" val double,
      "scale" val double,
      "out" res double)
  )";
  cluster_.install_image("cray", "/npss/combo",
                         rpc::make_procedure_image(
                             wide_spec, {{"combo", [](ProcCall& call) {
                                            double scale =
                                                call.real("scale") == 0.0
                                                    ? 1.0
                                                    : call.real("scale");
                                            call.set_real(
                                                "out", scale *
                                                           (call.real("a") +
                                                            call.real("b")));
                                          }}}));
  auto session = system_->make_session("sparc");
  auto client = session->open_line(rpc::LineOptions{}.with_name("subset-test"));
  client->contact_schx("cray", "/npss/combo");
  const char* narrow_import = R"(
    import combo prog(
      "a" val double,
      "b" val double,
      "out" res double)
  )";
  auto combo = client->import_proc("combo", narrow_import);
  ValueList out =
      combo->call({Value::real(3), Value::real(4), Value::real(0)}, kLegacy)
          .values_or_raise();
  // Omitted "scale" arrives as the default (0 -> treated as 1 by handler).
  EXPECT_DOUBLE_EQ(out[2].as_real(), 7.0);
}

TEST_F(RpcBasicTest, LinesIsolateNamesAndShutdown) {
  cluster_.install_image("cray", "/npss/add", add_image());
  cluster_.install_image("rs6000", "/npss/add", add_image());

  auto session = system_->make_session("sparc");
  auto line1 = session->open_line(rpc::LineOptions{}.with_name("line1"));
  auto line2 = session->open_line(rpc::LineOptions{}.with_name("line2"));
  line1->contact_schx("cray", "/npss/add");
  line2->contact_schx("rs6000", "/npss/add");

  auto add1 = line1->import_proc("add", kAddImport);
  auto add2 = line2->import_proc("add", kAddImport);
  EXPECT_DOUBLE_EQ(
      add1->call({Value::real(1), Value::real(2), Value::real(0)}, kLegacy)
          .values_or_raise()[2]
          .as_real(),
      3.0);
  EXPECT_DOUBLE_EQ(
      add2->call({Value::real(3), Value::real(4), Value::real(0)}, kLegacy)
          .values_or_raise()[2]
          .as_real(),
      7.0);

  // Quitting line1 must not disturb line2 (§4.2 shutdown semantics).
  line1->quit();
  EXPECT_DOUBLE_EQ(
      add2->call({Value::real(5), Value::real(6), Value::real(0)}, kLegacy)
          .values_or_raise()[2]
          .as_real(),
      11.0);
  // ... but line1's import is now unusable.
  EXPECT_THROW(add1->call(
      {Value::real(0), Value::real(0), Value::real(0)}, kLegacy)
          .values_or_raise(),
               util::Error);
}

TEST_F(RpcBasicTest, DuplicateNamesAllowedAcrossLinesNotWithin) {
  cluster_.install_image("cray", "/npss/add", add_image());
  auto session = system_->make_session("sparc");
  auto line1 = session->open_line(rpc::LineOptions{}.with_name("dup1"));
  auto line2 = session->open_line(rpc::LineOptions{}.with_name("dup2"));
  line1->contact_schx("cray", "/npss/add");
  EXPECT_NO_THROW(line2->contact_schx("cray", "/npss/add"));
  // Second instance in the *same* line collides.
  EXPECT_THROW(line1->contact_schx("cray", "/npss/add"),
               util::DuplicateNameError);
}

TEST_F(RpcBasicTest, SharedProcedureVisibleFromEveryLine) {
  cluster_.install_image("cray", "/npss/add", add_image());
  auto session = system_->make_session("sparc");
  auto owner = session->open_line(rpc::LineOptions{}.with_name("shared-owner"));
  owner->contact_schx("cray", "/npss/add", /*shared=*/true);

  auto other = session->open_line(rpc::LineOptions{}.with_name("shared-user"));
  auto add = other->import_proc("add", kAddImport);
  ValueList out = add->call(
      {Value::real(8), Value::real(9), Value::real(0)}, kLegacy)
          .values_or_raise();
  EXPECT_DOUBLE_EQ(out[2].as_real(), 17.0);
}

TEST_F(RpcBasicTest, MigrationWithStaleCacheRecovery) {
  cluster_.install_image("cray", "/npss/add", add_image());
  cluster_.install_image("rs6000", "/npss/add", add_image());

  auto session = system_->make_session("sparc");
  auto client = session->open_line(rpc::LineOptions{}.with_name("mover"));
  client->contact_schx("cray", "/npss/add");
  auto add = client->import_proc("add", kAddImport);
  add->call({Value::real(1), Value::real(1), Value::real(0)}, kLegacy)
      .values_or_raise();
  EXPECT_EQ(add->lookups(), 1);
  EXPECT_EQ(add->stale_retries(), 0);

  client->move_proc("add", "rs6000", "/npss/add");

  // The stub's cache is now stale: the next call fails over to the
  // Manager and retries (§4.2).
  ValueList out = add->call(
      {Value::real(2), Value::real(3), Value::real(0)}, kLegacy)
          .values_or_raise();
  EXPECT_DOUBLE_EQ(out[2].as_real(), 5.0);
  EXPECT_EQ(add->stale_retries(), 1);
  EXPECT_EQ(add->lookups(), 2);
}

TEST_F(RpcBasicTest, NestedCallAcrossMachines) {
  // Figure 1: sequential control flow passing through several machines —
  // the Cray procedure invokes a helper on the RS6000 within the line.
  const char* outer_spec = R"(
    export outer prog("x" val double, "y" res double)
  )";
  const char* helper_spec = R"(
    export helper prog("x" val double, "y" res double)
  )";
  cluster_.install_image(
      "cray", "/npss/outer",
      rpc::make_procedure_image(
          outer_spec, {{"outer", [](ProcCall& call) {
                          uts::ValueList nested = call.call_remote(
                              "helper",
                              "import helper prog(\"x\" val double, "
                              "\"y\" res double)",
                              {Value::real(call.real("x")), Value::real(0)});
                          call.set_real("y", nested[1].as_real() * 2.0);
                        }}}));
  cluster_.install_image(
      "rs6000", "/npss/helper",
      rpc::make_procedure_image(helper_spec,
                                {{"helper", [](ProcCall& call) {
                                    call.set_real("y", call.real("x") + 10.0);
                                  }}}));
  auto session = system_->make_session("sparc");
  auto client = session->open_line(rpc::LineOptions{}.with_name("nested"));
  client->contact_schx("cray", "/npss/outer");
  client->contact_schx("rs6000", "/npss/helper");
  auto outer = client->import_proc(
      "outer", "import outer prog(\"x\" val double, \"y\" res double)");
  ValueList out = outer->call({Value::real(5), Value::real(0)}, kLegacy)
      .values_or_raise();
  EXPECT_DOUBLE_EQ(out[1].as_real(), 30.0);  // (5 + 10) * 2
}

TEST_F(RpcBasicTest, ManagerPersistsAcrossRuns) {
  cluster_.install_image("cray", "/npss/add", add_image());
  for (int run = 0; run < 3; ++run) {
    auto session = system_->make_session("sparc");
    auto client = session->open_line(rpc::LineOptions{}.with_name("run"));
    client->contact_schx("cray", "/npss/add");
    auto add = client->import_proc("add", kAddImport);
    ValueList out =
        add->call({Value::real(run), Value::real(run), Value::real(0)}, kLegacy)
            .values_or_raise();
    EXPECT_DOUBLE_EQ(out[2].as_real(), 2.0 * run);
    client->quit();
  }
  EXPECT_EQ(system_->stats().lines_created, 3u);
  EXPECT_EQ(system_->stats().lines_shut_down, 3u);
}

TEST_F(RpcBasicTest, LookupFailureIsReported) {
  auto session = system_->make_session("sparc");
  auto client = session->open_line(rpc::LineOptions{}.with_name("missing"));
  auto ghost = client->import_proc(
      "ghost", "import ghost prog(\"x\" val double)");
  EXPECT_THROW(ghost->call({Value::real(1)}, kLegacy)
      .values_or_raise(), util::LookupError);
}

TEST_F(RpcBasicTest, StartFailsForUnknownImage) {
  auto session = system_->make_session("sparc");
  auto client = session->open_line(rpc::LineOptions{}.with_name("bad-path"));
  EXPECT_THROW(client->contact_schx("cray", "/no/such/file"), util::Error);
}

}  // namespace
}  // namespace npss
