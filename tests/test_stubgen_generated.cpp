// End-to-end test of the static stub compiler: the build runs
// schooner-stubgen over tests/specs/shaft.spec, this file #includes the
// generated header, and the typed stubs must round-trip real calls through
// the Schooner runtime — proving generated and dynamic stubs are
// equivalent.
#include <gtest/gtest.h>

#include "npss/procedures.hpp"
#include "tess/components.hpp"
#include "rpc/schooner.hpp"

#include "shaft_stubs.hpp"  // generated at build time

namespace npss {
namespace {

/// No deadline, one stale-binding retry: the historical call contract.
const rpc::CallOptions kLegacy = rpc::CallOptions::legacy();


class StubgenGeneratedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_.add_machine("sparc", "sun-sparc10", "lerc");
    cluster_.add_machine("cray", "cray-ymp", "lerc");
    glue::install_tess_procedures(cluster_, "cray");
    system_ = std::make_unique<rpc::SchoonerSystem>(cluster_, "sparc");
  }

  sim::Cluster cluster_;
  std::unique_ptr<rpc::SchoonerSystem> system_;
};

TEST_F(StubgenGeneratedTest, GeneratedClientStubCallsShaft) {
  auto session = system_->make_session("sparc");
  auto client = session->open_line(
      rpc::LineOptions{}.with_name("stubgen-test"));
  client->contact_schx("cray", glue::kShaftPath);

  SetshaftStub setshaft(*client);
  auto sr = setshaft.call({1.0e6f, 100.0f, 1.0e4f, 0.85f}, 1,
                          {1.05e6f, 100.0f, 1.05e4f, 0.88f}, 1);
  EXPECT_NEAR(sr.ecorr, 0.99, 1e-6);

  ShaftStub shaft(*client);
  // Turbine delivers more than the compressor absorbs: positive accel.
  auto r = shaft.call({1.0e6f, 100.0f, 1.0e4f, 0.85f}, 1,
                      {1.2e6f, 100.0f, 1.2e4f, 0.88f}, 1, sr.ecorr, 10000.0f,
                      40.0f);
  EXPECT_GT(r.dxspl, 0.0);

  // And the generated result must agree with the local computation.
  const double ecom[4] = {1.0e6, 100.0, 1.0e4, 0.85};
  const double etur[4] = {1.2e6, 100.0, 1.2e4, 0.88};
  const double local =
      tess::shaft(ecom, 1, etur, 1, sr.ecorr, 10000.0, 40.0);
  EXPECT_NEAR(r.dxspl / local, 1.0, 1e-5);
}

TEST_F(StubgenGeneratedTest, GeneratedServerStubDispatches) {
  // The export declaration in the spec produced make_probe_def; host a
  // procedure with it and call it dynamically.
  static int call_count = 0;
  call_count = 0;
  cluster_.install_image(
      "cray", "/test/probe",
      rpc::make_procedure_image(
          "export probe prog(\"x\" val double, \"tag\" val string, "
          "\"y\" res double, \"stats\" res record \"calls\": integer; "
          "\"sum\": double end)",
          {make_probe_def([](double x, const std::string& tag, double& y,
                             std::tuple<std::int32_t, double>& stats) {
            ++call_count;
            y = x * 2.0 + static_cast<double>(tag.size());
            stats = {call_count, x};
          })}));

  auto session = system_->make_session("sparc");
  auto client = session->open_line(
      rpc::LineOptions{}.with_name("server-stub-test"));
  client->contact_schx("cray", "/test/probe");
  auto probe = client->import_proc(
      "probe",
      "import probe prog(\"x\" val double, \"tag\" val string, "
      "\"y\" res double, \"stats\" res record \"calls\": integer; "
      "\"sum\": double end)");
  uts::ValueList out = probe->call(
      {uts::Value::real(21.0), uts::Value::str("abc"), uts::Value::real(0),
       uts::Value::record({uts::Value::integer(0), uts::Value::real(0)})},
      kLegacy).values_or_raise();
  EXPECT_DOUBLE_EQ(out[2].as_real(), 45.0);
  EXPECT_EQ(out[3].items()[0].as_integer(), 1);
  EXPECT_DOUBLE_EQ(out[3].items()[1].as_real(), 21.0);
}

}  // namespace
}  // namespace npss
