// Edge cases of the Schooner call semantics: precedence of line-local over
// shared bindings, subset imports that drop res parameters, var arrays,
// empty signatures, and case-synonym collisions.
#include <gtest/gtest.h>

#include "rpc/schooner.hpp"

namespace npss::rpc {
namespace {

using uts::Value;

/// No deadline, one stale-binding retry: the historical call contract.
const rpc::CallOptions kLegacy = rpc::CallOptions::legacy();

class RpcEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_.add_machine("host", "sun-sparc10", "a");
    cluster_.add_machine("m1", "sgi-4d480", "a");
    cluster_.add_machine("m2", "cray-ymp", "a");
    system_ = std::make_unique<SchoonerSystem>(cluster_, "host");
  }

  sim::Cluster cluster_;
  std::unique_ptr<SchoonerSystem> system_;
};

sim::ProgramImage tagged_image(const std::string& tag) {
  return make_procedure_image(
      "export whoami prog(\"tag\" res string)",
      {{"whoami", [tag](ProcCall& c) { c.set("tag", Value::str(tag)); }}});
}

TEST_F(RpcEdgeTest, LineLocalBindingShadowsSharedOne) {
  cluster_.install_image("m1", "/bin/shared-who", tagged_image("shared"));
  cluster_.install_image("m2", "/bin/local-who", tagged_image("line-local"));

  auto session = system_->make_session("host");
  auto owner = session->open_line(rpc::LineOptions{}.with_name("shared-owner"));
  owner->contact_schx("m1", "/bin/shared-who", /*shared=*/true);

  // A line with its own 'whoami' must resolve its own (§4.2: line first,
  // then the shared database).
  auto line = session->open_line(rpc::LineOptions{}.with_name("with-local"));
  line->contact_schx("m2", "/bin/local-who");
  auto who = line->import_proc("whoami",
                               "import whoami prog(\"tag\" res string)");
  EXPECT_EQ(who->call({Value::str("")}, kLegacy)
      .values_or_raise()[0].as_string(), "line-local");

  // A line without one falls through to the shared database.
  auto other = session->open_line(
      rpc::LineOptions{}.with_name("without-local"));
  auto who2 = other->import_proc("whoami",
                                 "import whoami prog(\"tag\" res string)");
  EXPECT_EQ(who2->call({Value::str("")}, kLegacy)
      .values_or_raise()[0].as_string(), "shared");
}

TEST_F(RpcEdgeTest, SubsetImportMayDropResultParameters) {
  cluster_.install_image(
      "m1", "/bin/stats",
      make_procedure_image(
          "export stats prog(\"x\" val double, \"twice\" res double, "
          "\"square\" res double)",
          {{"stats", [](ProcCall& c) {
              c.set_real("twice", 2 * c.real("x"));
              c.set_real("square", c.real("x") * c.real("x"));
            }}}));
  auto session = system_->make_session("host");
  auto client = session->open_line(rpc::LineOptions{}.with_name("narrow"));
  client->contact_schx("m1", "/bin/stats");
  // The import asks only for 'square'; 'twice' never crosses the wire.
  auto stats = client->import_proc(
      "stats", "import stats prog(\"x\" val double, \"square\" res double)");
  uts::ValueList out = stats->call({Value::real(7), Value::real(0)}, kLegacy)
      .values_or_raise();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[1].as_real(), 49.0);
}

TEST_F(RpcEdgeTest, VarArraysTravelBothWaysThroughCrayWords) {
  cluster_.install_image(
      "m2", "/bin/scale",
      make_procedure_image(
          "export scale prog(\"xs\" var array[8] of double, "
          "\"k\" val double)",
          {{"scale", [](ProcCall& c) {
              std::vector<double> xs = c.reals("xs");
              for (double& x : xs) x *= c.real("k");
              c.set("xs", Value::real_array(xs));
            }}}));
  auto session = system_->make_session("host");
  auto client = session->open_line(rpc::LineOptions{}.with_name("var-array"));
  client->contact_schx("m2", "/bin/scale");
  auto scale = client->import_proc(
      "scale",
      "import scale prog(\"xs\" var array[8] of double, \"k\" val double)");
  std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8};
  uts::ValueList out = scale->call(
      {Value::real_array(xs), Value::real(3)}, kLegacy)
          .values_or_raise();
  std::vector<double> back = out[0].as_real_vector();
  for (int i = 0; i < 8; ++i) {
    // Cray words carry 48-bit mantissas; these small integers are exact.
    EXPECT_DOUBLE_EQ(back[i], 3.0 * (i + 1));
  }
}

TEST_F(RpcEdgeTest, EmptySignatureProcedure) {
  static int fired = 0;
  fired = 0;
  cluster_.install_image(
      "m1", "/bin/tick",
      make_procedure_image("export tick prog()",
                           {{"tick", [](ProcCall&) { ++fired; }}}));
  auto session = system_->make_session("host");
  auto client = session->open_line(rpc::LineOptions{}.with_name("ticker"));
  client->contact_schx("m1", "/bin/tick");
  auto tick = client->import_proc("tick", "import tick prog()");
  uts::ValueList out = tick->call({}, kLegacy).values_or_raise();
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(fired, 1);
}

TEST_F(RpcEdgeTest, CaseSynonymCollisionWithinLineRejected) {
  // Two processes exporting names that differ only in case collide in one
  // line (the Manager stores both-case synonyms, §4.1).
  cluster_.install_image("m1", "/bin/lower", tagged_image("lower"));
  cluster_.install_image(
      "m2", "/bin/upper",
      make_procedure_image(
          "export WHOAMI prog(\"tag\" res string)",
          {{"WHOAMI", [](ProcCall& c) { c.set("tag", Value::str("UP")); }}}));
  auto session = system_->make_session("host");
  auto client = session->open_line(rpc::LineOptions{}.with_name("collide"));
  client->contact_schx("m1", "/bin/lower");
  EXPECT_THROW(client->contact_schx("m2", "/bin/upper"),
               util::DuplicateNameError);
}

TEST_F(RpcEdgeTest, ByteAndStringParamsSurviveTheWire) {
  cluster_.install_image(
      "m2", "/bin/pack",
      make_procedure_image(
          "export pack prog(\"flag\" val byte, \"name\" val string, "
          "\"summary\" res string)",
          {{"pack", [](ProcCall& c) {
              c.set("summary",
                    Value::str(c.arg("name").as_string() + ":" +
                               std::to_string(c.arg("flag").as_byte())));
            }}}));
  auto session = system_->make_session("host");
  auto client = session->open_line(rpc::LineOptions{}.with_name("packer"));
  client->contact_schx("m2", "/bin/pack");
  auto pack = client->import_proc(
      "pack",
      "import pack prog(\"flag\" val byte, \"name\" val string, "
      "\"summary\" res string)");
  uts::ValueList out = pack->call(
      {Value::byte(200), Value::str("f100 engine"), Value::str("")}, kLegacy)
          .values_or_raise();
  EXPECT_EQ(out[2].as_string(), "f100 engine:200");
}

}  // namespace
}  // namespace npss::rpc
