// Distribution-level failure handling: WAN outages, remote process death,
// and Server loss — the operational hazards a widely-dispersed 1993
// deployment faced, and what the Schooner runtime reports for each.
#include <gtest/gtest.h>

#include <cmath>

#include "rpc/schooner.hpp"

namespace npss::rpc {
namespace {

using uts::Value;

/// No deadline, one stale-binding retry: the historical call contract.
const rpc::CallOptions kLegacy = rpc::CallOptions::legacy();

const char* kSpec = "export work prog(\"x\" val double, \"y\" res double)";
const char* kImport = "import work prog(\"x\" val double, \"y\" res double)";

sim::ProgramImage work_image() {
  return make_procedure_image(kSpec, {{"work", [](ProcCall& c) {
                                c.set_real("y", c.real("x") * 2.0);
                              }}});
}

class DistributionFailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_.add_machine("local", "sun-sparc10", "uarizona");
    cluster_.add_machine("remote", "ibm-rs6000", "lerc");
    cluster_.set_site_link("uarizona", "lerc",
                           sim::link_profile("internet-wan"));
    cluster_.install_image("remote", "/bin/work", work_image());
    system_ = std::make_unique<SchoonerSystem>(cluster_, "local");
  }

  sim::Cluster cluster_;
  std::unique_ptr<SchoonerSystem> system_;
};

TEST_F(DistributionFailureTest, WanOutageSurfacesAsErrorThenRecovers) {
  auto session = system_->make_session("local");
  auto client = session->open_line(rpc::LineOptions{}.with_name("outage"));
  client->contact_schx("remote", "/bin/work");
  auto work = client->import_proc("work", kImport);
  EXPECT_DOUBLE_EQ(
      work->call({Value::real(3), Value::real(0)}, kLegacy)
          .values_or_raise()[1].as_real(), 6.0);

  // The Internet path between the sites goes down mid-run.
  cluster_.set_link_up("uarizona", "lerc", false);
  EXPECT_THROW(work->call({Value::real(1), Value::real(0)}, kLegacy)
      .values_or_raise(),
               util::Error);

  // Back up: the binding survives the outage (the process never died),
  // so after a re-bind the computation continues.
  cluster_.set_link_up("uarizona", "lerc", true);
  work->invalidate();
  EXPECT_DOUBLE_EQ(
      work->call({Value::real(4), Value::real(0)}, kLegacy)
          .values_or_raise()[1].as_real(), 8.0);
}

TEST_F(DistributionFailureTest, DeadProcessYieldsCallErrorNotHang) {
  auto session = system_->make_session("local");
  auto client = session->open_line(rpc::LineOptions{}.with_name("dead-proc"));
  StartResult started = client->contact_schx("remote", "/bin/work");
  auto work = client->import_proc("work", kImport);
  work->call({Value::real(1), Value::real(0)}, kLegacy).values_or_raise();

  // The remote process crashes (killed at the OS level, not via the
  // Manager, so the Manager's tables still name the corpse).
  cluster_.retire_endpoint(started.address);

  // The stub retries once through the Manager, is handed the same dead
  // address, and reports a typed failure — never a hang.
  try {
    work->call({Value::real(2), Value::real(0)}, kLegacy).values_or_raise();
    FAIL() << "expected an error";
  } catch (const util::Error& e) {
    EXPECT_TRUE(e.code() == util::ErrorCode::kNoRoute ||
                e.code() == util::ErrorCode::kCallFailure)
        << e.what();
  }
  EXPECT_GE(work->stale_retries(), 1);

  // The line can still be shut down cleanly afterwards.
  EXPECT_NO_THROW(client->quit());
}

TEST_F(DistributionFailureTest, HandlerExceptionsBecomeTypedErrors) {
  cluster_.install_image(
      "remote", "/bin/fragile",
      make_procedure_image(
          "export fragile prog(\"x\" val double, \"y\" res double)",
          {{"fragile", [](ProcCall& c) {
              if (c.real("x") < 0) {
                throw util::ModelError("negative input not supported");
              }
              c.set_real("y", std::sqrt(c.real("x")));
            }}}));
  auto session = system_->make_session("local");
  auto client = session->open_line(rpc::LineOptions{}.with_name("fragile"));
  client->contact_schx("remote", "/bin/fragile");
  auto fragile = client->import_proc(
      "fragile", "import fragile prog(\"x\" val double, \"y\" res double)");
  EXPECT_DOUBLE_EQ(
      fragile->call({Value::real(9), Value::real(0)}, kLegacy)
          .values_or_raise()[1].as_real(), 3.0);
  // The remote exception arrives typed and the process stays up.
  EXPECT_THROW(fragile->call({Value::real(-1), Value::real(0)}, kLegacy)
      .values_or_raise(),
               util::ModelError);
  EXPECT_DOUBLE_EQ(
      fragile->call({Value::real(16), Value::real(0)}, kLegacy)
          .values_or_raise()[1].as_real(), 4.0);
}

TEST_F(DistributionFailureTest, StartFailsCleanlyDuringOutage) {
  cluster_.set_link_up("uarizona", "lerc", false);
  auto session = system_->make_session("local");
  auto client = session->open_line(rpc::LineOptions{}.with_name("no-start"));
  EXPECT_THROW(client->contact_schx("remote", "/bin/work"), util::Error);
  // Local work is unaffected.
  cluster_.install_image("local", "/bin/work", work_image());
  EXPECT_NO_THROW(client->contact_schx("local", "/bin/work"));
}

TEST_F(DistributionFailureTest, MoveAwayFromFailingMachineRestoresService) {
  // The §4.2 motivation scenario end-to-end: the remote machine is about
  // to go down; the user moves the procedure home, then the link dies —
  // and the computation keeps running locally.
  cluster_.install_image("local", "/bin/work", work_image());
  auto session = system_->make_session("local");
  auto client = session->open_line(rpc::LineOptions{}.with_name("evacuate"));
  client->contact_schx("remote", "/bin/work");
  auto work = client->import_proc("work", kImport);
  work->call({Value::real(1), Value::real(0)}, kLegacy).values_or_raise();

  client->move_proc("work", "local", "/bin/work");
  cluster_.set_link_up("uarizona", "lerc", false);

  EXPECT_DOUBLE_EQ(
      work->call({Value::real(5), Value::real(0)}, kLegacy)
          .values_or_raise()[1].as_real(), 10.0);
}

}  // namespace
}  // namespace npss::rpc
