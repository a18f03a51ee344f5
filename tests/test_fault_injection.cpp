// The fault-tolerant call path end to end: seeded deterministic link
// faults (drop/duplicate/delay), crash events, CallOptions/CallResult
// deadline + retry semantics, migration-based failover, glue-level local
// fallback, and the historical throwing contract through
// CallOptions::legacy() + values_or_raise().
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "npss/procedures.hpp"
#include "npss/remote_backend.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "rpc/schooner.hpp"
#include "sim/network.hpp"

namespace npss {
namespace {

using rpc::CallOptions;
using rpc::CallResult;
using uts::Value;

/// No deadline, one stale-binding retry: the historical call contract.
const rpc::CallOptions kLegacy = rpc::CallOptions::legacy();

const char* kEchoSpec =
    "export echo prog(\"x\" val double, \"y\" res double)";
const char* kEchoImport =
    "import echo prog(\"x\" val double, \"y\" res double)";

sim::ProgramImage echo_image() {
  return rpc::make_procedure_image(
      kEchoSpec,
      {{"echo", [](rpc::ProcCall& c) { c.set_real("y", 2.0 * c.real("x")); }}});
}

/// Two-site fixture: client + manager at "lerc", the echo server across
/// the faulted internet-wan link at "ua".
class FaultPathTest : public ::testing::Test {
 protected:
  void SetUp() override { build(); }

  void build() {
    system_.reset();
    cluster_ = std::make_unique<sim::Cluster>();
    cluster_->add_machine("avs", "sun-sparc10", "lerc");
    cluster_->add_machine("far", "sgi-4d480", "ua");
    cluster_->add_machine("spare", "ibm-rs6000", "ua");
    cluster_->set_site_link("lerc", "ua", sim::link_profile("internet-wan"));
    cluster_->install_image("far", "/bin/echo", echo_image());
    cluster_->install_image("spare", "/bin/echo", echo_image());
    system_ = std::make_unique<rpc::SchoonerSystem>(*cluster_, "avs");
  }

  CallOptions wan_options() {
    CallOptions opts;
    opts.deadline_us = 5'000'000;  // 5 s of virtual time
    opts.max_attempts = 4;
    opts.idempotent = true;        // echo is pure
    opts.host_grace_ms = 25;       // keep dropped-frame detection fast
    return opts;
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::unique_ptr<rpc::SchoonerSystem> system_;
};

TEST(FaultInjectorTest, ScheduleIsAPureFunctionOfSeedLinkAndIndex) {
  sim::FaultSpec spec;
  spec.drop_rate = 0.2;
  spec.duplicate_rate = 0.1;
  spec.delay_rate = 0.1;
  spec.delay_us = 500;

  sim::FaultInjector a, b;
  a.set_seed(42);
  b.set_seed(42);
  a.set_link_faults("internet-wan", spec);
  b.set_link_faults("internet-wan", spec);

  // Lookahead equals the consumed schedule, and two same-seed injectors
  // agree decision by decision.
  for (int i = 0; i < 200; ++i) {
    util::SimTime delay = 0;
    sim::FaultAction lookahead = a.decision_at("internet-wan", i);
    EXPECT_EQ(lookahead, a.next("internet-wan", &delay)) << "index " << i;
    EXPECT_EQ(lookahead, b.decision_at("internet-wan", i)) << "index " << i;
  }

  // A different seed produces a different schedule (some index differs).
  sim::FaultInjector c;
  c.set_seed(43);
  c.set_link_faults("internet-wan", spec);
  bool differs = false;
  for (int i = 0; i < 200 && !differs; ++i) {
    differs = c.decision_at("internet-wan", i) !=
              a.decision_at("internet-wan", i);
  }
  EXPECT_TRUE(differs);

  // Per-link independence: another link sees its own schedule.
  sim::FaultInjector d;
  d.set_seed(42);
  d.set_link_faults("ethernet-lan", spec);
  bool link_differs = false;
  for (int i = 0; i < 200 && !link_differs; ++i) {
    link_differs = d.decision_at("ethernet-lan", i) !=
                   a.decision_at("internet-wan", i);
  }
  EXPECT_TRUE(link_differs);

  // The observed mix tracks the configured rates (hash quality check).
  sim::FaultInjector::Stats st = a.stats();
  EXPECT_GT(st.dropped, 20u);
  EXPECT_LT(st.dropped, 60u);
  EXPECT_GT(st.duplicated + st.delayed, 20u);
}

TEST_F(FaultPathTest, SameSeedReproducesDropScheduleAndAttemptCounts) {
  // Two full runs from scratch with the same fault seed must produce the
  // identical per-call attempt trace and identical fault tallies.
  auto run_once = [this]() {
    build();
    auto session = system_->make_session("avs");
    auto client = session->open_line(rpc::LineOptions{}.with_name("det"));
    client->contact_schx("far", "/bin/echo");
    auto echo = client->import_proc("echo", kEchoImport);

    // Faults go live only after setup so the spawn handshake cannot be
    // dropped; the two runs share the same send order from here on.
    cluster_->set_fault_seed(2026);
    sim::FaultSpec spec;
    spec.drop_rate = 0.10;
    cluster_->set_link_faults("internet-wan", spec);

    std::vector<int> attempts;
    CallOptions opts = wan_options();
    for (int i = 0; i < 40; ++i) {
      CallResult r = echo->call({Value::real(i), Value::real(0)}, opts);
      EXPECT_TRUE(r.ok()) << "call " << i << ": " << r.status.to_string();
      if (r.ok()) {
        EXPECT_DOUBLE_EQ(r.values[1].as_real(), 2.0 * i);
      }
      attempts.push_back(r.attempt_count());
    }
    auto stats = cluster_->fault_stats();
    client->quit();
    return std::make_pair(attempts, stats.dropped);
  };

  auto [attempts1, dropped1] = run_once();
  auto [attempts2, dropped2] = run_once();
  EXPECT_EQ(attempts1, attempts2);
  EXPECT_EQ(dropped1, dropped2);
  EXPECT_GT(dropped1, 0u);  // the seed actually exercised the drop path
}

TEST_F(FaultPathTest, DeadlineExceededComesBackAsStatusNotHang) {
  // 100% loss: every attempt times out at the transport wait; the call
  // returns kDeadlineExceeded with the full attempt trace, and each
  // timed-out attempt charged its virtual budget to the caller's clock.
  cluster_->set_fault_seed(7);
  sim::FaultSpec spec;
  spec.drop_rate = 1.0;

  auto session = system_->make_session("avs");
  auto client = session->open_line(rpc::LineOptions{}.with_name("dead"));
  client->contact_schx("far", "/bin/echo");
  auto echo = client->import_proc("echo", kEchoImport);
  // Bind + marshal once while the link is clean, then break the link.
  CallResult warm = echo->call({Value::real(1), Value::real(0)},
                               wan_options());
  ASSERT_TRUE(warm.ok());
  cluster_->set_link_faults("internet-wan", spec);

  CallOptions opts = wan_options();
  opts.max_attempts = 3;
  CallResult r = echo->call({Value::real(2), Value::real(0)}, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), util::ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(r.attempt_count(), 3);
  EXPECT_GT(r.virtual_us, 0);
  cluster_->clear_faults();
  client->quit();
}

TEST_F(FaultPathTest, APipelinedCallRetriesFromGetAfterALostRequest) {
  auto session = system_->make_session("avs");
  auto client = session->open_line(rpc::LineOptions{}.with_name("split"));
  client->contact_schx("far", "/bin/echo");
  auto echo = client->import_proc("echo", kEchoImport);
  ASSERT_TRUE(echo->call({Value::real(1), Value::real(0)}, wan_options()).ok());

  // The first attempt's request is lost at issue; the link heals before
  // get(), whose await times out and whose retry is then answered.
  cluster_->set_fault_seed(11);
  sim::FaultSpec spec;
  spec.drop_rate = 1.0;
  cluster_->set_link_faults("internet-wan", spec);
  rpc::PendingCall pending =
      echo->call_async({Value::real(4), Value::real(0)}, wan_options());
  cluster_->clear_faults();

  CallResult& r = pending.get();
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_DOUBLE_EQ(r.values[1].as_real(), 8.0);
  ASSERT_EQ(r.attempt_count(), 2);
  EXPECT_EQ(r.attempts[0].status.code(), util::ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(echo->calls(), 2);
  client->quit();
}

TEST_F(FaultPathTest, FivePercentWanLossCompletesEveryIdempotentCall) {
  // The availability claim: under 5% injected frame loss on the wan, a
  // retrying idempotent caller completes every call — no hangs, no
  // surfaced failures — and at least one call needed a retry.
  auto session = system_->make_session("avs");
  auto client = session->open_line(rpc::LineOptions{}.with_name("wan"));
  client->contact_schx("far", "/bin/echo");
  auto echo = client->import_proc("echo", kEchoImport);

  cluster_->set_fault_seed(11);
  sim::FaultSpec spec;
  spec.drop_rate = 0.05;
  cluster_->set_link_faults("internet-wan", spec);

  int retried = 0;
  CallOptions opts = wan_options();
  for (int i = 0; i < 60; ++i) {
    CallResult r = echo->call({Value::real(i), Value::real(0)}, opts);
    ASSERT_TRUE(r.ok()) << "call " << i << ": " << r.status.to_string();
    EXPECT_DOUBLE_EQ(r.values[1].as_real(), 2.0 * i);
    if (r.attempt_count() > 1) ++retried;
  }
  EXPECT_GT(cluster_->fault_stats().dropped, 0u);
  EXPECT_GT(retried, 0);
  client->quit();
}

TEST_F(FaultPathTest, DuplicateAndDelayFaultsNeverCorruptReplies) {
  // Duplicated reply frames must be discarded by the abandoned-seq
  // filter, and delayed frames only shift virtual time — every call still
  // returns the right value through the legacy throwing surface.
  auto session = system_->make_session("avs");
  auto client = session->open_line(rpc::LineOptions{}.with_name("dup"));
  client->contact_schx("far", "/bin/echo");
  auto echo = client->import_proc("echo", kEchoImport);

  cluster_->set_fault_seed(5);
  sim::FaultSpec spec;
  spec.duplicate_rate = 0.25;
  spec.delay_rate = 0.25;
  spec.delay_us = 40'000;
  cluster_->set_link_faults("internet-wan", spec);

  for (int i = 0; i < 50; ++i) {
    uts::ValueList out = echo->call({Value::real(i), Value::real(0)}, kLegacy)
        .values_or_raise();
    EXPECT_DOUBLE_EQ(out[1].as_real(), 2.0 * i);
  }
  auto stats = cluster_->fault_stats();
  EXPECT_GT(stats.duplicated, 0u);
  EXPECT_GT(stats.delayed, 0u);
  client->quit();
}

TEST_F(FaultPathTest, CrashedServerFailsOverByMigration) {
  auto session = system_->make_session("avs");
  auto client = session->open_line(rpc::LineOptions{}.with_name("failover"));
  rpc::StartResult started = client->contact_schx("far", "/bin/echo");
  auto echo = client->import_proc("echo", kEchoImport);
  ASSERT_TRUE(echo->call({Value::real(3), Value::real(0)},
                         wan_options()).ok());

  // Kill the server process mid-run (no protocol goodbye).
  cluster_->crash_process(started.address);
  EXPECT_EQ(cluster_->crashes(), 1u);

  CallOptions opts = wan_options();
  opts.failover_machine = "spare";
  CallResult r = echo->call({Value::real(4), Value::real(0)}, opts);
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_TRUE(r.failed_over);
  EXPECT_DOUBLE_EQ(r.values[1].as_real(), 8.0);
  // Attempts against the dead address precede the post-failover success.
  EXPECT_GE(r.attempt_count(), 2);

  // The migrated placement serves subsequent calls without failover.
  CallResult again = echo->call({Value::real(5), Value::real(0)}, opts);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.failed_over);
  EXPECT_EQ(again.attempt_count(), 1);
  client->quit();
}

TEST_F(FaultPathTest, FailoverToIncompatibleReplicaIsRefusedByCompatGate) {
  // The spare machine carries a *drifted* echo build whose export surface
  // is incompatible with the signature the surviving clients bound ("x"
  // became integer). The Manager's move-compat gate must refuse the
  // migration, dismiss the replica, and return a clean error — never let
  // a call be mis-marshaled into the wrong layout.
  cluster_->install_image(
      "spare", "/bin/echo",
      rpc::make_procedure_image(
          "export echo prog(\"x\" val integer, \"y\" res double)",
          {{"echo", [](rpc::ProcCall& c) {
              c.set_real("y", static_cast<double>(2 * c.integer("x")));
            }}}));

  auto session = system_->make_session("avs");
  auto client = session->open_line(
      rpc::LineOptions{}.with_name("compat-reject"));
  rpc::StartResult started = client->contact_schx("far", "/bin/echo");
  auto echo = client->import_proc("echo", kEchoImport);
  ASSERT_TRUE(
      echo->call({Value::real(3), Value::real(0)}, wan_options()).ok());

  cluster_->crash_process(started.address);

  CallOptions opts = wan_options();
  opts.failover_machine = "spare";
  CallResult r = echo->call({Value::real(4), Value::real(0)}, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), util::ErrorCode::kUnavailable);
  EXPECT_NE(r.status.message().find("failover"), std::string::npos)
      << r.status.to_string();

  // The refused sch_move shows up in the attempt trace...
  ASSERT_GE(r.attempt_count(), 2);
  const rpc::CallAttempt& last = r.attempts.back();
  EXPECT_NE(last.address.find("sch_move -> spare"), std::string::npos);
  EXPECT_FALSE(last.status.is_ok());

  // ...and the Manager counted the rejection.
  EXPECT_GE(system_->stats().compat_rejects, 1u);
  client->quit();
}

TEST_F(FaultPathTest, GlueDegradesToLocalComputeWhenServerDies) {
  // RemoteBackend: a placed duct whose process crashes falls back to the
  // local physics hook and records the degradation.
  glue::install_tess_procedures_everywhere(*cluster_);
  glue::RemoteBackend backend(*system_, "avs");
  backend.place(glue::AdaptedComponent::kDuct, 0,
                glue::Placement{"far", ""});
  tess::ComponentHooks hooks = backend.hooks();
  tess::ComponentHooks local = tess::ComponentHooks::local();

  tess::StationArray in{102.0, 288.15, 101325.0, 20.0};
  tess::StationArray before = hooks.duct(0, in, 0.02);
  ASSERT_EQ(backend.degraded_calls(), 0);

  ASSERT_GT(cluster_->crash_machine("far"), 0);

  tess::StationArray after = hooks.duct(0, in, 0.02);
  EXPECT_EQ(backend.degraded_calls(), 1);
  ASSERT_EQ(backend.degraded_instances().size(), 1u);
  EXPECT_EQ(backend.degraded_instances()[0], "duct[0]");
  tess::StationArray reference = local.duct(0, in, 0.02);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(after[i], reference[i]) << "station " << i;
    // The pre-crash remote answer agrees too (single-float wire rounding).
    EXPECT_NEAR(before[i], reference[i],
                std::abs(reference[i]) * 1e-6 + 1e-6);
  }
}

TEST_F(FaultPathTest, RetryAttemptsShareOneTraceAsChildSpans) {
  // Trace context survives retries: the call records one parent span and
  // one child span per attempt, all on the same trace.
  auto session = system_->make_session("avs");
  auto client = session->open_line(rpc::LineOptions{}.with_name("trace"));
  client->contact_schx("far", "/bin/echo");
  auto echo = client->import_proc("echo", kEchoImport);
  CallOptions opts = wan_options();
  ASSERT_TRUE(echo->call({Value::real(1), Value::real(0)}, opts).ok());

  sim::FaultSpec spec;
  spec.drop_rate = 1.0;
  cluster_->set_fault_seed(3);
  cluster_->set_link_faults("internet-wan", spec);

  obs::reset_run();
  opts.max_attempts = 2;
  CallResult r = echo->call({Value::real(2), Value::real(0)}, opts);
  ASSERT_FALSE(r.ok());
  ASSERT_EQ(r.attempt_count(), 2);

  std::vector<obs::SpanRecord> spans = obs::SpanCollector::global().snapshot();
  const obs::SpanRecord* call_span = nullptr;
  for (const obs::SpanRecord& s : spans) {
    if (s.name == "call echo") call_span = &s;
  }
  ASSERT_NE(call_span, nullptr);
  int attempt_children = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.name.starts_with("attempt ")) {
      EXPECT_EQ(s.trace_id, call_span->trace_id);
      EXPECT_EQ(s.parent_span_id, call_span->span_id);
      ++attempt_children;
    }
  }
  EXPECT_EQ(attempt_children, 2);
  cluster_->clear_faults();
  client->quit();
}

TEST_F(FaultPathTest, LegacyThrowingShimKeepsItsContract) {
  auto session = system_->make_session("avs");
  auto client = session->open_line(rpc::LineOptions{}.with_name("legacy"));
  client->contact_schx("far", "/bin/echo");

  // An import of an undeclared name still raises LookupError.
  EXPECT_THROW(
      (void)client->import_proc("nope", kEchoImport), util::LookupError);

  // A working call returns values, and a post-move call recovers through
  // the historical one-rebind stale path — transparently, exactly once.
  auto echo = client->import_proc("echo", kEchoImport);
  EXPECT_DOUBLE_EQ(echo->call({Value::real(6), Value::real(0)}, kLegacy)
                       .values_or_raise()[1]
                       .as_real(),
                   12.0);
  client->move_proc("echo", "spare");
  EXPECT_DOUBLE_EQ(echo->call({Value::real(7), Value::real(0)}, kLegacy)
                       .values_or_raise()[1]
                       .as_real(),
                   14.0);
  EXPECT_EQ(echo->stale_retries(), 1);
  client->quit();
}

}  // namespace
}  // namespace npss
