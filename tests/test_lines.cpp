// The multi-tenant session layer (DESIGN.md §15): Session/Line handles,
// Manager admission control (max_lines, per-line call quota), per-line
// fault budgets charged by CallCore::invoke, fair per-line queueing in
// the host worker pools, and noisy-neighbor isolation — one line behind a
// 100%-lossy link must not move its neighbors' deterministic virtual-time
// p99 by more than 10%.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rpc/schooner.hpp"
#include "sim/network.hpp"
#include "util/fair_queue.hpp"

namespace npss {
namespace {

using rpc::CallOptions;
using rpc::CallResult;
using rpc::LineBudget;
using rpc::LineOptions;
using uts::Value;

const char* kWorkSpec = "export work prog(\"x\" val double, \"y\" res double)";
const char* kWorkImport =
    "import work prog(\"x\" val double, \"y\" res double)";

sim::ProgramImage work_image(int workers = 0) {
  rpc::ProcedureImageOptions options;
  options.workers = workers;
  return rpc::make_procedure_image(
      kWorkSpec,
      {{"work",
        [](rpc::ProcCall& c) { c.set_real("y", c.real("x") + 1.0); }}},
      options);
}

// Shared procedures live in the Manager's one shared name space, so each
// shared fleet host exports a distinct name; tenant lines import without
// contacting (the owner line started the host).
std::string named_work_spec(const std::string& name) {
  return "export " + name + " prog(\"x\" val double, \"y\" res double)";
}
std::string named_work_import(const std::string& name) {
  return "import " + name + " prog(\"x\" val double, \"y\" res double)";
}
sim::ProgramImage named_work_image(const std::string& name, int workers = 0) {
  rpc::ProcedureImageOptions options;
  options.workers = workers;
  return rpc::make_procedure_image(
      named_work_spec(name),
      {{name,
        [](rpc::ProcCall& c) { c.set_real("y", c.real("x") + 1.0); }}},
      options);
}

// --- util::FairQueue ----------------------------------------------------

TEST(FairQueue, DrainsLanesRoundRobinNotArrival) {
  util::FairQueue<int> q;
  // Line 7 floods first; lines 8 and 9 each enqueue one item afterward.
  for (int i = 0; i < 4; ++i) q.push(7, 700 + i);
  q.push(8, 800);
  q.push(9, 900);
  // Round-robin over lanes: 7, 8, 9, 7, 7, 7 — the flood waits behind
  // itself, not in front of its neighbors.
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) order.push_back(*q.pop());
  EXPECT_EQ(order, (std::vector<int>{700, 800, 900, 701, 702, 703}));
  EXPECT_EQ(q.size(), 0u);
}

TEST(FairQueue, CloseDrainsThenReturnsNullopt) {
  util::FairQueue<std::string> q;
  q.push(1, "a");
  q.push(2, "b");
  q.close();
  EXPECT_TRUE(q.pop().has_value());
  EXPECT_TRUE(q.pop().has_value());
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(q.push(3, "late"));  // rejected after close
}

// --- LineBudget ---------------------------------------------------------

TEST(LineBudgetTest, OutstandingCapAndRetryBudget) {
  LineBudget budget({.virtual_us = 0, .retries = 2, .outstanding = 2});
  EXPECT_TRUE(budget.try_begin_call());
  EXPECT_TRUE(budget.try_begin_call());
  EXPECT_FALSE(budget.try_begin_call());  // cap reached
  budget.end_call();
  EXPECT_TRUE(budget.try_begin_call());

  EXPECT_TRUE(budget.charge_retry());
  EXPECT_TRUE(budget.charge_retry());
  EXPECT_FALSE(budget.charge_retry());  // retry budget spent
  EXPECT_EQ(budget.retries_spent(), 2);
}

TEST(LineBudgetTest, ManagerQuotaFoldsInSmallerWins) {
  LineBudget unlimited(LineBudget::Limits{});
  unlimited.restrict_outstanding(3);
  EXPECT_TRUE(unlimited.try_begin_call());
  EXPECT_TRUE(unlimited.try_begin_call());
  EXPECT_TRUE(unlimited.try_begin_call());
  EXPECT_FALSE(unlimited.try_begin_call());

  LineBudget tight({.virtual_us = 0, .retries = 0, .outstanding = 1});
  tight.restrict_outstanding(5);  // the line's own cap stays
  EXPECT_TRUE(tight.try_begin_call());
  EXPECT_FALSE(tight.try_begin_call());
}

// --- Session / Line fixture --------------------------------------------

class LinesTest : public ::testing::Test {
 protected:
  void build(rpc::SystemOptions options = {}, int host_workers = 0) {
    system_.reset();
    cluster_ = std::make_unique<sim::Cluster>();
    cluster_->add_machine("avs", "sun-sparc10", "lerc");
    cluster_->add_machine("m0", "ibm-rs6000", "lerc");
    cluster_->add_machine("m1", "ibm-rs6000", "lerc");
    cluster_->add_machine("far", "sgi-4d480", "ua");
    cluster_->set_site_link("lerc", "ua", sim::link_profile("internet-wan"));
    cluster_->install_image("m0", "/bin/work", work_image(host_workers));
    cluster_->install_image("m1", "/bin/work", work_image(host_workers));
    cluster_->install_image("m0", "/bin/work0",
                            named_work_image("work0", host_workers));
    cluster_->install_image("m1", "/bin/work1",
                            named_work_image("work1", host_workers));
    cluster_->install_image("far", "/bin/work", work_image());
    system_ =
        std::make_unique<rpc::SchoonerSystem>(*cluster_, "avs", options);
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::unique_ptr<rpc::SchoonerSystem> system_;
};

TEST_F(LinesTest, DuplicateNamesResolvePerLine) {
  build();
  auto session = system_->make_session("avs");
  auto a = session->open_line(LineOptions{}.with_name("tenant-a"));
  auto b = session->open_line(LineOptions{}.with_name("tenant-b"));
  ASSERT_NE(a->id(), b->id());

  // Both lines import 'work' — same name, different processes, separate
  // per-line name spaces.
  a->contact_schx("m0", "/bin/work");
  b->contact_schx("m1", "/bin/work");
  auto wa = a->import_proc("work", kWorkImport);
  auto wb = b->import_proc("work", kWorkImport);
  const CallOptions legacy = CallOptions::legacy();
  EXPECT_DOUBLE_EQ(
      wa->call({Value::real(1), Value::real(0)}, legacy).values_or_raise()[1]
          .as_real(),
      2.0);
  EXPECT_DOUBLE_EQ(
      wb->call({Value::real(5), Value::real(0)}, legacy).values_or_raise()[1]
          .as_real(),
      6.0);

  // Tearing down line A shuts down A's process only; B keeps calling.
  a->quit();
  EXPECT_FALSE(a->active());
  EXPECT_DOUBLE_EQ(
      wb->call({Value::real(7), Value::real(0)}, legacy).values_or_raise()[1]
          .as_real(),
      8.0);
  b->quit();
  EXPECT_EQ(session->lines_opened(), 2);
}

TEST_F(LinesTest, AdmissionGateRejectsPastMaxLines) {
  rpc::SystemOptions options;
  options.max_lines = 2;
  build(options);
  auto session = system_->make_session("avs");
  auto a = session->open_line();
  auto b = session->open_line();

  // The third registration is refused with kLineRejected, not an export
  // or protocol error.
  EXPECT_THROW((void)session->open_line(), util::LineRejectedError);
  EXPECT_EQ(system_->stats().lines_rejected, 1u);

  // Freeing a slot makes the next registration admissible.
  a->quit();
  auto c = session->open_line();
  EXPECT_TRUE(c->active());
  c->quit();
  b->quit();
}

TEST_F(LinesTest, RejectedClientBacksOffThenAdmits) {
  rpc::SystemOptions options;
  options.max_lines = 1;
  build(options);
  auto session = system_->make_session("avs");
  auto holder = session->open_line();

  // A competing open with admission backoff keeps retrying; once the
  // holder quits, an attempt lands inside the window and is admitted.
  std::thread release([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    holder->quit();
  });
  auto late = session->open_line(
      LineOptions{}.with_name("late").with_admission(/*attempts=*/20,
                                                     /*backoff_ms=*/10));
  release.join();
  EXPECT_TRUE(late->active());
  EXPECT_GE(system_->stats().lines_rejected, 1u);
  late->quit();
}

TEST_F(LinesTest, ManagerQuotaFoldsIntoLineBudget) {
  rpc::SystemOptions options;
  options.line_call_quota = 2;
  build(options);
  auto session = system_->make_session("avs");
  auto line = session->open_line();
  ASSERT_TRUE(line->budget() != nullptr);
  // The kLineAck quota (2) became the budget's outstanding cap.
  EXPECT_TRUE(line->budget()->try_begin_call());
  EXPECT_TRUE(line->budget()->try_begin_call());
  EXPECT_FALSE(line->budget()->try_begin_call());
  line->budget()->end_call();
  line->budget()->end_call();
  line->quit();
}

TEST_F(LinesTest, VirtualBudgetExhaustionFailsFast) {
  build();
  auto session = system_->make_session("avs");
  // A budget of 1 us of virtual time: the first call (which costs real
  // virtual microseconds of marshal + transport) spends it entirely.
  auto line = session->open_line(
      LineOptions{}.with_name("broke").with_budget({.virtual_us = 1}));
  line->contact_schx("m0", "/bin/work");
  auto work = line->import_proc("work", kWorkImport);
  const CallOptions legacy = CallOptions::legacy();
  CallResult first = work->call({Value::real(1), Value::real(0)}, legacy);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first.virtual_us, 0);
  EXPECT_GE(line->budget()->virtual_spent(), 1);

  CallResult second = work->call({Value::real(2), Value::real(0)}, legacy);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status.code(), util::ErrorCode::kBudgetExhausted);
  EXPECT_EQ(second.attempt_count(), 0);  // refused before any attempt
  line->quit();
}

TEST_F(LinesTest, FiveHundredLinesShareOneFleet) {
  build({}, /*host_workers=*/2);
  auto session = system_->make_session("avs");

  // One owner line starts the shared fleet (two pooled hosts); the
  // tenants never contact — they import straight out of the shared
  // name space and share the resident processes.
  auto owner = session->open_line(LineOptions{}.with_name("fleet-owner"));
  owner->contact_schx("m0", "/bin/work0", /*shared=*/true);
  owner->contact_schx("m1", "/bin/work1", /*shared=*/true);

  const int kLines = 500;
  std::vector<std::unique_ptr<rpc::Line>> lines;
  std::vector<std::unique_ptr<rpc::RemoteProc>> procs;
  lines.reserve(kLines);
  procs.reserve(kLines);
  for (int i = 0; i < kLines; ++i) {
    auto line = session->open_line(
        LineOptions{}.with_name("tenant" + std::to_string(i)));
    const std::string proc = i % 2 == 0 ? "work0" : "work1";
    procs.push_back(line->import_proc(proc, named_work_import(proc)));
    lines.push_back(std::move(line));
  }
  EXPECT_EQ(session->lines_opened(), kLines + 1);

  // Step every line twice from a small worker pool; every call must land
  // on the shared fleet and come back correct.
  const int kWorkers = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> pool;
  for (int w = 0; w < kWorkers; ++w) {
    pool.emplace_back([&, w] {
      const CallOptions legacy = CallOptions::legacy();
      for (int step = 0; step < 2; ++step) {
        for (int i = w; i < kLines; i += kWorkers) {
          CallResult r =
              procs[i]->call({Value::real(i), Value::real(0)}, legacy);
          if (!r.ok() || r.values[1].as_real() != i + 1.0) ++failures;
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(failures.load(), 0);

  procs.clear();
  for (auto& line : lines) line->quit();
  owner->quit();
  rpc::ManagerStats stats = system_->stats();
  EXPECT_GE(stats.lines_created, static_cast<std::uint64_t>(kLines));
  EXPECT_GE(stats.lines_shut_down, static_cast<std::uint64_t>(kLines));
}

TEST_F(LinesTest, LossyLineDoesNotMoveNeighborP99) {
  build({}, /*host_workers=*/2);
  auto session = system_->make_session("avs");

  auto owner = session->open_line(LineOptions{}.with_name("fleet-owner"));
  owner->contact_schx("m0", "/bin/work0", /*shared=*/true);
  owner->contact_schx("m1", "/bin/work1", /*shared=*/true);

  const int kNeighbors = 4;
  std::vector<std::unique_ptr<rpc::Line>> lines;
  std::vector<std::unique_ptr<rpc::RemoteProc>> procs;
  for (int i = 0; i < kNeighbors; ++i) {
    auto line = session->open_line(
        LineOptions{}.with_name("neighbor" + std::to_string(i)));
    const std::string proc = i % 2 == 0 ? "work0" : "work1";
    procs.push_back(line->import_proc(proc, named_work_import(proc)));
    lines.push_back(std::move(line));
  }
  auto victim = session->open_line(
      LineOptions{}
          .with_name("victim")
          .with_budget({.virtual_us = 10'000'000, .retries = 100}));
  victim->contact_schx("far", "/bin/work");
  auto victim_work = victim->import_proc("work", kWorkImport);
  const CallOptions legacy = CallOptions::legacy();
  ASSERT_TRUE(
      victim_work->call({Value::real(1), Value::real(0)}, legacy).ok());

  // Deterministic per-step cost: each call's virtual_us comes from the
  // line's own virtual clock and seeded link model, not wall time.
  auto measure_p99 = [&]() {
    std::vector<double> virtual_us;
    for (int step = 0; step < 25; ++step) {
      for (int i = 0; i < kNeighbors; ++i) {
        CallResult r =
            procs[i]->call({Value::real(step), Value::real(0)}, legacy);
        EXPECT_TRUE(r.ok());
        virtual_us.push_back(static_cast<double>(r.virtual_us));
      }
    }
    std::sort(virtual_us.begin(), virtual_us.end());
    return virtual_us[virtual_us.size() * 99 / 100];
  };
  const double baseline_p99 = measure_p99();
  ASSERT_GT(baseline_p99, 0.0);

  // 100% loss on the victim's WAN; it storms deadline-bounded retries
  // from another thread while the neighbors re-measure.
  sim::FaultSpec loss;
  loss.drop_rate = 1.0;
  cluster_->set_fault_seed(11);
  cluster_->set_link_faults("internet-wan", loss);
  std::atomic<bool> stop{false};
  std::atomic<long> victim_failures{0};
  std::atomic<bool> budget_hit{false};
  std::thread storm([&] {
    CallOptions opts;
    opts.deadline_us = 100'000;
    opts.max_attempts = 3;
    opts.idempotent = true;
    opts.host_grace_ms = 2;
    while (!stop.load()) {
      CallResult r =
          victim_work->call({Value::real(1), Value::real(0)}, opts);
      if (r.ok()) continue;
      ++victim_failures;
      if (r.status.code() == util::ErrorCode::kBudgetExhausted) {
        budget_hit.store(true);
        break;
      }
    }
  });

  const double contended_p99 = measure_p99();
  stop.store(true);
  storm.join();
  cluster_->clear_faults();

  // The isolation bound: the lossy line moved its neighbors' p99 by at
  // most 10%. (Virtual time is per-line, so the expected delta is zero;
  // the bound leaves room for scheduling-order effects in shared hosts.)
  EXPECT_LE(contended_p99, baseline_p99 * 1.10)
      << "baseline " << baseline_p99 << " vs contended " << contended_p99;
  EXPECT_GT(victim_failures.load(), 0);

  victim->quit();
  procs.clear();
  for (auto& line : lines) line->quit();
  owner->quit();
  (void)budget_hit;
}

TEST_F(LinesTest, FreshSessionCarriesOneLine) {
  // The one-client-per-line shape: a session of its own and one line.
  build();
  auto session = system_->make_session("avs");
  auto line = session->open_line(LineOptions{}.with_name("solo"));
  line->contact_schx("m0", "/bin/work");
  auto work = line->import_proc("work", kWorkImport);
  const CallOptions legacy = CallOptions::legacy();
  EXPECT_DOUBLE_EQ(
      work->call({Value::real(3), Value::real(0)}, legacy).values_or_raise()[1]
          .as_real(),
      4.0);
  EXPECT_EQ(&line->session(), session.get());
  EXPECT_EQ(session->lines_opened(), 1);
  line->quit();
}

}  // namespace
}  // namespace npss
