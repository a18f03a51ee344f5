// Tests of the virtual cluster: topology and routing, link-profile cost
// ordering, deterministic virtual time, program images, endpoint lifecycle,
// traffic accounting, and the fiber fabric that runs the processes: the
// mailbox, per-fiber context, driving from client threads, the fabric
// sleep, and process memory release.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "rpc/schooner.hpp"
#include "sim/cluster.hpp"
#include "sim/network.hpp"
#include "util/lockdep.hpp"

namespace npss::sim {
namespace {

TEST(LinkProfiles, CatalogOrderingMatchesThePaperNetworkClasses) {
  const LinkProfile& loop = link_profile("loopback");
  const LinkProfile& lan = link_profile("ethernet-lan");
  const LinkProfile& campus = link_profile("campus-multigateway");
  const LinkProfile& wan = link_profile("internet-wan");
  const std::size_t payload = 200;  // a TESS-call-sized message
  EXPECT_LT(loop.transfer_time(payload), lan.transfer_time(payload));
  EXPECT_LT(lan.transfer_time(payload), campus.transfer_time(payload));
  EXPECT_LT(campus.transfer_time(payload), wan.transfer_time(payload));
}

TEST(LinkProfiles, WanCostIsLatencyDominatedForSmallPayloads) {
  const LinkProfile& wan = link_profile("internet-wan");
  const util::SimTime base = wan.transfer_time(0);
  const util::SimTime with_payload = wan.transfer_time(200);
  // Serialization of a 200-byte call adds well under half the total.
  EXPECT_LT(with_payload - base, base / 2);
}

TEST(LinkProfiles, BandwidthMattersForBulkPayloads) {
  const LinkProfile& wan = link_profile("internet-wan");
  EXPECT_GT(wan.transfer_time(1 << 20), 10 * wan.transfer_time(200));
}

TEST(LinkProfiles, UnknownProfileThrows) {
  EXPECT_THROW((void)link_profile("fddi"), util::NoRouteError);
}

class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_.add_machine("a", "sun-sparc10", "site1");
    cluster_.add_machine("b", "cray-ymp", "site1");
    cluster_.add_machine("c", "ibm-rs6000", "site2");
    cluster_.set_site_link("site1", "site2", link_profile("internet-wan"));
  }
  Cluster cluster_;
};

TEST_F(ClusterTest, RoutingPicksTheRightLink) {
  const Machine& a = cluster_.machine("a");
  const Machine& b = cluster_.machine("b");
  const Machine& c = cluster_.machine("c");
  EXPECT_EQ(cluster_.route(a, a).name, "loopback");
  EXPECT_EQ(cluster_.route(a, b).name, "ethernet-lan");
  EXPECT_EQ(cluster_.route(a, c).name, "internet-wan");
  EXPECT_EQ(cluster_.route(c, a).name, "internet-wan");
}

TEST_F(ClusterTest, MissingRouteAndMachineAreErrors) {
  cluster_.add_machine("d", "sgi-4d340", "site3");
  EXPECT_THROW((void)cluster_.route(cluster_.machine("a"),
                                    cluster_.machine("d")),
               util::NoRouteError);
  EXPECT_THROW((void)cluster_.machine("zz"), util::NoSuchMachineError);
  EXPECT_THROW((void)cluster_.add_machine("a", "sun-sparc10", "x"),
               util::NoSuchMachineError);
}

TEST_F(ClusterTest, MessageDeliveryAdvancesVirtualTimeDeterministically) {
  EndpointPtr tx = cluster_.create_endpoint("a", "tx");
  EndpointPtr rx = cluster_.create_endpoint("c", "rx");
  const util::Bytes payload(100, 0x55);
  cluster_.send(*tx, rx->address(), payload);
  auto env = rx->receive();
  ASSERT_TRUE(env.has_value());
  const LinkProfile& wan = link_profile("internet-wan");
  EXPECT_EQ(rx->clock().now(), wan.transfer_time(100));
  EXPECT_EQ(env->payload, payload);
  // Sending again from the (still zero-clock) sender keeps the receiver
  // at max(own, stamp) — virtual time is monotone.
  cluster_.send(*tx, rx->address(), payload);
  rx->receive();
  EXPECT_EQ(rx->clock().now(), wan.transfer_time(100));
}

TEST_F(ClusterTest, ClockJoinTakesMaximum) {
  EndpointPtr tx = cluster_.create_endpoint("a", "tx");
  EndpointPtr rx = cluster_.create_endpoint("b", "rx");
  rx->clock().advance(1'000'000);
  cluster_.send(*tx, rx->address(), util::Bytes{1});
  rx->receive();
  EXPECT_EQ(rx->clock().now(), 1'000'000);
}

TEST_F(ClusterTest, SendToRetiredEndpointFails) {
  EndpointPtr tx = cluster_.create_endpoint("a", "tx");
  EndpointPtr rx = cluster_.create_endpoint("b", "rx");
  const std::string addr = rx->address();
  EXPECT_TRUE(cluster_.endpoint_alive(addr));
  cluster_.retire_endpoint(addr);
  EXPECT_FALSE(cluster_.endpoint_alive(addr));
  EXPECT_THROW(cluster_.send(*tx, addr, util::Bytes{1}),
               util::NoRouteError);
  cluster_.retire_endpoint(addr);  // idempotent
}

TEST_F(ClusterTest, SpawnRunsImageWithArgsAndRetiresOnExit) {
  std::atomic<int> observed{0};
  EndpointPtr ep = cluster_.spawn(
      "b", "worker",
      [&](ProcessContext& ctx) {
        observed = static_cast<int>(ctx.args().size());
        // Process exits immediately.
      },
      {"x", "y", "z"});
  // Wait for the thread to retire the endpoint.
  for (int i = 0; i < 1000 && cluster_.endpoint_alive(ep->address()); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(cluster_.endpoint_alive(ep->address()));
  EXPECT_EQ(observed.load(), 3);
}

TEST_F(ClusterTest, InstalledImagesSpawnByPath) {
  std::atomic<bool> ran{false};
  cluster_.install_image("b", "/bin/job",
                         [&](ProcessContext&) { ran = true; });
  EXPECT_TRUE(cluster_.has_image("b", "/bin/job"));
  EXPECT_FALSE(cluster_.has_image("a", "/bin/job"));
  cluster_.spawn_image("b", "/bin/job", "job");
  for (int i = 0; i < 1000 && !ran; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(ran.load());
  EXPECT_THROW((void)cluster_.spawn_image("a", "/bin/job", "job"),
               util::NoSuchImageError);
}

TEST_F(ClusterTest, ComputeScalesWithCpuSpeed) {
  EndpointPtr slow = cluster_.create_endpoint("a", "slow");  // speed 1.0
  EndpointPtr fast = cluster_.create_endpoint("b", "fast");  // Cray, 6.0
  ProcessContext slow_ctx(cluster_, slow, {});
  ProcessContext fast_ctx(cluster_, fast, {});
  slow_ctx.compute(6000.0);
  fast_ctx.compute(6000.0);
  EXPECT_EQ(slow->clock().now(), 6000);
  EXPECT_EQ(fast->clock().now(), 1000);
}

TEST_F(ClusterTest, TrafficAccountingPerLink) {
  EndpointPtr tx = cluster_.create_endpoint("a", "tx");
  EndpointPtr lan_rx = cluster_.create_endpoint("b", "rx1");
  EndpointPtr wan_rx = cluster_.create_endpoint("c", "rx2");
  cluster_.send(*tx, lan_rx->address(), util::Bytes(10, 0));
  cluster_.send(*tx, wan_rx->address(), util::Bytes(20, 0));
  cluster_.send(*tx, wan_rx->address(), util::Bytes(30, 0));

  Cluster::Traffic total = cluster_.traffic();
  EXPECT_EQ(total.messages, 3u);
  EXPECT_EQ(total.bytes, 60u);
  auto by_link = cluster_.traffic_by_link();
  EXPECT_EQ(by_link["ethernet-lan"].messages, 1u);
  EXPECT_EQ(by_link["internet-wan"].messages, 2u);
  EXPECT_EQ(by_link["internet-wan"].bytes, 50u);

  cluster_.reset_traffic();
  EXPECT_EQ(cluster_.traffic().messages, 0u);
}

TEST_F(ClusterTest, ShutdownClosesEverything) {
  EndpointPtr ep = cluster_.spawn("a", "sleeper", [](ProcessContext& ctx) {
    // Blocks until the endpoint closes.
    while (ctx.self().receive()) {
    }
  });
  cluster_.shutdown();
  EXPECT_FALSE(cluster_.endpoint_alive(ep->address()));
}

// --- Mailbox -----------------------------------------------------------------

TEST_F(ClusterTest, MailboxIsFifoAndTryReceiveDoesNotBlock) {
  EndpointPtr tx = cluster_.create_endpoint("a", "tx");
  EndpointPtr rx = cluster_.create_endpoint("a", "rx");
  EXPECT_FALSE(rx->try_receive().has_value());
  for (std::uint8_t i = 1; i <= 3; ++i) {
    cluster_.send(*tx, rx->address(), util::Bytes{i});
  }
  EXPECT_EQ(rx->receive()->payload, util::Bytes{1});
  EXPECT_EQ(rx->try_receive()->payload, util::Bytes{2});
  EXPECT_EQ(rx->receive()->payload, util::Bytes{3});
}

TEST_F(ClusterTest, MailboxCloseDrainsThenStops) {
  EndpointPtr tx = cluster_.create_endpoint("a", "tx");
  EndpointPtr rx = cluster_.create_endpoint("a", "rx");
  cluster_.send(*tx, rx->address(), util::Bytes{7});
  rx->close();
  EXPECT_TRUE(rx->closed());
  EXPECT_THROW(cluster_.send(*tx, rx->address(), util::Bytes{8}),
               util::NoRouteError);  // dropped after close
  EXPECT_EQ(rx->receive()->payload, util::Bytes{7});  // queued items drain
  EXPECT_FALSE(rx->receive().has_value());
  EXPECT_FALSE(rx->receive_for(std::chrono::milliseconds(1)).has_value());
}

TEST_F(ClusterTest, MailboxCloseWakesABlockedThread) {
  EndpointPtr rx = cluster_.create_endpoint("a", "rx");
  std::thread consumer([&] { EXPECT_FALSE(rx->receive().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  rx->close();
  consumer.join();
}

TEST_F(ClusterTest, MailboxCrossThreadHandoffToAThreadAndToAFiber) {
  EndpointPtr rx = cluster_.create_endpoint("a", "rx");
  std::atomic<int> fiber_got{0};
  EndpointPtr fiber_rx = cluster_.spawn("b", "sink", [&](ProcessContext& ctx) {
    int expected = 0;
    while (auto env = ctx.self().receive()) {
      EXPECT_EQ(env->payload[0], static_cast<std::uint8_t>(expected++ % 256));
    }
    fiber_got = expected;
  });
  std::thread producer([&] {
    EndpointPtr tx = cluster_.create_endpoint("c", "tx");
    for (int i = 0; i < 1000; ++i) {
      const util::Bytes one{static_cast<std::uint8_t>(i % 256)};
      cluster_.send(*tx, rx->address(), one);
      cluster_.send(*tx, fiber_rx->address(), one);
    }
    rx->close();
    fiber_rx->close();
  });
  int expected = 0;
  while (auto env = rx->receive()) {
    EXPECT_EQ(env->payload[0], static_cast<std::uint8_t>(expected++ % 256));
  }
  producer.join();
  EXPECT_EQ(expected, 1000);
  cluster_.shutdown();
  EXPECT_EQ(fiber_got.load(), 1000);
}

TEST_F(ClusterTest, ReceiveForTimesOutOnAFiberAndOnAThread) {
  std::atomic<bool> fiber_timed_out{false};
  cluster_.spawn("a", "waiter", [&](ProcessContext& ctx) {
    fiber_timed_out =
        !ctx.self().receive_for(std::chrono::milliseconds(20)).has_value() &&
        !ctx.self().closed();
  });
  EndpointPtr rx = cluster_.create_endpoint("a", "rx");
  EXPECT_FALSE(rx->receive_for(std::chrono::milliseconds(20)).has_value());
  // The fiber's deadline is fired by the cluster's driver thread.
  for (int i = 0; i < 500 && cluster_.live_processes() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(cluster_.live_processes(), 0u);
  EXPECT_TRUE(fiber_timed_out.load());
}

// --- Process lifetime --------------------------------------------------------

TEST_F(ClusterTest, ExitedProcessesReleaseTheirMemoryBeforeShutdown) {
  const std::size_t baseline = cluster_.live_processes();
  std::vector<EndpointPtr> procs;
  for (int i = 0; i < 1000; ++i) {
    procs.push_back(cluster_.spawn(
        "a", "brief", [](ProcessContext& ctx) { ctx.self().receive(); }));
  }
  EXPECT_EQ(cluster_.live_processes(), baseline + 1000);
  EndpointPtr tx = cluster_.create_endpoint("b", "tx");
  for (const EndpointPtr& p : procs) {
    cluster_.send(*tx, p->address(), util::Bytes{1});
  }
  for (int i = 0; i < 500 && cluster_.live_processes() != baseline; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(cluster_.live_processes(), baseline);
  for (const EndpointPtr& p : procs) {
    EXPECT_FALSE(cluster_.endpoint_alive(p->address()));
  }
}

// --- Per-fiber context -------------------------------------------------------

TEST_F(ClusterTest, FiberParkedInsideCatchKeepsItsOwnException) {
  // Both fibers park inside a catch block while the other one runs its
  // own throw/catch on the same OS thread; each must rethrow its own.
  std::string first, second;
  EndpointPtr one = cluster_.spawn("a", "one", [&](ProcessContext& ctx) {
    try {
      throw std::runtime_error("one");
    } catch (...) {
      auto from_two = ctx.self().receive();  // parks with "one" caught
      try {
        throw;
      } catch (const std::exception& e) {
        first = e.what();
      }
      ctx.send(*from_two->from, util::Bytes{1});
    }
  });
  cluster_.spawn("b", "two", [&](ProcessContext& ctx) {
    try {
      throw std::logic_error("two");
    } catch (...) {
      ctx.send(one->address(), util::Bytes{1});
      ctx.self().receive();  // parks with "two" caught
      try {
        throw;
      } catch (const std::exception& e) {
        second = e.what();
      }
    }
  });
  cluster_.shutdown();
  EXPECT_EQ(first, "one");
  EXPECT_EQ(second, "two");
  EXPECT_EQ(std::uncaught_exceptions(), 0);
}

TEST(FiberLockdep, ParkingWhileHoldingAMutexIsReported) {
  namespace lockdep = util::lockdep;
  lockdep::reset();
  std::vector<lockdep::Report> reports;
  lockdep::set_handler(
      [&](const lockdep::Report& r) { reports.push_back(r); });
  {
    Cluster cluster;
    cluster.add_machine("a", "sun-sparc10", "site1");
    util::Mutex mu{"sim-test.held-across-park"};
    cluster.spawn("a", "holder", [&](ProcessContext& ctx) {
#if defined(SCHOONER_LOCKDEP) && SCHOONER_LOCKDEP
      util::MutexLock hold(mu);
      ctx.self().receive();  // parks with the lock held
#else
      // util::Mutex's hooks are compiled out here: record the hold
      // through the engine so the park check is exercised all the same.
      const auto* cls = lockdep::lock_class("sim-test.held-across-park");
      lockdep::on_acquire(cls, &mu);
      ctx.self().receive();
      lockdep::on_release(cls, &mu);
#endif
    });
    // spawn() ran the fiber on this thread up to its park.
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_TRUE(reports.front().blocking);
    EXPECT_NE(reports.front().summary.find("sim fiber parks"),
              std::string::npos);
    ASSERT_FALSE(reports.front().acquiring_chain.empty());
    EXPECT_NE(reports.front().acquiring_chain.front().find(
                  "sim-test.held-across-park"),
              std::string::npos);
    // This thread's own context holds nothing: the fiber's hold stayed
    // with the fiber.
    EXPECT_EQ(lockdep::held_count(), 0u);
  }
  lockdep::set_handler(nullptr);
  lockdep::reset();
}

// --- The fabric under the RPC runtime ----------------------------------------

const char* kAddSpec = R"(
  export add prog("x" val double, "y" val double, "sum" res double)
)";
const char* kAddImport = R"(
  import add prog("x" val double, "y" val double, "sum" res double)
)";

class FabricTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_.add_machine("sparc", "sun-sparc10", "lerc");
    cluster_.add_machine("cray", "cray-ymp", "lerc");
    cluster_.add_machine("rs6000", "ibm-rs6000", "uarizona");
    cluster_.set_site_link("lerc", "uarizona",
                           link_profile("internet-wan"));
    system_ = std::make_unique<rpc::SchoonerSystem>(cluster_, "sparc");
    session_ = system_->make_session("sparc");
  }

  void install_add(const std::string& machine,
                   std::function<void()> on_call = {}) {
    cluster_.install_image(
        machine, "/npss/add",
        rpc::make_procedure_image(
            kAddSpec, {{"add", [on_call](rpc::ProcCall& call) {
                          if (on_call) on_call();
                          call.set_real("sum",
                                        call.real("x") + call.real("y"));
                        }}}));
  }

  Cluster cluster_;
  std::unique_ptr<rpc::SchoonerSystem> system_;
  std::unique_ptr<rpc::Session> session_;
};

const rpc::CallOptions kLegacy = rpc::CallOptions::legacy();

uts::ValueList add_args(double x, double y) {
  return {uts::Value::real(x), uts::Value::real(y), uts::Value::real(0)};
}

TEST_F(FabricTest, LockStepCallRunsTheHostOnTheCallersThread) {
  std::mutex mu;
  std::vector<std::thread::id> handler_threads;
  install_add("cray", [&] {
    std::lock_guard lock(mu);
    handler_threads.push_back(std::this_thread::get_id());
  });
  auto line = session_->open_line(rpc::LineOptions{}.with_name("lockstep"));
  line->contact_schx("cray", "/npss/add");
  auto add = line->import_proc("add", kAddImport);
  // The first call binds; work the bring-up left for the cluster's
  // driver thread is done once it returns.
  add->call(add_args(0, 0), kLegacy).values_or_raise();
  {
    std::lock_guard lock(mu);
    handler_threads.clear();
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(
        add->call(add_args(i, 1), kLegacy).values_or_raise()[2].as_real(),
        i + 1.0);
  }
  std::lock_guard lock(mu);
  ASSERT_EQ(handler_threads.size(), 20u);
  for (const std::thread::id& id : handler_threads) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST_F(FabricTest, HostSpansKeepTheirCallersAttemptAsParentUnderInterleaving) {
  // Two client threads each run the nested chain outer (Cray) -> helper
  // (RS6000) on their own line. An outer host parks with three spans
  // open while the other chain's fibers run on the same thread, then
  // parks again on a timer and resumes on the cluster's driver thread:
  // only a per-fiber trace context keeps every span's parent, and the
  // handler's own context, right.
  obs::reset_run();
  std::atomic<int> context_lost{0};
  const char* outer_spec =
      R"(export outer prog("x" val double, "y" res double))";
  const char* helper_spec =
      R"(export helper prog("x" val double, "y" res double))";
  const char* helper_import =
      R"(import helper prog("x" val double, "y" res double))";
  cluster_.install_image(
      "cray", "/npss/outer",
      rpc::make_procedure_image(
          outer_spec, {{"outer", [&context_lost,
                                  helper_import](rpc::ProcCall& call) {
                          const obs::TraceContext serving =
                              obs::current_trace();
                          uts::ValueList nested = call.call_remote(
                              "helper", helper_import,
                              {uts::Value::real(call.real("x")),
                               uts::Value::real(0)});
                          sleep_for(std::chrono::microseconds(200));
                          if (obs::current_trace().span_id != serving.span_id) {
                            ++context_lost;
                          }
                          call.set_real("y", nested[1].as_real() * 2.0);
                        }}}));
  cluster_.install_image(
      "rs6000", "/npss/helper",
      rpc::make_procedure_image(
          helper_spec, {{"helper", [](rpc::ProcCall& call) {
                           call.set_real("y", call.real("x") + 10.0);
                         }}}));

  constexpr int kCalls = 100;
  const auto chain = [&](const std::string& name) {
    auto line = session_->open_line(rpc::LineOptions{}.with_name(name));
    line->contact_schx("cray", "/npss/outer");
    line->contact_schx("rs6000", "/npss/helper");
    auto outer = line->import_proc(
        "outer", R"(import outer prog("x" val double, "y" res double))");
    for (int i = 0; i < kCalls; ++i) {
      EXPECT_DOUBLE_EQ(
          outer->call({uts::Value::real(i), uts::Value::real(0)}, kLegacy)
              .values_or_raise()[1]
              .as_real(),
          (i + 10.0) * 2.0);
    }
  };
  std::thread other([&] { chain("chain b"); });
  chain("chain a");
  other.join();

  // Every attempt is served by exactly one host span; a host span may
  // close just after its reply is delivered, so wait for the last ones.
  std::vector<obs::SpanRecord> spans;
  std::size_t attempts = 0, hosts = 0;
  for (int i = 0; i < 500; ++i) {
    spans = obs::SpanCollector::global().snapshot();
    attempts = hosts = 0;
    for (const obs::SpanRecord& s : spans) {
      if (s.layer == "rpc.client" && s.name.starts_with("attempt ")) {
        ++attempts;
      }
      if (s.layer == "rpc.host") ++hosts;
    }
    if (hosts >= attempts) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(attempts, 4u * kCalls);  // per chain: outer + nested helper
  ASSERT_EQ(hosts, attempts);
  std::map<std::uint64_t, const obs::SpanRecord*> by_id;
  for (const obs::SpanRecord& s : spans) by_id[s.span_id] = &s;
  const auto parent_of = [&](const obs::SpanRecord& s) {
    auto it = by_id.find(s.parent_span_id);
    return it == by_id.end() ? nullptr : it->second;
  };
  std::size_t outer_calls = 0, nested_calls = 0;
  for (const obs::SpanRecord& s : spans) {
    const obs::SpanRecord* parent = parent_of(s);
    if (s.layer == "rpc.host" || s.name.starts_with("attempt ")) {
      // host span <- its caller's attempt <- that caller's call span
      ASSERT_NE(parent, nullptr) << s.name;
      EXPECT_EQ(parent->trace_id, s.trace_id) << s.name;
      EXPECT_EQ(parent->layer, "rpc.client") << s.name;
      EXPECT_TRUE(parent->name.starts_with(
          s.layer == "rpc.host" ? "attempt " : "call "))
          << s.name << " under " << parent->name;
    } else if (s.name == "call outer") {
      ++outer_calls;
      EXPECT_EQ(s.parent_span_id, 0u) << "a client's call is a trace root";
    } else if (s.name == "call helper") {
      ++nested_calls;
      // The Cray exports the Fortran external name, OUTER.
      ASSERT_NE(parent, nullptr);
      EXPECT_EQ(parent->name, "serve OUTER");
      EXPECT_EQ(parent->trace_id, s.trace_id);
    }
  }
  EXPECT_EQ(outer_calls, 2u * kCalls);
  EXPECT_EQ(nested_calls, 2u * kCalls);
  EXPECT_EQ(context_lost.load(), 0);
}

TEST_F(FabricTest, FourConcurrentClientThreadsAllGetTheirReplies) {
  install_add("cray");
  install_add("rs6000");
  constexpr int kClients = 4, kCalls = 200;
  std::vector<std::thread> clients;
  std::atomic<int> correct{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto line = session_->open_line(
          rpc::LineOptions{}.with_name("client " + std::to_string(c)));
      line->contact_schx(c % 2 == 0 ? "cray" : "rs6000", "/npss/add");
      auto add = line->import_proc("add", kAddImport);
      for (int i = 0; i < kCalls; ++i) {
        const double sum =
            add->call(add_args(c, i), kLegacy).values_or_raise()[2].as_real();
        if (sum == c + i) ++correct;
      }
      line->quit();
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(correct.load(), kClients * kCalls);
}

/// The process's OS threads: the entries of /proc/self/task.
std::size_t thread_count() {
  std::size_t n = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

TEST_F(FabricTest, SleepingHostsDoNotStallTheFabric) {
  const char* nap_spec =
      R"(export nap prog("ms" val integer, "done" res integer))";
  for (const char* machine : {"cray", "rs6000"}) {
    cluster_.install_image(
        machine, "/npss/nap",
        rpc::make_procedure_image(
            nap_spec, {{"nap", [](rpc::ProcCall& call) {
                          const std::int64_t ms = call.integer("ms");
                          sleep_for(std::chrono::milliseconds(ms));
                          call.set("done", uts::Value::integer(ms));
                        }}}));
  }
  std::vector<std::unique_ptr<rpc::Line>> lines;
  std::vector<std::unique_ptr<rpc::RemoteProc>> naps;
  for (const char* machine : {"cray", "rs6000"}) {
    auto line = session_->open_line(
        rpc::LineOptions{}.with_name(std::string("nap on ") + machine));
    line->contact_schx(machine, "/npss/nap");
    naps.push_back(line->import_proc(
        "nap", R"(import nap prog("ms" val integer, "done" res integer))"));
    lines.push_back(std::move(line));
  }
  const uts::ValueList warm = {uts::Value::integer(0), uts::Value::integer(0)};
  for (auto& nap : naps) nap->call(warm, kLegacy).values_or_raise();

  const uts::ValueList args = {uts::Value::integer(50),
                               uts::Value::integer(0)};
  const std::size_t threads_before = thread_count();
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<rpc::PendingCall> pending;
  for (auto& nap : naps) pending.push_back(nap->call_async(args, kLegacy));
  EXPECT_LE(thread_count(), threads_before)
      << "an outstanding call must not own a thread";
  for (auto& p : pending) {
    EXPECT_EQ(p.get().values_or_raise()[1].as_integer(), 50);
  }
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  EXPECT_GE(wall_ms, 50.0);
  EXPECT_LT(wall_ms, 90.0) << "the two 50 ms sleeps did not overlap";
}

TEST_F(FabricTest, TwoCallsOutstandingOnOneLineAreAwaitedInReverseOrder) {
  install_add("cray");
  auto line = session_->open_line(rpc::LineOptions{}.with_name("split"));
  line->contact_schx("cray", "/npss/add");
  auto add = line->import_proc("add", kAddImport);
  // Bounded, so a reply lost between the two awaits fails the test
  // instead of hanging it.
  rpc::CallOptions bounded = kLegacy;
  bounded.deadline_us = 10'000'000;
  bounded.host_grace_ms = 500;
  rpc::PendingCall first = add->call_async(add_args(1, 2), bounded);
  rpc::PendingCall second = add->call_async(add_args(10, 20), bounded);
  // The first reply lands while the second is awaited and is kept for
  // the first call's own await.
  EXPECT_DOUBLE_EQ(second.get().values_or_raise()[2].as_real(), 30.0);
  EXPECT_DOUBLE_EQ(first.get().values_or_raise()[2].as_real(), 3.0);
  EXPECT_DOUBLE_EQ(first.get().values[2].as_real(), 3.0) << "get() repeats";
  EXPECT_EQ(add->calls(), 2);
}

TEST_F(FabricTest, ADroppedPendingCallReleasesItsSlotAndLosesItsLateReply) {
  cluster_.install_image(
      "cray", "/npss/slow-add",
      rpc::make_procedure_image(
          kAddSpec, {{"add", [](rpc::ProcCall& call) {
                        sleep_for(std::chrono::milliseconds(20));
                        call.set_real("sum", call.real("x") + call.real("y"));
                      }}}));
  auto line = session_->open_line(
      rpc::LineOptions{}.with_name("dropper").with_budget({.outstanding = 1}));
  line->contact_schx("cray", "/npss/slow-add");
  auto add = line->import_proc("add", kAddImport);
  add->call(add_args(0, 0), kLegacy).values_or_raise();  // bind

  { rpc::PendingCall dropped = add->call_async(add_args(1, 2), kLegacy); }
  EXPECT_EQ(line->budget()->outstanding(), 0)
      << "the dropped call's slot is released";
  // The dropped call's reply lands during this call and is discarded: the
  // call gets its own sum, and the one-call quota has room for it.
  rpc::CallResult next = add->call(add_args(10, 20), kLegacy);
  ASSERT_TRUE(next.ok()) << next.status.to_string();
  EXPECT_DOUBLE_EQ(next.values[2].as_real(), 30.0);
  EXPECT_EQ(line->budget()->outstanding(), 0);
}

}  // namespace
}  // namespace npss::sim
