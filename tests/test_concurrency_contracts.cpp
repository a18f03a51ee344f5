// Regression tests for the concurrency contracts the thread-safety
// audit tightened (DESIGN.md §16). Each test reproduces a access
// pattern that used to be a data race — counters read as plain uint64s
// while replica threads bumped them, a close status handed out by
// reference while the loop thread was writing it, a routing-table
// reference read after the lock was dropped — and exercises it under
// real concurrency. They pass trivially under the fixed code and light
// up under TSan (the CI tsan lane) if any of the fixes regress.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "rpc/bus/channel.hpp"
#include "rpc/bus/dispatcher.hpp"
#include "rpc/manager.hpp"
#include "sim/cluster.hpp"
#include "sim/network.hpp"

namespace npss {
namespace {

using namespace std::chrono_literals;

// ManagerStats used to be a struct of plain uint64 fields shared between
// every replica thread and SchoonerSystem::stats(); the aggregation read
// them off-lock. A ManagerTally keeps each count atomic and add_to() is
// the sanctioned read path. Hammer both sides concurrently: under TSan a
// regression to plain fields is a reported race, and in any build the
// final read must equal the exact record counts.
TEST(ConcurrencyContracts, ManagerTallyReadRacesWithRecords) {
  rpc::ManagerTally tally;
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20000;

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      rpc::ManagerStats s;
      tally.add_to(s);
      // Each tally is monotone; a torn read would show it going back.
      EXPECT_GE(s.lookups, last);
      last = s.lookups;
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&tally] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        tally.record(rpc::ManagerEvent::kLookups);
        tally.record(rpc::ManagerEvent::kLinesCreated);
        tally.record(rpc::ManagerEvent::kLogAppends);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  rpc::ManagerStats s;
  tally.add_to(s);
  EXPECT_EQ(s.lookups, kWriters * kPerWriter);
  EXPECT_EQ(s.lines_created, kWriters * kPerWriter);
  EXPECT_EQ(s.log_appends, kWriters * kPerWriter);
  EXPECT_EQ(s.moves, 0u);
}

// BusChannel::close_status() used to return a const reference into the
// channel while the dispatcher loop's on_close was writing that very
// field. Open a real channel, kill the server side, and read the status
// continuously while the close lands: the by-value, under-lock accessor
// must never yield a torn Status.
TEST(ConcurrencyContracts, BusChannelCloseStatusReadableWhileCloseLands) {
  // A bare listener that accepts one connection and never speaks.
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof addr), 0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len), 0);
  const int port = ntohs(addr.sin_port);

  rpc::bus::BusDispatcher dispatcher("close-status-test");
  auto channel =
      rpc::bus::BusChannel::open(dispatcher, "127.0.0.1", port);
  int server_fd = ::accept(listen_fd, nullptr, nullptr);
  ASSERT_GE(server_fd, 0);
  ASSERT_TRUE(channel->alive());

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      // Worth nothing individually; the point is that these reads
      // overlap the on_close write on the loop thread.
      const util::Status s = channel->close_status();
      if (!s.is_ok()) {
        EXPECT_FALSE(s.message().empty());
      }
    }
  });

  ::close(server_fd);  // peer disappears; loop thread fires on_close
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (channel->alive() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_FALSE(channel->alive());
  EXPECT_FALSE(channel->close_status().is_ok());
  dispatcher.stop();
  ::close(listen_fd);
}

// The same close, many rounds, with the observer spinning on alive() so
// it reads close_status() the instant alive() turns false. The channel's
// alive() used to follow the connection's flag, which the loop clears
// before on_close stores the status: a caller could see a dead channel
// with an OK status. alive() now turns false only after the status is in.
TEST(ConcurrencyContracts, BusChannelNotAliveImpliesCloseStatusStress) {
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof addr), 0);
  ASSERT_EQ(::listen(listen_fd, 16), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len), 0);
  const int port = ntohs(addr.sin_port);

  rpc::bus::BusDispatcher dispatcher("close-status-stress");
  constexpr int kRounds = 300;
  int ok_after_close = 0;
  int still_alive = 0;
  for (int round = 0; round < kRounds; ++round) {
    auto channel = rpc::bus::BusChannel::open(dispatcher, "127.0.0.1", port);
    const int server_fd = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(server_fd, 0);
    ::close(server_fd);
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (channel->alive() && std::chrono::steady_clock::now() < deadline) {
    }
    if (channel->alive()) {
      ++still_alive;
    } else if (channel->close_status().is_ok()) {
      ++ok_after_close;
    }
  }
  EXPECT_EQ(still_alive, 0);
  EXPECT_EQ(ok_after_close, 0) << "rounds in which alive() was false while "
                                  "close_status() was still OK";
  dispatcher.stop();
  ::close(listen_fd);
}

// Cluster::route() used to return a reference into the routing table
// that send() then read after dropping the cluster lock — a use-after-
// free the moment set_site_link replaced the entry. route() now returns
// by value; reconfiguring links while senders are in flight must be
// safe and lose nothing.
TEST(ConcurrencyContracts, RoutingTableReconfiguresUnderLiveTraffic) {
  sim::Cluster cluster;
  cluster.add_machine("a", "sun-sparc10", "east");
  cluster.add_machine("b", "cray-ymp", "west");
  cluster.set_site_link("east", "west", sim::link_profile("internet-wan"));

  auto from = cluster.create_endpoint("a", "sender");
  auto to = cluster.create_endpoint("b", "receiver");

  constexpr int kMessages = 4000;
  std::thread sender([&] {
    for (int i = 0; i < kMessages; ++i) {
      cluster.send(*from, to->address(), util::Bytes(64));
    }
  });
  std::thread reconfig([&] {
    const sim::LinkProfile& wan = sim::link_profile("internet-wan");
    const sim::LinkProfile& campus =
        sim::link_profile("campus-multigateway");
    for (int i = 0; i < 2000; ++i) {
      cluster.set_site_link("east", "west", (i & 1) ? wan : campus);
    }
  });
  sender.join();
  reconfig.join();

  int received = 0;
  while (to->try_receive()) ++received;
  EXPECT_EQ(received, kMessages);
  EXPECT_EQ(cluster.traffic().messages,
            static_cast<std::uint64_t>(kMessages));
}

// The SpanCollector is the observability layer's shared sink: every
// instrumented thread records into it while reporters snapshot. Bounded
// capacity plus concurrent record/snapshot/size must stay consistent:
// records either land or are counted dropped, never lost.
TEST(ConcurrencyContracts, SpanCollectorRecordsWhileSnapshotting) {
  obs::SpanCollector collector(512);
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 5000;

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto spans = collector.snapshot();
      EXPECT_LE(spans.size(), collector.capacity());
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&collector, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        obs::SpanRecord rec;
        rec.trace_id = static_cast<std::uint64_t>(w) + 1;
        rec.span_id = i + 1;
        rec.layer = "test";
        rec.name = "contract";
        collector.record(std::move(rec));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(collector.size() + collector.dropped(), kWriters * kPerWriter);
  EXPECT_EQ(collector.size(), collector.capacity());
}

}  // namespace
}  // namespace npss
