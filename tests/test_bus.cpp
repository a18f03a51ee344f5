// Tests of the multiplexed RPC bus: the incremental wire decoder
// (fragmented, coalesced, and oversized frames), raw-socket behavior of
// the dispatcher-based TcpProcedureHost, reply/seq matching for
// out-of-order completions, the abandon-on-timeout contract (a
// deadline gives up on one seq, never on the shared connection), peer
// resets (no SIGPIPE, waiters fail), and the write-through send path
// (lock-step frames skip the loop; partial writes, send errors and
// pipelined windows fall back to it).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "rpc/bus/channel.hpp"
#include "rpc/bus/frame.hpp"
#include "rpc/tcp_transport.hpp"
#include "uts/canonical.hpp"

namespace npss::rpc {
namespace {

using uts::Value;

/// No deadline, one stale-binding retry: the historical call contract.
const rpc::CallOptions kLegacy = rpc::CallOptions::legacy();

Message make_msg(std::uint64_t seq, const std::string& a) {
  Message msg;
  msg.kind = MessageKind::kCall;
  msg.seq = seq;
  msg.a = a;
  return msg;
}

TEST(FrameDecoder, ReassemblesFramesFedOneByteAtATime) {
  util::ByteWriter out;
  bus::append_frame(out, make_msg(1, "first"), 64u << 20);
  bus::append_frame(out, make_msg(2, "second"), 64u << 20);
  util::Bytes bytes = std::move(out).take();

  bus::FrameDecoder decoder;
  std::vector<Message> seen;
  for (std::uint8_t byte : bytes) {
    decoder.feed(std::span(&byte, 1));
    while (auto frame = decoder.next()) seen.push_back(decode_message(*frame));
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].seq, 1u);
  EXPECT_EQ(seen[0].a, "first");
  EXPECT_EQ(seen[1].seq, 2u);
  EXPECT_EQ(seen[1].a, "second");
  EXPECT_FALSE(decoder.partial());
}

TEST(FrameDecoder, YieldsCoalescedBackToBackFramesFromOneFeed) {
  util::ByteWriter out;
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    bus::append_frame(out, make_msg(seq, "m" + std::to_string(seq)),
                      64u << 20);
  }
  util::Bytes bytes = std::move(out).take();

  bus::FrameDecoder decoder;
  decoder.feed(bytes);
  std::uint64_t expect = 1;
  while (auto frame = decoder.next()) {
    EXPECT_EQ(decode_message(*frame).seq, expect++);
  }
  EXPECT_EQ(expect, 6u);
  EXPECT_FALSE(decoder.partial());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameDecoder, TracksPartialFrameAcrossFeeds) {
  util::ByteWriter out;
  bus::append_frame(out, make_msg(9, "split"), 64u << 20);
  util::Bytes bytes = std::move(out).take();

  bus::FrameDecoder decoder;
  const std::size_t cut = bytes.size() / 2;
  decoder.feed(std::span(bytes.data(), cut));
  EXPECT_EQ(decoder.next(), std::nullopt);
  EXPECT_TRUE(decoder.partial());
  EXPECT_EQ(decoder.buffered(), cut);
  decoder.feed(std::span(bytes.data() + cut, bytes.size() - cut));
  auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(decode_message(*frame).seq, 9u);
  EXPECT_FALSE(decoder.partial());
}

TEST(FrameDecoder, RejectsOversizedLengthPrefixBeforeBuffering) {
  bus::FrameDecoder decoder(1024);
  const std::uint8_t prefix[4] = {0x00, 0x01, 0x00, 0x00};  // 65536 bytes
  decoder.feed(prefix);
  EXPECT_THROW(decoder.next(), util::EncodingError);
}

TEST(BusFrame, InPlaceReplyFrameMatchesEncodeMessage) {
  // A host reply is framed in place behind a patched length prefix,
  // appended after whatever the connection already holds; it must be
  // byte-identical to prefix+encode_message over the same Message, or the
  // two encoders would disagree on the wire.
  const uts::SpecFile spec =
      uts::parse_spec("import inc prog(\"x\" val integer, \"y\" res integer)");
  const uts::Signature& sig = spec.find("inc").signature;
  const arch::ArchDescriptor& arch = arch::arch_catalog("sun-sparc10");
  Message msg;
  msg.kind = MessageKind::kReply;
  msg.seq = 7;
  msg.blob = uts::marshal(arch, sig, {Value::integer(41), Value::integer(42)},
                          uts::Direction::kReply);
  msg.trace = obs::TraceContext{.trace_id = 5, .span_id = 6,
                                .parent_span_id = 4};

  util::ByteWriter in_place;
  bus::append_frame(in_place, make_msg(1, "queued"), 64u << 20);
  const std::size_t queued = in_place.size();
  bus::append_frame(in_place, msg, 64u << 20);
  const util::Bytes out = std::move(in_place).take();

  util::Bytes body = encode_message(msg);
  util::ByteWriter reference;
  reference.u32(static_cast<std::uint32_t>(body.size()));
  reference.raw(body);
  const util::Bytes expected = std::move(reference).take();

  ASSERT_EQ(out.size(), queued + expected.size());
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                         out.begin() + static_cast<std::ptrdiff_t>(queued)));
}

// --- Raw-socket behavior of the dispatcher host ----------------------------

struct RawClient {
  explicit RawClient(int port)
      : fd(bus::tcp_connect_fd("127.0.0.1", port)) {}
  ~RawClient() { ::close(fd); }

  void send_all(const std::uint8_t* data, std::size_t size) {
    std::size_t sent = 0;
    while (sent < size) {
      ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  int fd;
};

/// A bare loopback listener (ephemeral port) for peers a test scripts
/// by hand. `rcvbuf` > 0 shrinks the receive buffer accepted sockets
/// inherit, so a sender fills the wire quickly.
struct RawListener {
  explicit RawListener(int rcvbuf = 0) : fd(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (rcvbuf > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    EXPECT_EQ(::listen(fd, 4), 0);
    socklen_t len = sizeof addr;
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    port = ntohs(addr.sin_port);
  }
  ~RawListener() { ::close(fd); }

  int fd;
  int port = 0;
};

util::Bytes framed_inc_call(std::uint64_t seq, std::int64_t x) {
  const std::string spec =
      "import inc prog(\"x\" val integer, \"y\" res integer)";
  uts::ProcDecl decl = uts::parse_spec(spec).find("inc");
  Message msg;
  msg.kind = MessageKind::kCall;
  msg.seq = seq;
  msg.a = "inc";
  msg.b = uts::decl_to_string(decl);
  msg.blob = uts::marshal(arch::arch_catalog("sun-sparc10"), decl.signature,
                          {Value::integer(x), Value::integer(0)},
                          uts::Direction::kRequest);
  util::ByteWriter out;
  bus::append_frame(out, msg, 64u << 20);
  return std::move(out).take();
}

const char* const kIncImport =
    "import inc prog(\"x\" val integer, \"y\" res integer)";

std::unique_ptr<TcpProcedureHost> make_inc_host() {
  return std::make_unique<TcpProcedureHost>(
      "export inc prog(\"x\" val integer, \"y\" res integer)",
      std::vector<ProcedureDef>{{"inc", [](ProcCall& c) {
                                   c.set("y",
                                         Value::integer(c.integer("x") + 1));
                                 }}},
      "sun-sparc10");
}

Message read_reply(int fd) {
  auto read_all = [fd](std::uint8_t* data, std::size_t size) {
    std::size_t got = 0;
    while (got < size) {
      ssize_t n = ::recv(fd, data + got, size - got, 0);
      if (n <= 0) return false;
      got += static_cast<std::size_t>(n);
    }
    return true;
  };
  std::uint8_t prefix[4];
  EXPECT_TRUE(read_all(prefix, 4));
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len = (len << 8) | prefix[i];
  util::Bytes body(len);
  EXPECT_TRUE(read_all(body.data(), len));
  return decode_message(body);
}

TEST(BusHost, ServesCallArrivingOneByteAtATime) {
  auto host_ptr = make_inc_host();
  TcpProcedureHost& host = *host_ptr;
  RawClient client(host.port());
  util::Bytes frame = framed_inc_call(3, 41);
  for (std::uint8_t byte : frame) {
    client.send_all(&byte, 1);
  }
  Message reply = read_reply(client.fd);
  EXPECT_EQ(reply.kind, MessageKind::kReply);
  EXPECT_EQ(reply.seq, 3u);
  uts::ValueList out =
      uts::unmarshal(arch::arch_catalog("sun-sparc10"),
                     uts::parse_spec("import inc prog(\"x\" val integer,"
                                     " \"y\" res integer)")
                         .find("inc")
                         .signature,
                     reply.blob, uts::Direction::kReply);
  EXPECT_EQ(out[1].as_integer(), 42);
}

TEST(BusHost, ServesTwoFramesCoalescedIntoOneSend) {
  auto host_ptr = make_inc_host();
  TcpProcedureHost& host = *host_ptr;
  RawClient client(host.port());
  util::Bytes one = framed_inc_call(1, 10);
  util::Bytes two = framed_inc_call(2, 20);
  util::Bytes both = one;
  both.insert(both.end(), two.begin(), two.end());
  client.send_all(both.data(), both.size());
  // Pooled workers may finish the two calls in either order; the bus
  // contract is matching by seq, not reply order.
  const uts::Signature sig =
      uts::parse_spec(kIncImport).find("inc").signature;
  std::map<std::uint64_t, std::int64_t> y_by_seq;
  for (int i = 0; i < 2; ++i) {
    Message reply = read_reply(client.fd);
    ASSERT_EQ(reply.kind, MessageKind::kReply);
    uts::ValueList out = uts::unmarshal(arch::arch_catalog("sun-sparc10"), sig,
                                        reply.blob, uts::Direction::kReply);
    y_by_seq[reply.seq] = out[1].as_integer();
  }
  const std::map<std::uint64_t, std::int64_t> expected = {{1, 11}, {2, 21}};
  EXPECT_EQ(y_by_seq, expected);
  EXPECT_EQ(host.calls(), 2);
}

TEST(BusHost, DropsConnectionOnOversizedFramePrefix) {
  auto host_ptr = make_inc_host();
  TcpProcedureHost& host = *host_ptr;
  RawClient client(host.port());
  // 128 MiB length prefix: over the 64 MiB cap — protocol violation.
  const std::uint8_t prefix[4] = {0x08, 0x00, 0x00, 0x00};
  client.send_all(prefix, 4);
  std::uint8_t byte;
  EXPECT_LE(::recv(client.fd, &byte, 1, 0), 0) << "connection must drop";
  EXPECT_EQ(host.calls(), 0);
}

// --- Multiplexing semantics ------------------------------------------------

TEST(BusChannel, RepliesMatchBySeqWhenCompletionsAreOutOfOrder) {
  TcpProcedureHost host(
      "export work prog(\"delay_ms\" val integer, \"x\" val integer,"
      " \"y\" res integer)",
      {{"work", [](ProcCall& c) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(c.integer("delay_ms")));
          c.set("y", Value::integer(c.integer("x") * 2));
        }}},
      "sun-sparc10");
  TcpRemoteProc work("127.0.0.1", host.port(), "work",
                     "import work prog(\"delay_ms\" val integer,"
                     " \"x\" val integer, \"y\" res integer)",
                     "sun-sparc10");
  // Slow call first, fast call second: both pipeline over one socket and
  // the fast reply overtakes the slow one on the wire.
  PendingTcpCall slow = work.call_async(
      {Value::integer(500), Value::integer(1), Value::integer(0)});
  PendingTcpCall fast = work.call_async(
      {Value::integer(0), Value::integer(2), Value::integer(0)});

  const auto t0 = std::chrono::steady_clock::now();
  CallResult& fast_result = fast.get();
  const auto fast_wait = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(fast_result.ok()) << fast_result.status.to_string();
  EXPECT_EQ(fast_result.values[2].as_integer(), 4);
  EXPECT_LT(fast_wait, std::chrono::milliseconds(300))
      << "fast reply must not queue behind the slow in-flight call";

  CallResult& slow_result = slow.get();
  ASSERT_TRUE(slow_result.ok()) << slow_result.status.to_string();
  EXPECT_EQ(slow_result.values[2].as_integer(), 2);
  EXPECT_EQ(host.calls(), 2);
}

TEST(BusChannel, TimeoutAbandonsSeqButKeepsTheConnection) {
  TcpProcedureHost host(
      "export nap prog(\"ms\" val integer, \"y\" res integer)",
      {{"nap", [](ProcCall& c) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(c.integer("ms")));
          c.set("y", Value::integer(c.integer("ms")));
        }}},
      "sun-sparc10");
  TcpRemoteProc nap("127.0.0.1", host.port(), "nap",
                    "import nap prog(\"ms\" val integer, \"y\" res integer)",
                    "sun-sparc10");
  auto channel = bus::TcpBus::instance().channel("127.0.0.1", host.port());
  const bus::BusConnection* before = channel->connection().get();
  const std::uint64_t abandoned_before =
      obs::Registry::global().counter("rpc.bus.abandoned_replies").value();

  CallOptions opts;
  opts.deadline_us = 50'000;
  opts.max_attempts = 1;
  CallResult timed_out =
      nap.call({Value::integer(400), Value::integer(0)}, opts);
  EXPECT_EQ(timed_out.status.code(), util::ErrorCode::kDeadlineExceeded);

  // The same connection keeps serving: no teardown, no reconnect.
  uts::ValueList out = nap.call({Value::integer(0), Value::integer(0)}, kLegacy)
      .values_or_raise();
  EXPECT_EQ(out[1].as_integer(), 0);
  auto channel_after =
      bus::TcpBus::instance().channel("127.0.0.1", host.port());
  EXPECT_EQ(channel_after->connection().get(), before)
      << "a timeout must not tear down the pooled connection";

  // The straggler reply lands eventually and is discarded by seq.
  std::uint64_t abandoned_after = abandoned_before;
  for (int i = 0; i < 200 && abandoned_after <= abandoned_before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    abandoned_after =
        obs::Registry::global().counter("rpc.bus.abandoned_replies").value();
  }
  EXPECT_GT(abandoned_after, abandoned_before);
  EXPECT_EQ(host.calls(), 2);
}

/// One client streaming pings at a peer that half-closes and then
/// closes with the pings unread. The FIN puts the client socket in
/// CLOSE_WAIT, so the reset that follows fails its next send with EPIPE:
/// the send that raises SIGPIPE unless it passes MSG_NOSIGNAL. Whether
/// the loop sends or reads first after the reset is a race, hence the
/// test runs several rounds.
void stream_pings_into_reset() {
  RawListener listener;
  std::thread peer([&] {
    const int fd = ::accept(listener.fd, nullptr, nullptr);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ::shutdown(fd, SHUT_WR);
    ::close(fd);
  });
  bus::BusDispatcher dispatcher("reset-test");
  auto ch = bus::BusChannel::open(dispatcher, "127.0.0.1", listener.port);
  Message ping;
  ping.kind = MessageKind::kPing;
  std::vector<std::future<Message>> waiters;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < give_up) {
    ping.seq = ch->next_seq();
    try {
      waiters.push_back(ch->send(ping.seq, [&](util::ByteWriter& out) {
        bus::append_frame(out, ping, bus::kMaxFrameBytes);
      }));
    } catch (const util::CallError&) {
      break;  // the channel saw the reset
    }
  }
  peer.join();
  ASSERT_FALSE(ch->alive()) << "the reset must close the channel";
  ASSERT_FALSE(waiters.empty());
  for (auto& w : waiters) EXPECT_THROW(w.get(), util::CallError);
}

TEST(BusChannel, PeerResetUnderLoadFailsWaitersWithoutSigpipe) {
  // The default disposition: a send that raises SIGPIPE kills the
  // process, so surviving this test is the assertion.
  std::signal(SIGPIPE, SIG_DFL);
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    stream_pings_into_reset();
  }
}

// --- Write-through sends ---------------------------------------------------

TEST(BusWriteThrough, LockStepWritesThroughAndPipelinedWindowStillCoalesces) {
  // One worker, so the count is exact: with two, a worker preempted
  // between its send and giving the write token back makes the other
  // worker's next reply coalesce instead (correct, but not counted).
  TcpProcedureHost host(
      "export inc prog(\"x\" val integer, \"y\" res integer)",
      {{"inc", [](ProcCall& c) {
          c.set("y", Value::integer(c.integer("x") + 1));
        }}},
      "sun-sparc10", 0, /*workers=*/1);
  TcpRemoteProc inc("127.0.0.1", host.port(), "inc", kIncImport,
                    "sun-sparc10");
  inc.call({Value::integer(0), Value::integer(0)}, kLegacy)
      .values_or_raise();  // warm: connect, prepare the import
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& through = reg.counter("rpc.bus.frames_written_through");
  obs::Counter& coalesced = reg.counter("rpc.bus.frames_coalesced");
  const bus::BusDispatcher& client_loop = bus::TcpBus::instance().dispatcher();

  constexpr int kCalls = 200;
  const std::uint64_t through_before = through.value();
  const std::uint64_t wakes_before = client_loop.wakeups();
  for (int i = 0; i < kCalls; ++i) {
    uts::ValueList out =
        inc.call({Value::integer(i), Value::integer(0)}, kLegacy)
            .values_or_raise();
    EXPECT_EQ(out[1].as_integer(), i + 1);
  }
  EXPECT_EQ(through.value() - through_before, 2u * kCalls)
      << "every call and every reply is written by its sender";
  EXPECT_EQ(client_loop.wakeups() - wakes_before, 0u)
      << "a lock-step call must not rouse the client loop";

  // A 256-deep window queues behind in-flight calls: the loop's
  // coalesced writev carries it.
  constexpr std::size_t kWindow = 256;
  const std::uint64_t coalesced_before = coalesced.value();
  std::deque<std::pair<PendingTcpCall, std::int64_t>> window;
  auto reap = [&] {
    CallResult& r = window.front().first.get();
    ASSERT_TRUE(r.ok()) << r.status.to_string();
    EXPECT_EQ(r.values[1].as_integer(), window.front().second + 1);
    window.pop_front();
  };
  for (std::int64_t i = 0; i < 4000; ++i) {
    if (window.size() >= kWindow) reap();
    window.emplace_back(inc.call_async({Value::integer(i), Value::integer(0)}),
                        i);
  }
  while (!window.empty()) reap();
  EXPECT_GT(coalesced.value() - coalesced_before, 0u);
}

TEST(BusWriteThrough, OversizedFrameIsFinishedByTheLoopAndLaterFramesKeepOrder) {
  constexpr int kThreads = 4;
  constexpr std::int64_t kPerThread = 50;
  constexpr std::size_t kFrames = 1 + kThreads * kPerThread;
  RawListener listener(/*rcvbuf=*/64 * 1024);
  std::vector<Message> got;
  std::thread peer([&] {
    const int fd = ::accept(listener.fd, nullptr, nullptr);
    // A slow reader: late to start, small reads, a pause after each.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    bus::FrameDecoder decoder(64u << 20);
    std::vector<std::uint8_t> chunk(64 * 1024);
    while (got.size() < kFrames) {
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, 10'000) <= 0) break;  // stalled: counted below
      const ssize_t n = ::recv(fd, chunk.data(), chunk.size(), 0);
      if (n <= 0) break;
      decoder.feed(std::span(chunk.data(), static_cast<std::size_t>(n)));
      while (auto frame = decoder.next()) got.push_back(decode_message(*frame));
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ::close(fd);
  });

  bus::BusDispatcher dispatcher("partial-write-test");
  auto ch = bus::BusChannel::open(dispatcher, "127.0.0.1", listener.port);
  obs::Counter& through =
      obs::Registry::global().counter("rpc.bus.frames_written_through");
  std::mutex mu;
  std::vector<std::uint64_t> seqs;
  std::vector<std::future<Message>> waiters;  // never answered
  auto send = [&](Message& m) {
    m.seq = ch->next_seq();
    std::future<Message> f = ch->send(m.seq, [&](util::ByteWriter& out) {
      bus::append_frame(out, m, bus::kMaxFrameBytes);
    });
    std::lock_guard<std::mutex> lock(mu);
    seqs.push_back(m.seq);
    waiters.push_back(std::move(f));
  };

  // 16 MiB: far past what the socket buffers on both ends can hold.
  Message big;
  big.kind = MessageKind::kCall;
  big.a = "big";
  big.blob.resize(16u << 20);
  for (std::size_t i = 0; i < big.blob.size(); ++i) {
    big.blob[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  const std::uint64_t through_before = through.value();
  send(big);
  EXPECT_EQ(through.value() - through_before, 1u)
      << "the lone frame is written by its sender";
  EXPECT_GT(ch->connection()->queued_bytes(), 0u)
      << "the sender returns at EAGAIN and leaves the rest to the loop";

  std::vector<std::thread> senders;
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&, t] {
      for (std::int64_t i = 0; i < kPerThread; ++i) {
        Message m;
        m.kind = MessageKind::kCall;
        m.a = "t";
        m.a += std::to_string(t);
        m.n = i;
        send(m);
      }
    });
  }
  for (auto& s : senders) s.join();
  peer.join();

  ASSERT_EQ(got.size(), kFrames);
  EXPECT_EQ(got[0].a, "big");
  EXPECT_TRUE(got[0].blob == big.blob) << "the oversized frame arrived torn";
  std::vector<std::int64_t> next(kThreads, 0);
  for (std::size_t k = 1; k < got.size(); ++k) {
    ASSERT_EQ(got[k].a.size(), 2u);
    const int t = got[k].a[1] - '0';
    ASSERT_TRUE(t >= 0 && t < kThreads) << got[k].a;
    EXPECT_EQ(got[k].n, next[t]++) << "frames of thread " << t << " reordered";
  }
  for (std::uint64_t seq : seqs) ch->abandon(seq);
}

TEST(BusWriteThrough, SendErrorOnTheCallerThreadIsClosedByTheLoop) {
  std::signal(SIGPIPE, SIG_DFL);  // as above: surviving is the assertion
  RawListener listener;
  bus::BusDispatcher dispatcher("write-error-test");
  // Hold the loop in a posted op, so the socket is not polled until the
  // caller's write-through has met the reset.
  std::promise<void> release;
  dispatcher.post([held = release.get_future().share()] { held.wait(); });
  dispatcher.wake();
  auto ch = bus::BusChannel::open(dispatcher, "127.0.0.1", listener.port);

  // FIN, then a reset: the client socket fails its next send with EPIPE.
  const int peer = ::accept(listener.fd, nullptr, nullptr);
  ::shutdown(peer, SHUT_WR);
  const linger hard_close{1, 0};
  ::setsockopt(peer, SOL_SOCKET, SO_LINGER, &hard_close, sizeof hard_close);
  ::close(peer);
  pollfd p{ch->connection()->fd(), POLLIN, 0};
  for (int i = 0; i < 500 && !(p.revents & (POLLHUP | POLLERR)); ++i) {
    ::poll(&p, 1, 10);
  }
  EXPECT_TRUE(p.revents & (POLLHUP | POLLERR)) << "the reset never arrived";

  obs::Counter& through =
      obs::Registry::global().counter("rpc.bus.frames_written_through");
  const std::uint64_t through_before = through.value();
  Message ping;
  ping.kind = MessageKind::kPing;
  ping.seq = ch->next_seq();
  std::future<Message> reply = ch->send(ping.seq, [&](util::ByteWriter& out) {
    bus::append_frame(out, ping, bus::kMaxFrameBytes);
  });
  EXPECT_EQ(through.value() - through_before, 1u);
  EXPECT_TRUE(ch->alive()) << "closing is the loop's job, not the sender's";
  release.set_value();

  EXPECT_THROW(reply.get(), util::CallError);
  const util::Status why = ch->close_status();
  EXPECT_EQ(why.code(), util::ErrorCode::kCallFailure);
  EXPECT_NE(why.message().find("tcp write failed"), std::string::npos)
      << why.message();
}

TEST(BusWriteThrough, FourLockStepThreadsOnOnePooledChannelGetTheirOwnReplies) {
  auto host = make_inc_host();
  obs::Counter& through =
      obs::Registry::global().counter("rpc.bus.frames_written_through");
  const bus::BusDispatcher& client_loop = bus::TcpBus::instance().dispatcher();
  const std::uint64_t through_before = through.value();
  const std::uint64_t wakes_before = client_loop.wakeups();
  constexpr int kThreads = 4;
  constexpr std::int64_t kCalls = 300;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Every stub aimed at one host:port shares the pooled channel.
      TcpRemoteProc inc("127.0.0.1", host->port(), "inc", kIncImport,
                        "sun-sparc10");
      for (std::int64_t i = 0; i < kCalls; ++i) {
        const std::int64_t x = t * 1'000'000 + i;
        CallResult r = inc.call({Value::integer(x), Value::integer(0)}, kLegacy);
        if (!r.ok() || r.values[1].as_integer() != x + 1) ++wrong;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(host->calls(), kThreads * kCalls);
  // Both send paths ran: lone calls wrote through, overlapping ones
  // queued and woke the loop.
  EXPECT_GT(through.value() - through_before, 0u);
  EXPECT_GT(client_loop.wakeups() - wakes_before, 0u);
}

}  // namespace
}  // namespace npss::rpc
