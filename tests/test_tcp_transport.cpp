// Tests of the real-socket transport: Schooner wire frames over actual
// loopback TCP — the transport a present-day deployment would use where
// the paper's testbed used 1993 TCP/IP stacks. The marshaling stack is
// identical to the virtual-cluster path, including heterogeneity (the
// server can declare a Cray personality) and subset imports.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <tuple>

#include "obs/metrics.hpp"
#include "rpc/schooner.hpp"
#include "rpc/tcp_transport.hpp"
#include "tess/components.hpp"

namespace npss::rpc {
namespace {

using uts::Value;

/// No deadline, one stale-binding retry: the historical call contract.
const rpc::CallOptions kLegacy = rpc::CallOptions::legacy();

const char* kShaftSpec = R"(
  export shaft prog(
      "ecom" val array[4] of float,
      "incom" val integer,
      "etur" val array[4] of float,
      "intur" val integer,
      "ecorr" val float,
      "xspool" val float,
      "xmyi" val float,
      "dxspl" res float)
)";

ProcedureDef shaft_def() {
  return {"shaft", [](ProcCall& call) {
            std::vector<double> ecom = call.reals("ecom");
            std::vector<double> etur = call.reals("etur");
            call.set_real(
                "dxspl",
                tess::shaft(ecom.data(),
                            static_cast<int>(call.integer("incom")),
                            etur.data(),
                            static_cast<int>(call.integer("intur")),
                            call.real("ecorr"), call.real("xspool"),
                            call.real("xmyi")));
          }};
}

TEST(TcpTransport, ShaftCallOverRealSockets) {
  TcpProcedureHost host(kShaftSpec, {shaft_def()}, "ibm-rs6000");
  ASSERT_GT(host.port(), 0);

  TcpRemoteProc shaft("127.0.0.1", host.port(), "shaft",
                      "import shaft prog("
                      "\"ecom\" val array[4] of float,"
                      "\"incom\" val integer,"
                      "\"etur\" val array[4] of float,"
                      "\"intur\" val integer,"
                      "\"ecorr\" val float,"
                      "\"xspool\" val float,"
                      "\"xmyi\" val float,"
                      "\"dxspl\" res float)",
                      "sun-sparc10");
  uts::ValueList out = shaft.call(
      {Value::real_array({1.0e6, 100.0, 1.0e4, 0.85}), Value::integer(1),
       Value::real_array({1.2e6, 100.0, 1.2e4, 0.88}), Value::integer(1),
       Value::real(1.0), Value::real(10000.0), Value::real(40.0),
       Value::real(0)}, kLegacy).values_or_raise();

  const double ecom[4] = {1.0e6, 100.0, 1.0e4, 0.85};
  const double etur[4] = {1.2e6, 100.0, 1.2e4, 0.88};
  const double local = tess::shaft(ecom, 1, etur, 1, 1.0, 10000.0, 40.0);
  EXPECT_NEAR(out[7].as_real() / local, 1.0, 1e-5);
  EXPECT_EQ(host.calls(), 1);
}

TEST(TcpTransport, ManySequentialCallsOnOneConnection) {
  TcpProcedureHost host(
      "export inc prog(\"x\" val integer, \"y\" res integer)",
      {{"inc", [](ProcCall& c) {
          c.set("y", Value::integer(c.integer("x") + 1));
        }}},
      "sun-sparc10");
  TcpRemoteProc inc("127.0.0.1", host.port(), "inc",
                    "import inc prog(\"x\" val integer, \"y\" res integer)",
                    "sun-sparc10");
  for (int i = 0; i < 200; ++i) {
    uts::ValueList out = inc.call(
        {Value::integer(i), Value::integer(0)}, kLegacy)
            .values_or_raise();
    ASSERT_EQ(out[1].as_integer(), i + 1);
  }
  EXPECT_EQ(host.calls(), 200);
}

TEST(TcpTransport, ConcurrentClientsAreServedIndependently) {
  TcpProcedureHost host(
      "export square prog(\"x\" val double, \"y\" res double)",
      {{"square", [](ProcCall& c) {
          c.set_real("y", c.real("x") * c.real("x"));
        }}},
      "sun-sparc10");
  std::vector<std::thread> clients;
  std::array<std::atomic<bool>, 6> ok{};
  for (int t = 0; t < 6; ++t) {
    clients.emplace_back([&, t] {
      TcpRemoteProc square(
          "127.0.0.1", host.port(), "square",
          "import square prog(\"x\" val double, \"y\" res double)",
          "sun-sparc10");
      bool all = true;
      for (int i = 0; i < 50; ++i) {
        const double x = t * 100.0 + i;
        uts::ValueList out = square.call(
            {Value::real(x), Value::real(0)}, kLegacy)
                .values_or_raise();
        all = all && out[1].as_real() == x * x;
      }
      ok[t] = all;
    });
  }
  for (auto& c : clients) c.join();
  for (const std::atomic<bool>& b : ok) EXPECT_TRUE(b.load());
  EXPECT_EQ(host.calls(), 300);
}

TEST(TcpTransport, RemoteErrorsArriveTyped) {
  TcpProcedureHost host(
      "export root prog(\"x\" val double, \"y\" res double)",
      {{"root", [](ProcCall& c) {
          if (c.real("x") < 0) throw util::ModelError("negative");
          c.set_real("y", std::sqrt(c.real("x")));
        }}},
      "sun-sparc10");
  TcpRemoteProc root("127.0.0.1", host.port(), "root",
                     "import root prog(\"x\" val double, \"y\" res double)",
                     "sun-sparc10");
  EXPECT_DOUBLE_EQ(root.call({Value::real(9), Value::real(0)}, kLegacy)
      .values_or_raise()[1].as_real(),
                   3.0);
  EXPECT_THROW(root.call({Value::real(-4), Value::real(0)}, kLegacy)
      .values_or_raise(),
               util::ModelError);
  // The connection survives an application error.
  EXPECT_DOUBLE_EQ(root.call({Value::real(16), Value::real(0)}, kLegacy)
      .values_or_raise()[1].as_real(),
                   4.0);
}

TEST(TcpTransport, UnknownProcedureAndBadSignature) {
  TcpProcedureHost host(
      "export f prog(\"x\" val double)",
      {{"f", [](ProcCall&) {}}}, "sun-sparc10");
  TcpRemoteProc ghost("127.0.0.1", host.port(), "g",
                      "import g prog(\"x\" val double)", "sun-sparc10");
  EXPECT_THROW(ghost.call({Value::real(1)}, kLegacy)
      .values_or_raise(), util::LookupError);

  TcpRemoteProc wrong("127.0.0.1", host.port(), "f",
                      "import f prog(\"x\" val integer)", "sun-sparc10");
  EXPECT_THROW(wrong.call({Value::integer(1)}, kLegacy)
      .values_or_raise(), util::TypeMismatchError);
}

TEST(TcpTransport, CrayPersonalityQuantizesOnTheServer) {
  // The server declares the Cray architecture: its values pass through
  // 48-bit-mantissa words, so a fine double perturbation vanishes there.
  TcpProcedureHost host(
      "export echo prog(\"x\" var double)",
      {{"echo", [](ProcCall&) {}}}, "cray-ymp");
  TcpRemoteProc echo("127.0.0.1", host.port(), "echo",
                     "import echo prog(\"x\" var double)", "sun-sparc10");
  const double fine = 1.0 + std::ldexp(1.0, -52);
  uts::ValueList out = echo.call({Value::real(fine)}, kLegacy)
      .values_or_raise();
  EXPECT_EQ(out[0].as_real(), 1.0) << "Cray word cannot hold 2^-52";
}

TEST(TcpTransport, PipelinedAsyncCallsAllComplete) {
  TcpProcedureHost host(
      "export inc prog(\"x\" val integer, \"y\" res integer)",
      {{"inc", [](ProcCall& c) {
          c.set("y", Value::integer(c.integer("x") + 1));
        }}},
      "sun-sparc10");
  TcpRemoteProc inc("127.0.0.1", host.port(), "inc",
                    "import inc prog(\"x\" val integer, \"y\" res integer)",
                    "sun-sparc10");
  // Issue a window of calls before reading any reply: they pipeline over
  // the shared connection and replies are matched back by seq.
  std::vector<PendingTcpCall> pending;
  pending.reserve(64);
  for (int i = 0; i < 64; ++i) {
    pending.push_back(inc.call_async({Value::integer(i), Value::integer(0)}));
  }
  for (int i = 0; i < 64; ++i) {
    CallResult& result = pending[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(result.ok()) << result.status.to_string();
    EXPECT_EQ(result.values[1].as_integer(), i + 1);
  }
  EXPECT_EQ(host.calls(), 64);
}

TEST(TcpTransport, StubsToOneHostShareThePooledConnection) {
  TcpProcedureHost host(
      "export inc prog(\"x\" val integer, \"y\" res integer)",
      {{"inc", [](ProcCall& c) {
          c.set("y", Value::integer(c.integer("x") + 1));
        }}},
      "sun-sparc10");
  TcpRemoteProc a("127.0.0.1", host.port(), "inc",
                  "import inc prog(\"x\" val integer, \"y\" res integer)",
                  "sun-sparc10");
  TcpRemoteProc b("127.0.0.1", host.port(), "inc",
                  "import inc prog(\"x\" val integer, \"y\" res integer)",
                  "sun-sparc10");
  EXPECT_EQ(a.call({Value::integer(1), Value::integer(0)}, kLegacy)
      .values_or_raise()[1].as_integer(), 2);
  EXPECT_EQ(b.call({Value::integer(2), Value::integer(0)}, kLegacy)
      .values_or_raise()[1].as_integer(), 3);
  // One pooled channel per host:port — both stubs rode the same socket.
  auto c1 = bus::TcpBus::instance().channel("127.0.0.1", host.port());
  auto c2 = bus::TcpBus::instance().channel("127.0.0.1", host.port());
  EXPECT_EQ(c1.get(), c2.get());
  EXPECT_EQ(host.calls(), 2);
}

TEST(TcpTransport, ConnectionToNowhereFailsFast) {
  EXPECT_THROW(TcpRemoteProc("127.0.0.1", 1, "f",
                             "import f prog(\"x\" val double)",
                             "sun-sparc10"),
               util::CallError);
}

// A pipelined call marshals the same request and reply as a lock-step
// one, so both count request and reply bytes alike.
TEST(TcpTransport, PipelinedAndLockStepCountTheSameMarshaledBytes) {
  TcpProcedureHost host(
      "export inc prog(\"x\" val integer, \"y\" res integer)",
      {{"inc", [](ProcCall& c) {
          c.set("y", Value::integer(c.integer("x") + 1));
        }}},
      "sun-sparc10");
  TcpRemoteProc inc("127.0.0.1", host.port(), "inc",
                    "import inc prog(\"x\" val integer, \"y\" res integer)",
                    "sun-sparc10");
  const obs::Counter& bytes =
      obs::Registry::global().counter("rpc.client.bytes_marshaled");
  const uts::ValueList args = {Value::integer(7), Value::integer(0)};

  const std::uint64_t start = bytes.value();
  ASSERT_TRUE(inc.call(args, kLegacy).ok());
  const std::uint64_t lockstep = bytes.value() - start;
  ASSERT_TRUE(inc.call_async(args).get().ok());
  const std::uint64_t pipelined = bytes.value() - start - lockstep;
  EXPECT_GT(lockstep, 0u);
  EXPECT_EQ(pipelined, lockstep);
}

const char* kNapSpec = R"(export nap prog("ms" val integer, "y" res integer))";
const char* kNapImport =
    R"(import nap prog("ms" val integer, "y" res integer))";

/// Serves nap: sleeps `ms` and echoes it. With `late_first`, the host's
/// first reply instead comes 300 ms late and every later one at once.
std::unique_ptr<TcpProcedureHost> nap_host(bool late_first = false) {
  auto served = std::make_shared<std::atomic<int>>(0);
  return std::make_unique<TcpProcedureHost>(
      kNapSpec,
      std::vector<ProcedureDef>{
          {"nap",
           [served, late_first](ProcCall& c) {
             const bool late = late_first && served->fetch_add(1) == 0;
             std::this_thread::sleep_for(std::chrono::milliseconds(
                 late ? 300 : c.integer("ms")));
             c.set("y", Value::integer(c.integer("ms")));
           }}},
      "sun-sparc10");
}

TEST(TcpTransport, ATimedOutCallCountsInTheSharedFailureMetrics) {
  auto host = nap_host();
  TcpRemoteProc nap("127.0.0.1", host->port(), "nap", kNapImport,
                    "sun-sparc10");
  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t timeouts = reg.counter("rpc.client.timeouts").value();
  const std::uint64_t failed = reg.counter("rpc.client.failed_calls").value();
  CallOptions opts;  // not idempotent: a timeout is not retried
  opts.deadline_us = 50'000;
  CallResult r = nap.call({Value::integer(300), Value::integer(0)}, opts);
  EXPECT_EQ(r.status.code(), util::ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(reg.counter("rpc.client.timeouts").value() - timeouts, 1u);
  EXPECT_EQ(reg.counter("rpc.client.failed_calls").value() - failed, 1u);
}

TEST(TcpTransport,
     AnIdempotentCallIsRetriedAfterALateReplyWithJitteredBackoff) {
  auto host = nap_host(/*late_first=*/true);
  TcpRemoteProc nap("127.0.0.1", host->port(), "nap", kNapImport,
                    "sun-sparc10");
  CallOptions opts;
  opts.deadline_us = 200'000;  // 100 ms for each of two attempts
  opts.max_attempts = 2;
  opts.idempotent = true;
  CallResult r = nap.call({Value::integer(0), Value::integer(0)}, opts);
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  ASSERT_EQ(r.attempt_count(), 2);
  EXPECT_EQ(r.attempts[0].status.code(), util::ErrorCode::kDeadlineExceeded);
  const double initial = static_cast<double>(opts.backoff.initial_us);
  EXPECT_GE(r.attempts[1].backoff_us, initial * (1.0 - opts.backoff.jitter));
  EXPECT_LE(r.attempts[1].backoff_us, initial * (1.0 + opts.backoff.jitter));
}

TEST(TcpTransport, ANonIdempotentCallIsNotRetriedAfterALateReply) {
  auto host = nap_host(/*late_first=*/true);
  TcpRemoteProc nap("127.0.0.1", host->port(), "nap", kNapImport,
                    "sun-sparc10");
  CallOptions opts;
  opts.deadline_us = 200'000;
  opts.max_attempts = 2;
  CallResult r = nap.call({Value::integer(0), Value::integer(0)}, opts);
  EXPECT_EQ(r.status.code(), util::ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(r.attempt_count(), 1);
}

TEST(TcpTransport, APipelinedCallToADeadHostRetriesFromGetOnTheSameAddress) {
  auto host = nap_host();
  TcpRemoteProc nap("127.0.0.1", host->port(), "nap", kNapImport,
                    "sun-sparc10");
  host->stop();
  // Once a ping has failed, the stub has seen its connection die: the
  // next request cannot leave, and is not in doubt.
  EXPECT_THROW(nap.ping_us(), util::Error);
  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t retries = reg.counter("rpc.client.retries").value();
  const std::uint64_t stale = reg.counter("rpc.client.stale_retries").value();
  // The first attempt fails at issue; get() runs the second (a reconnect
  // to the same host:port, as the binding is fixed).
  PendingTcpCall pending = nap.call_async({Value::integer(0), Value::integer(0)});
  CallResult& r = pending.get();
  EXPECT_EQ(r.status.code(), util::ErrorCode::kNoRoute);
  ASSERT_EQ(r.attempt_count(), 2);
  EXPECT_EQ(r.attempts[1].address, r.attempts[0].address);
  EXPECT_EQ(reg.counter("rpc.client.retries").value() - retries, 1u);
  EXPECT_EQ(reg.counter("rpc.client.stale_retries").value(), stale)
      << "a reconnect is no stale binding";
}

// One export served by both procedure hosts — the cluster image and the
// TCP host — answers a subset import, an unknown procedure, an
// incompatible import, a ping and an unexpected kind identically: same
// values, same codes, same text; unpooled and with a worker pool alike.
TEST(HostParity, ClusterAndTcpHostsServeOneExportAlike) {
  const char* spec = R"(
    export stats prog(
        "x" val double,
        "scale" val double,
        "y" res double,
        "tag" res integer)
  )";
  const auto handler = [](ProcCall& c) {
    c.set_real("y", 2.0 * c.real("x") + c.real("scale"));
    c.set("tag", Value::integer(7));
  };
  const std::string subset =
      "import stats prog(\"x\" val double, \"y\" res double)";
  const std::string unknown =
      "import ghost prog(\"x\" val double, \"y\" res double)";
  const std::string incompatible =
      "import stats prog(\"x\" val integer, \"y\" res double)";

  for (int workers : {0, 2}) {
    SCOPED_TRACE(testing::Message() << workers << " worker(s)");
    sim::Cluster cluster;
    cluster.add_machine("m", "sun-sparc10", "site");
    cluster.install_image(
        "m", "/bin/stats",
        make_procedure_image(spec, {{"stats", handler}}, {.workers = workers}));
    SchoonerSystem system(cluster, "m");
    auto session = system.make_session("m");
    auto line = session->open_line(LineOptions{}.with_name("parity"));
    const std::string address = line->contact_schx("m", "/bin/stats").address;
    // Straight to the cluster host, past the Manager's own lookup and
    // compatibility gate, so the two hosts face the very same requests.
    auto cluster_send = [&](Message& msg) {
      return line->io().call(address, msg, /*raise_errors=*/false);
    };
    auto cluster_call = [&](const std::string& name, const std::string& text,
                            const uts::ValueList& args) {
      const uts::ProcDecl decl = uts::parse_spec(text).find(name);
      Message msg;
      msg.kind = MessageKind::kCall;
      msg.line = line->id();
      msg.a = name;
      msg.b = uts::decl_to_string(decl);
      msg.blob = uts::compile_plan(decl.signature, uts::Direction::kRequest)
                     ->marshal(line->arch(), args);
      return cluster_send(msg);
    };

    TcpProcedureHost host(spec, {{"stats", handler}}, "sun-sparc10", 0,
                          workers);
    auto tcp_call = [&](const std::string& name, const std::string& text,
                        const uts::ValueList& args) {
      TcpRemoteProc proc("127.0.0.1", host.port(), name, text, "sun-sparc10");
      return proc.call(args, kLegacy);
    };
    // A raw frame on the host's pooled connection, as tcp_call's stubs use.
    auto tcp_send = [&](Message& msg) {
      std::shared_ptr<bus::BusChannel> ch =
          bus::TcpBus::instance().channel("127.0.0.1", host.port());
      msg.seq = ch->next_seq();
      return ch
          ->send(msg.seq,
                 [&](util::ByteWriter& out) {
                   bus::append_frame(out, msg, bus::kMaxFrameBytes);
                 })
          .get();
    };

    const uts::ValueList args = {Value::real(1.5), Value::real(0)};
    auto stub = line->import_proc("stats", subset);
    const CallResult via_cluster = stub->call(args, kLegacy);
    const CallResult via_tcp = tcp_call("stats", subset, args);
    ASSERT_TRUE(via_cluster.ok()) << via_cluster.status.to_string();
    ASSERT_TRUE(via_tcp.ok()) << via_tcp.status.to_string();
    ASSERT_EQ(via_tcp.values.size(), 2u);
    EXPECT_DOUBLE_EQ(via_tcp.values[1].as_real(), 3.0);  // scale defaulted
    EXPECT_EQ(via_cluster.values, via_tcp.values);

    const uts::ValueList int_args = {Value::integer(1), Value::real(0)};
    for (const auto& [name, text, call_args, code] :
         {std::tuple{std::string("ghost"), unknown, args,
                     util::ErrorCode::kLookupFailure},
          std::tuple{std::string("stats"), incompatible, int_args,
                     util::ErrorCode::kTypeMismatch}}) {
      SCOPED_TRACE(text);
      const Message reply = cluster_call(name, text, call_args);
      const CallResult result = tcp_call(name, text, call_args);
      ASSERT_TRUE(reply.is_error());
      EXPECT_EQ(static_cast<util::ErrorCode>(reply.n), code);
      EXPECT_EQ(result.status.code(), code);
      EXPECT_EQ(result.status.message(), reply.a);
    }
    const CallResult mismatch = tcp_call("stats", incompatible, int_args);
    EXPECT_NE(mismatch.status.message().find("call to 'stats': "),
              std::string::npos)
        << mismatch.status.message();

    // A ping is answered with a pong under the request's seq.
    Message cluster_ping{.kind = MessageKind::kPing};
    Message tcp_ping{.kind = MessageKind::kPing};
    const Message cluster_pong = cluster_send(cluster_ping);
    const Message tcp_pong = tcp_send(tcp_ping);
    EXPECT_EQ(cluster_pong.kind, MessageKind::kPong);
    EXPECT_EQ(tcp_pong.kind, MessageKind::kPong);
    EXPECT_EQ(cluster_pong.seq, cluster_ping.seq);
    EXPECT_EQ(tcp_pong.seq, tcp_ping.seq);

    // A kind no procedure host serves is a protocol error, worded alike.
    Message cluster_stray{.kind = MessageKind::kQuit};
    Message tcp_stray{.kind = MessageKind::kQuit};
    const Message cluster_error = cluster_send(cluster_stray);
    const Message tcp_error = tcp_send(tcp_stray);
    ASSERT_TRUE(cluster_error.is_error());
    ASSERT_TRUE(tcp_error.is_error());
    EXPECT_EQ(static_cast<util::ErrorCode>(cluster_error.n),
              util::ErrorCode::kProtocolError);
    EXPECT_EQ(static_cast<util::ErrorCode>(tcp_error.n),
              util::ErrorCode::kProtocolError);
    EXPECT_EQ(tcp_error.a, cluster_error.a);

    // Shutdown orders come from a cluster's Manager: the TCP host takes
    // one for a stray kind and keeps serving.
    Message tcp_shutdown{.kind = MessageKind::kShutdownProc};
    const Message refused = tcp_send(tcp_shutdown);
    ASSERT_TRUE(refused.is_error());
    EXPECT_EQ(static_cast<util::ErrorCode>(refused.n),
              util::ErrorCode::kProtocolError);
    EXPECT_TRUE(tcp_call("stats", subset, args).ok());
    line->quit();
  }
}

}  // namespace
}  // namespace npss::rpc
