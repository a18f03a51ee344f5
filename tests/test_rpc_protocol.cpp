// Protocol-level tests: wire-message codec, MessageIo reply matching and
// stashing, state-transfer migration, shared-procedure migration, and
// genuinely concurrent lines (the §4.2 "concurrency is possible, but
// controlled" property).
#include <gtest/gtest.h>

#include <thread>

#include "rpc/schooner.hpp"
#include "util/sha256.hpp"

namespace npss::rpc {
namespace {

using uts::Value;
using uts::ValueList;

/// No deadline, one stale-binding retry: the historical call contract.
const rpc::CallOptions kLegacy = rpc::CallOptions::legacy();

// --- Message codec ---------------------------------------------------------------

TEST(MessageCodec, RoundTripsAllFields) {
  Message msg;
  msg.kind = MessageKind::kExport;
  msg.seq = 0xdeadbeefcafe;
  msg.line = 42;
  msg.a = "alpha";
  msg.b = "beta";
  msg.c = "gamma";
  msg.n = -7;
  msg.blob = {1, 2, 3, 254, 255};
  msg.table = {{"shaft", "export shaft prog()"}, {"k2", "v2"}};
  Message back = decode_message(encode_message(msg));
  EXPECT_EQ(back.kind, msg.kind);
  EXPECT_EQ(back.seq, msg.seq);
  EXPECT_EQ(back.line, msg.line);
  EXPECT_EQ(back.a, msg.a);
  EXPECT_EQ(back.b, msg.b);
  EXPECT_EQ(back.c, msg.c);
  EXPECT_EQ(back.n, msg.n);
  EXPECT_EQ(back.blob, msg.blob);
  EXPECT_EQ(back.table, msg.table);
}

TEST(MessageCodec, TruncatedFrameRejected) {
  Message msg;
  msg.kind = MessageKind::kPing;
  util::Bytes bytes = encode_message(msg);
  bytes.resize(bytes.size() - 2);
  EXPECT_THROW((void)decode_message(bytes), util::EncodingError);
  bytes = encode_message(msg);
  bytes.push_back(0);
  EXPECT_THROW((void)decode_message(bytes), util::EncodingError);
}

TEST(MessageCodec, ErrorReplyEchoesSeqAndRaisesTyped) {
  Message request;
  request.kind = MessageKind::kLookup;
  request.seq = 99;
  Message err = Message::error_reply(request, util::ErrorCode::kLookupFailure,
                                     "nope");
  EXPECT_EQ(err.seq, 99u);
  EXPECT_TRUE(err.is_error());
  EXPECT_THROW(err.raise_if_error(), util::LookupError);
  Message ok;
  ok.kind = MessageKind::kPong;
  EXPECT_NO_THROW(ok.raise_if_error());
}

/// Lower-case hex of a byte string, two digits per byte.
std::string hex(std::span<const std::uint8_t> bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

constexpr int kKindCount = 30;  ///< kRegisterLine (1) .. kMetaProtocol (30)

/// One message per MessageKind, its fields derived from the kind: every
/// other one carries the trace extension, every third has table rows,
/// blobs and strings vary in length (empty included).
std::vector<Message> codec_corpus() {
  std::vector<Message> corpus;
  for (int k = 1; k <= kKindCount; ++k) {
    Message m;
    m.kind = static_cast<MessageKind>(k);
    m.seq = 0x0102030405060708ull * static_cast<std::uint64_t>(k);
    m.line = k % 3 == 0 ? kNoLine : 11 * k;
    m.a = "a";
    m.a += std::to_string(k);
    m.b = k % 2 ? "import shaft prog(\"x\" val float)" : "";
    m.c = std::string(static_cast<std::size_t>(k % 5), 'c');
    m.n = -k;
    for (int i = 0; i < k % 7; ++i) {
      m.blob.push_back(static_cast<std::uint8_t>(37 * k + i));
    }
    if (k % 3 == 1) m.table = {{"row", std::to_string(k)}, {"", "v"}};
    if (k % 2 == 0) {
      m.trace = obs::TraceContext{.trace_id = 1000u + k,
                                  .span_id = 2000u + k,
                                  .parent_span_id = 3000u + k};
    }
    corpus.push_back(std::move(m));
  }
  return corpus;
}

TEST(MessageCodec, CorpusCoversEveryKind) {
  for (int k = 1; k <= kKindCount; ++k) {
    EXPECT_NE(message_kind_name(static_cast<MessageKind>(k)), "?") << k;
  }
  // A kind appended to the enum must join the corpus above.
  EXPECT_EQ(message_kind_name(static_cast<MessageKind>(kKindCount + 1)), "?");
}

TEST(MessageCodec, FramesMatchTheGoldenBytesAndAreSizedOnce) {
  std::string all;
  std::vector<std::string> frames;
  for (const Message& m : codec_corpus()) {
    const util::Bytes bytes = encode_message(m);
    // Sized exactly once: the buffer never grew past what it holds.
    EXPECT_EQ(bytes.capacity(), bytes.size())
        << message_kind_name(m.kind);
    frames.push_back(hex(bytes));
    all += frames.back();
  }
  // Golden bytes captured from the field-by-field encoder this one
  // replaced: a register-line frame with table rows and no trace, and a
  // line-ack frame with the trace extension, in full; every frame of the
  // corpus through its digest.
  EXPECT_EQ(frames[0],
            "010102030405060708000000000000000b00000002613100000020696d706f"
            "72742073686166742070726f67282278222076616c20666c6f617429000000"
            "0163ffffffffffffffff00000001250000000200000003726f770000000131"
            "000000000000000176");
  EXPECT_EQ(frames[1],
            "02020406080a0c0e1000000000000000160000000261320000000000000002"
            "6363fffffffffffffffe000000024a4b000000005400000000000003ea0000"
            "0000000007d20000000000000bba");
  EXPECT_EQ(util::sha256_hex(all),
            "ce82640a6cff802c8a3ebcc1342250e262383be9fbf91c47847e56a26026e60e");
}

TEST(MessageCodec, EveryFrameRoundTrips) {
  for (const Message& m : codec_corpus()) {
    const Message back = decode_message(encode_message(m));
    EXPECT_EQ(back.kind, m.kind);
    EXPECT_EQ(back.seq, m.seq);
    EXPECT_EQ(back.line, m.line);
    EXPECT_EQ(back.a, m.a);
    EXPECT_EQ(back.b, m.b);
    EXPECT_EQ(back.c, m.c);
    EXPECT_EQ(back.n, m.n);
    EXPECT_EQ(back.blob, m.blob);
    EXPECT_EQ(back.table, m.table);
    EXPECT_EQ(back.trace.trace_id, m.trace.trace_id);
    EXPECT_EQ(back.trace.span_id, m.trace.span_id);
    EXPECT_EQ(back.trace.parent_span_id, m.trace.parent_span_id);
  }
}

// --- Abandoned-seq window -------------------------------------------------------

TEST(SeqWindow, KeepsTheNewestSpanOfSeqs) {
  SeqWindow w;
  EXPECT_FALSE(w.contains(0));
  w.mark(10);
  EXPECT_TRUE(w.contains(10));
  EXPECT_FALSE(w.contains(9));
  EXPECT_FALSE(w.contains(11));
  w.mark(10 + SeqWindow::kSpan - 1);  // 10 is now the oldest seq in view
  EXPECT_TRUE(w.contains(10));
  w.mark(10 + SeqWindow::kSpan);  // ...and falls out here
  EXPECT_FALSE(w.contains(10));
  EXPECT_TRUE(w.contains(10 + SeqWindow::kSpan - 1));
  EXPECT_TRUE(w.contains(10 + SeqWindow::kSpan));
  // Marking a seq that is already out of view changes nothing.
  w.mark(10);
  EXPECT_FALSE(w.contains(10));
}

TEST(SeqWindow, ASlideClearsTheSlotsItReuses) {
  SeqWindow w;
  w.mark(3);
  w.mark(3 + SeqWindow::kSpan - 1);
  // Sliding by two hands 3's slot to 3 + kSpan, which was never marked.
  w.mark(3 + SeqWindow::kSpan + 1);
  EXPECT_FALSE(w.contains(3 + SeqWindow::kSpan));
  EXPECT_FALSE(w.contains(3));
  EXPECT_TRUE(w.contains(3 + SeqWindow::kSpan + 1));
}

TEST(SeqWindow, AJumpWiderThanTheWindowEmptiesItWithoutAPerSeqLoop) {
  SeqWindow w;
  for (std::uint64_t seq = 1; seq <= 100; ++seq) w.mark(seq);
  // A slide that stepped through every skipped seq would not finish.
  const std::uint64_t far = 100 + (std::uint64_t{1} << 40);
  w.mark(far);
  EXPECT_TRUE(w.contains(far));
  EXPECT_FALSE(w.contains(far - 1));
  for (std::uint64_t seq = 1; seq <= 100; ++seq) EXPECT_FALSE(w.contains(seq));
}

/// A caller's MessageIo and a peer endpoint the test speaks for.
class SeqFilterTest : public ::testing::Test {
 protected:
  SeqFilterTest() {
    cluster_.add_machine("a", "sun-sparc10", "lerc");
    cluster_.add_machine("b", "sgi-4d480", "lerc");
    io_ = std::make_unique<MessageIo>(cluster_,
                                      cluster_.create_endpoint("a", "caller"));
  }

  /// Deliver `msg` to the caller as if `peer` had sent it.
  void deliver(sim::Endpoint& peer, const Message& msg) {
    cluster_.send(peer, io_->address(), encode_message(msg));
  }

  sim::Cluster cluster_;
  std::unique_ptr<MessageIo> io_;
};

TEST_F(SeqFilterTest, LateReplyIsDroppedButARequestWithThatSeqIsDelivered) {
  sim::EndpointPtr peer = cluster_.create_endpoint("b", "silent");
  Message ping{.kind = MessageKind::kPing};
  EXPECT_THROW(io_->call_within(peer->address(), ping, /*host_grace_ms=*/1),
               util::DeadlineError);
  const std::uint64_t abandoned = ping.seq;  // stamped by call_within
  ASSERT_NE(abandoned, 0u);

  deliver(*peer, Message{.kind = MessageKind::kPong, .seq = abandoned});
  EXPECT_FALSE(io_->try_receive().has_value());

  // Requests carry the *sender's* seq: the same number must not filter it.
  deliver(*peer, Message{.kind = MessageKind::kPing, .seq = abandoned});
  std::optional<Incoming> in = io_->try_receive();
  ASSERT_TRUE(in.has_value());
  EXPECT_EQ(in->msg.kind, MessageKind::kPing);
  EXPECT_EQ(in->msg.seq, abandoned);
  EXPECT_EQ(in->from(), peer->address());
}

TEST_F(SeqFilterTest, DuplicatedRepliesAreDroppedNeverStashed) {
  sim::EndpointPtr echo =
      cluster_.spawn("b", "echo", [](sim::ProcessContext& ctx) {
        MessageIo io(ctx.cluster(), ctx.self_ptr());
        while (auto in = io.receive()) {
          io.send(in->from(),
                  Message{.kind = MessageKind::kPong, .seq = in->msg.seq});
        }
      });
  sim::FaultSpec twice;
  twice.duplicate_rate = 1.0;
  cluster_.set_link_faults("ethernet-lan", twice);

  Message ping{.kind = MessageKind::kPing};
  Message pong = io_->call(echo->address(), ping);
  EXPECT_EQ(pong.kind, MessageKind::kPong);
  EXPECT_EQ(pong.seq, ping.seq);
  // The ping arrived twice and each answer twice: three more copies of
  // the finished reply reach the caller, and none of them is kept.
  EXPECT_GE(cluster_.fault_stats().duplicated, 3u);
  EXPECT_FALSE(io_->receive_for(20).has_value());

  cluster_.clear_faults();
  Message next{.kind = MessageKind::kPing};
  EXPECT_EQ(io_->call(echo->address(), next).seq, next.seq);
  EXPECT_FALSE(io_->try_receive().has_value());
}

TEST_F(SeqFilterTest, ARepliedSeqIsKeptForItsAwaitAndDroppedWhenAbandoned) {
  sim::EndpointPtr peer = cluster_.create_endpoint("b", "peer");
  Message first{.kind = MessageKind::kPing};
  Message second{.kind = MessageKind::kPing};
  Message third{.kind = MessageKind::kPing};
  Issued a = io_->issue(peer->address(), first);
  Issued b = io_->issue(peer->address(), second);
  Issued c = io_->issue(peer->address(), third);
  deliver(*peer, Message{.kind = MessageKind::kPong, .seq = a.seq, .a = "a"});
  deliver(*peer, Message{.kind = MessageKind::kPong, .seq = b.seq, .a = "b"});
  deliver(*peer, Message{.kind = MessageKind::kPong, .seq = c.seq, .a = "c"});

  // Awaited last first: the earlier replies are kept for their own
  // awaits, never stashed for the owner's main loop. Bounded, so a lost
  // reply fails the test instead of hanging it.
  const AwaitBound bound{.budget_us = 1, .host_grace_ms = 500};
  EXPECT_EQ(io_->await(c, bound).a, "c");
  EXPECT_FALSE(io_->try_receive().has_value());
  EXPECT_EQ(io_->await(a, bound).a, "a");
  // Abandoned after its reply arrived: the kept reply goes too.
  io_->abandon(b);
  EXPECT_FALSE(io_->try_receive().has_value());
  deliver(*peer, Message{.kind = MessageKind::kPong, .seq = b.seq});
  EXPECT_FALSE(io_->try_receive().has_value()) << "a duplicate stays dropped";
}

// --- Runtime fixtures ---------------------------------------------------------------

const char* kCounterSpec = R"(
  export bump prog("delta" val integer, "total" res integer)
)";
const char* kCounterImport = R"(
  import bump prog("delta" val integer, "total" res integer)
)";

/// A *stateful* counter image with the §4.2 state-transfer hooks.
sim::ProgramImage counter_image(std::shared_ptr<std::int64_t> state) {
  ProcedureImageOptions opt;
  opt.save_state = [state] {
    util::ByteWriter w;
    w.i64(*state);
    return std::move(w).take();
  };
  opt.restore_state = [state](std::span<const std::uint8_t> bytes) {
    util::ByteReader r(bytes);
    *state = r.i64();
  };
  return make_procedure_image(
      kCounterSpec, {{"bump", [state](ProcCall& call) {
                        *state += call.integer("delta");
                        call.set("total", Value::integer(*state));
                      }}},
      opt);
}

class RpcProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_.add_machine("host", "sun-sparc10", "lerc");
    cluster_.add_machine("m1", "sgi-4d480", "lerc");
    cluster_.add_machine("m2", "ibm-rs6000", "lerc");
    system_ = std::make_unique<SchoonerSystem>(cluster_, "host");
  }

  sim::Cluster cluster_;
  std::unique_ptr<SchoonerSystem> system_;
};

TEST_F(RpcProtocolTest, StateTransferMigrationPreservesCounter) {
  // Each machine's copy of the executable shares the process-local state
  // cell *only through the Manager's state transfer*.
  auto state1 = std::make_shared<std::int64_t>(0);
  auto state2 = std::make_shared<std::int64_t>(0);
  cluster_.install_image("m1", "/bin/counter", counter_image(state1));
  cluster_.install_image("m2", "/bin/counter", counter_image(state2));

  auto session = system_->make_session("host");
  auto client = session->open_line(rpc::LineOptions{}.with_name("counter"));
  client->contact_schx("m1", "/bin/counter");
  auto bump = client->import_proc("bump", kCounterImport);
  EXPECT_EQ(bump->call({Value::integer(5), Value::integer(0)}, kLegacy)
      .values_or_raise()[1]
                .as_integer(),
            5);
  EXPECT_EQ(bump->call({Value::integer(2), Value::integer(0)}, kLegacy)
      .values_or_raise()[1]
                .as_integer(),
            7);

  // Move *with* state transfer: the counter continues from 7 on m2.
  client->move_proc("bump", "m2", "/bin/counter", /*transfer_state=*/true);
  EXPECT_EQ(bump->call({Value::integer(1), Value::integer(0)}, kLegacy)
      .values_or_raise()[1]
                .as_integer(),
            8);
  EXPECT_EQ(*state2, 8);
}

TEST_F(RpcProtocolTest, StatelessMigrationRestartsFresh) {
  auto state1 = std::make_shared<std::int64_t>(0);
  auto state2 = std::make_shared<std::int64_t>(0);
  cluster_.install_image("m1", "/bin/counter", counter_image(state1));
  cluster_.install_image("m2", "/bin/counter", counter_image(state2));

  auto session = system_->make_session("host");
  auto client = session->open_line(rpc::LineOptions{}.with_name("counter"));
  client->contact_schx("m1", "/bin/counter");
  auto bump = client->import_proc("bump", kCounterImport);
  bump->call({Value::integer(5), Value::integer(0)}, kLegacy).values_or_raise();

  client->move_proc("bump", "m2", "/bin/counter", /*transfer_state=*/false);
  EXPECT_EQ(bump->call({Value::integer(1), Value::integer(0)}, kLegacy)
      .values_or_raise()[1]
                .as_integer(),
            1)
      << "without state transfer the procedure restarts from scratch";
}

TEST_F(RpcProtocolTest, SharedProcedureMoveUpdatesAllLines) {
  auto state = std::make_shared<std::int64_t>(0);
  cluster_.install_image("m1", "/bin/counter", counter_image(state));
  auto state_b = std::make_shared<std::int64_t>(100);
  cluster_.install_image("m2", "/bin/counter", counter_image(state_b));

  auto session = system_->make_session("host");
  auto owner = session->open_line(rpc::LineOptions{}.with_name("owner"));
  owner->contact_schx("m1", "/bin/counter", /*shared=*/true);

  auto user1 = session->open_line(rpc::LineOptions{}.with_name("user1"));
  auto user2 = session->open_line(rpc::LineOptions{}.with_name("user2"));
  auto b1 = user1->import_proc("bump", kCounterImport);
  auto b2 = user2->import_proc("bump", kCounterImport);
  b1->call({Value::integer(1), Value::integer(0)}, kLegacy).values_or_raise();
  b2->call({Value::integer(1), Value::integer(0)}, kLegacy).values_or_raise();
  EXPECT_EQ(*state, 2);

  // Owner moves the shared procedure; both users' caches recover.
  owner->move_proc("bump", "m2", "/bin/counter", /*transfer_state=*/true);
  EXPECT_EQ(b1->call({Value::integer(1), Value::integer(0)}, kLegacy)
      .values_or_raise()[1]
                .as_integer(),
            3);
  EXPECT_EQ(b2->call({Value::integer(1), Value::integer(0)}, kLegacy)
      .values_or_raise()[1]
                .as_integer(),
            4);
  EXPECT_EQ(b1->stale_retries(), 1);
  EXPECT_EQ(b2->stale_retries(), 1);
}

TEST(RpcMigration, FailedMoveLeavesTheProcedureOnItsMachine) {
  // The replacement is started before the source is stopped, so a move
  // to a machine without the image, or to no machine at all, fails
  // while the procedure still answers from where it was, state intact.
  for (int replicas : {1, 3}) {
    SCOPED_TRACE(testing::Message() << replicas << " Manager replica(s)");
    sim::Cluster cluster;
    cluster.add_machine("host", "sun-sparc10", "lerc");
    cluster.add_machine("m1", "sgi-4d480", "lerc");
    cluster.add_machine("m2", "ibm-rs6000", "lerc");
    auto state = std::make_shared<std::int64_t>(0);
    cluster.install_image("m1", "/bin/counter", counter_image(state));
    SystemOptions options;
    options.manager_replicas = replicas;
    SchoonerSystem system(cluster, "host", options);

    auto session = system.make_session("host");
    auto client = session->open_line(rpc::LineOptions{}.with_name("stay"));
    const std::string home = client->contact_schx("m1", "/bin/counter").address;
    auto bump = client->import_proc("bump", kCounterImport);
    bump->call({Value::integer(5), Value::integer(0)}, kLegacy)
        .values_or_raise();

    EXPECT_THROW(client->move_proc("bump", "m2", "/bin/counter"),
                 util::StartupError);
    EXPECT_THROW(client->move_proc("bump", "nowhere"),
                 util::NoSuchMachineError);

    EXPECT_EQ(bump->call({Value::integer(1), Value::integer(0)}, kLegacy)
                  .values_or_raise()[1]
                  .as_integer(),
              6);
    EXPECT_EQ(bump->stale_retries(), 0);
    EXPECT_TRUE(cluster.endpoint_alive(home));
    client->quit();
  }
}

TEST(RpcErrors, RelayedErrorsCarryOneCodePrefix) {
  // A typed error keeps its code across every relay hop, and its message
  // names the code once: the receiver re-adds the prefix what() carried.
  const auto prefixes = [](const std::string& text, const std::string& code) {
    std::size_t n = 0;
    for (auto at = text.find(code + ": "); at != std::string::npos;
         at = text.find(code + ": ", at + 1)) {
      ++n;
    }
    return n;
  };
  sim::Cluster cluster;
  cluster.add_machine("host", "sun-sparc10", "lerc");
  cluster.add_machine("m1", "sgi-4d480", "lerc");
  cluster.install_image(
      "m1", "/bin/picky",
      make_procedure_image(kCounterSpec, {{"bump", [](ProcCall& call) {
                             throw util::RangeError(
                                 "delta " +
                                 std::to_string(call.integer("delta")) +
                                 " out of range");
                           }}}));
  SchoonerSystem system(cluster, "host");
  auto session = system.make_session("host");
  auto client = session->open_line(rpc::LineOptions{}.with_name("errors"));
  client->contact_schx("m1", "/bin/picky");

  // From a Manager handler: the second export of one name in one line.
  try {
    client->contact_schx("m1", "/bin/picky");
    ADD_FAILURE() << "duplicate export accepted";
  } catch (const util::DuplicateNameError& e) {
    EXPECT_EQ(prefixes(e.what(), "duplicate-name"), 1u) << e.what();
  }
  // Through the Manager from a Server: a start with no such image.
  try {
    client->contact_schx("m1", "/no/such/image");
    ADD_FAILURE() << "start of a missing image succeeded";
  } catch (const util::StartupError& e) {
    EXPECT_EQ(prefixes(e.what(), "startup-failure"), 1u) << e.what();
  }
  // From a procedure handler, through its host.
  auto bump = client->import_proc("bump", kCounterImport);
  CallResult result =
      bump->call({Value::integer(7), Value::integer(0)}, kLegacy);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status.code(), util::ErrorCode::kRangeError);
  EXPECT_EQ(prefixes(result.status.to_string(), "range-error"), 1u)
      << result.status.to_string();
  EXPECT_THROW(result.values_or_raise(), util::RangeError);
  client->quit();
}

TEST_F(RpcProtocolTest, ConcurrentLinesRunIndependently) {
  // Several lines calling same-named procedures from distinct host
  // threads: each line is sequential, lines interleave freely, and no
  // cross-talk occurs (§4.2).
  const int kLines = 6;
  const int kCallsPerLine = 25;
  std::vector<std::shared_ptr<std::int64_t>> states;
  for (int i = 0; i < kLines; ++i) {
    auto state = std::make_shared<std::int64_t>(0);
    states.push_back(state);
    cluster_.install_image(i % 2 ? "m1" : "m2",
                           "/bin/counter" + std::to_string(i),
                           counter_image(state));
  }
  std::vector<std::thread> threads;
  std::vector<std::int64_t> totals(kLines, 0);
  for (int i = 0; i < kLines; ++i) {
    threads.emplace_back([&, i] {
      auto session = system_->make_session("host");
      auto client = session->open_line(
          rpc::LineOptions{}.with_name("line" + std::to_string(i)));
      client->contact_schx(i % 2 ? "m1" : "m2",
                           "/bin/counter" + std::to_string(i));
      auto bump = client->import_proc("bump", kCounterImport);
      for (int c = 0; c < kCallsPerLine; ++c) {
        totals[i] = bump->call(
            {Value::integer(i + 1), Value::integer(0)}, kLegacy)
                .values_or_raise()[1]
                        .as_integer();
      }
      client->quit();
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kLines; ++i) {
    EXPECT_EQ(totals[i], static_cast<std::int64_t>(kCallsPerLine) * (i + 1));
    EXPECT_EQ(*states[i], totals[i]);
  }
  EXPECT_EQ(system_->stats().lines_created, static_cast<std::uint64_t>(kLines));
}

TEST_F(RpcProtocolTest, VarParametersTravelBothWays) {
  const char* spec = R"(
    export scale prog("x" var double, "k" val double)
  )";
  cluster_.install_image(
      "m1", "/bin/scale",
      make_procedure_image(spec, {{"scale", [](ProcCall& call) {
                                     call.set_real("x", call.real("x") *
                                                            call.real("k"));
                                   }}}));
  auto session = system_->make_session("host");
  auto client = session->open_line(rpc::LineOptions{}.with_name("var-test"));
  client->contact_schx("m1", "/bin/scale");
  auto scale = client->import_proc(
      "scale", "import scale prog(\"x\" var double, \"k\" val double)");
  ValueList out = scale->call({Value::real(3.0), Value::real(4.0)}, kLegacy)
      .values_or_raise();
  EXPECT_DOUBLE_EQ(out[0].as_real(), 12.0);
}

TEST_F(RpcProtocolTest, ManagerAnswersPing) {
  auto session = system_->make_session("host");
  auto client = session->open_line(rpc::LineOptions{}.with_name("pinger"));
  Message pong = client->io().call(system_->manager_address(),
                                   Message{.kind = MessageKind::kPing});
  EXPECT_EQ(pong.kind, MessageKind::kPong);
}

TEST_F(RpcProtocolTest, RuntimeTypeCheckHappensAtBindTime) {
  cluster_.install_image(
      "m1", "/bin/one",
      make_procedure_image("export one prog(\"x\" val double)",
                           {{"one", [](ProcCall&) {}}}));
  auto session = system_->make_session("host");
  auto client = session->open_line(rpc::LineOptions{}.with_name("bind-check"));
  client->contact_schx("m1", "/bin/one");
  auto bad = client->import_proc("one",
                                 "import one prog(\"x\" val integer)");
  EXPECT_THROW(bad->call({Value::integer(1)}, kLegacy)
      .values_or_raise(), util::TypeMismatchError);
  EXPECT_EQ(system_->stats().type_check_failures, 1u);
}

}  // namespace
}  // namespace npss::rpc
