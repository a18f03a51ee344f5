// Protocol-level tests: wire-message codec, MessageIo reply matching and
// stashing, state-transfer migration, shared-procedure migration, and
// genuinely concurrent lines (the §4.2 "concurrency is possible, but
// controlled" property).
#include <gtest/gtest.h>

#include <thread>

#include "rpc/schooner.hpp"

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
