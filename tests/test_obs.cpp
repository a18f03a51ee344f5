// Tests of the observability subsystem: histogram bucket edge cases,
// registry exports, span nesting, the bounded span collector's drop
// path, the RPC layer's cached metric handles, trace-context propagation
// on the wire (both the byte format and a live kCall over real TCP), and
// the end-to-end run report for an F100 transient with a remote module —
// the software replacement for the paper's hand-timed Tables 1 and 2.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "flow/network.hpp"
#include "npss/network_driver.hpp"
#include "npss/procedures.hpp"
#include "npss/runtime.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "rpc/message.hpp"
#include "rpc/schooner.hpp"
#include "rpc/tcp_transport.hpp"
#include "util/status.hpp"

namespace npss {
namespace {

using uts::Value;

/// No deadline, one stale-binding retry: the historical call contract.
const rpc::CallOptions kLegacy = rpc::CallOptions::legacy();

TEST(ObsHistogram, BucketEdgesMinMaxAndOverflow) {
  obs::Histogram h({0.0, 10.0, 100.0});
  // Empty histogram reads as zeros, not the +/-infinity seeds.
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);

  h.record(0.0);      // exactly the first bound -> bucket 0
  h.record(-5.0);     // below every bound -> bucket 0
  h.record(10.0);     // exactly a middle bound -> bucket 1
  h.record(100.0);    // exactly the last bound -> last bucket
  h.record(100.001);  // above the last bound -> overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.001);

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);

  EXPECT_THROW(obs::Histogram(std::vector<double>{}), util::ModelError);
  EXPECT_THROW(obs::Histogram(std::vector<double>{5.0, 1.0}),
               util::ModelError);
}

TEST(ObsRegistry, ExportsAndKindMismatch) {
  obs::Registry reg;
  reg.counter("a.calls").add(3);
  reg.gauge("a.level").set(2.5);
  reg.histogram("a.lat", {1.0, 10.0}).record(5.0);
  reg.counter("b.idle");  // registered but never incremented

  EXPECT_THROW(reg.gauge("a.calls"), util::ModelError);
  EXPECT_THROW(reg.counter("a.lat"), util::ModelError);
  EXPECT_THROW(reg.histogram("a.level"), util::ModelError);
  EXPECT_THROW(reg.find_counter("missing"), util::ModelError);

  const std::string text = reg.to_text();
  EXPECT_NE(text.find("a.calls counter 3"), std::string::npos);
  EXPECT_NE(text.find("a.level gauge 2.5"), std::string::npos);
  EXPECT_NE(text.find("a.lat histogram count=1"), std::string::npos);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"a.calls\":3"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[[1,0],[10,1]]"), std::string::npos);

  auto active = reg.active_names();
  EXPECT_NE(std::find(active.begin(), active.end(), "a.calls"),
            active.end());
  EXPECT_EQ(std::find(active.begin(), active.end(), "b.idle"), active.end());

  reg.reset();
  EXPECT_EQ(reg.find_counter("a.calls").value(), 0u);
  EXPECT_TRUE(reg.active_names().empty());
}

TEST(ObsTrace, SpansNestAndRecord) {
  obs::reset_run();
  obs::TraceContext root_ctx;
  {
    obs::Span root("test.layer", "root");
    ASSERT_TRUE(root.active());
    root_ctx = root.context();
    EXPECT_TRUE(root_ctx.active());
    EXPECT_EQ(obs::current_trace().span_id, root_ctx.span_id);
    {
      obs::Span child("test.layer", "child");
      EXPECT_EQ(child.context().trace_id, root_ctx.trace_id);
      EXPECT_EQ(child.context().parent_span_id, root_ctx.span_id);
    }
    EXPECT_EQ(obs::current_trace().span_id, root_ctx.span_id);
  }
  EXPECT_FALSE(obs::current_trace().active());
  auto spans = obs::SpanCollector::global().snapshot();
  ASSERT_EQ(spans.size(), 2u);  // child closes (and records) first
  EXPECT_EQ(spans[0].name, "child");
  EXPECT_EQ(spans[1].name, "root");
  EXPECT_EQ(spans[0].trace_id, spans[1].trace_id);
}

TEST(ObsTrace, DisabledSwitchMakesSpansNoOps) {
  obs::reset_run();
  obs::set_enabled(false);
  {
    obs::Span s("test.layer", "ghost");
    EXPECT_FALSE(s.active());
    EXPECT_FALSE(s.context().active());
    EXPECT_FALSE(obs::current_trace().active());
  }
  obs::set_enabled(true);
  EXPECT_EQ(obs::SpanCollector::global().size(), 0u);
}

TEST(ObsWire, UntracedFrameMatchesLegacyFormat) {
  rpc::Message msg;
  msg.kind = rpc::MessageKind::kCall;
  msg.seq = 9;
  msg.a = "shaft";
  msg.b = "import shaft prog(\"x\" val float)";
  msg.table = {{"k", "v"}};

  // No trace -> byte-identical to the pre-extension format, and a frame
  // from a pre-trace peer (same bytes) decodes with an inactive context.
  util::Bytes legacy = rpc::encode_message(msg);
  rpc::Message back = rpc::decode_message(legacy);
  EXPECT_FALSE(back.trace.active());
  EXPECT_EQ(back.a, msg.a);

  // Active trace -> marker byte + three u64 ids appended.
  msg.trace = obs::TraceContext{42, 7, 3};
  util::Bytes traced = rpc::encode_message(msg);
  EXPECT_EQ(traced.size(), legacy.size() + 1 + 3 * 8);
  back = rpc::decode_message(traced);
  EXPECT_EQ(back.trace.trace_id, 42u);
  EXPECT_EQ(back.trace.span_id, 7u);
  EXPECT_EQ(back.trace.parent_span_id, 3u);

  // An unknown extension marker is rejected, not silently skipped.
  legacy.push_back(0x99);
  EXPECT_THROW(rpc::decode_message(legacy), util::EncodingError);
}

TEST(ObsWire, TraceIdPropagatesAcrossRealTcpCall) {
  obs::reset_run();
  rpc::TcpProcedureHost host(
      "export inc prog(\"x\" val integer, \"y\" res integer)",
      {{"inc",
        [](rpc::ProcCall& c) {
          c.set("y", Value::integer(c.integer("x") + 1));
        }}},
      "sun-sparc10");
  rpc::TcpRemoteProc inc("127.0.0.1", host.port(), "inc",
                         "import inc prog(\"x\" val integer,"
                         " \"y\" res integer)",
                         "sun-sparc10");
  uts::ValueList out =
      inc.call({Value::integer(41), Value::integer(0)}, kLegacy)
          .values_or_raise();
  EXPECT_EQ(out[1].as_integer(), 42);

  // The server-side span closes just after the reply is sent; poll
  // briefly for it. The wire frame carries the per-attempt child span,
  // so the hierarchy is call -> attempt -> server, one trace end to end.
  obs::SpanRecord call_span{}, attempt{}, server{};
  for (int i = 0; i < 400 && server.trace_id == 0; ++i) {
    for (const obs::SpanRecord& s : obs::SpanCollector::global().snapshot()) {
      if (s.layer == "rpc.client" && s.name.starts_with("attempt ")) {
        attempt = s;
      } else if (s.layer == "rpc.client") {
        call_span = s;
      }
      if (s.layer == "rpc.host") server = s;
    }
    if (server.trace_id == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_NE(call_span.trace_id, 0u);
  ASSERT_NE(attempt.trace_id, 0u);
  ASSERT_NE(server.trace_id, 0u);
  EXPECT_EQ(attempt.trace_id, call_span.trace_id);
  EXPECT_EQ(attempt.parent_span_id, call_span.span_id);
  EXPECT_EQ(server.trace_id, call_span.trace_id);
  EXPECT_EQ(server.parent_span_id, attempt.span_id);

  // kPing round trips record transport RTT separately from call latency.
  EXPECT_GT(inc.ping_us(), 0.0);
  obs::Registry& reg = obs::Registry::global();
  EXPECT_GE(reg.find_histogram("rpc.transport.rtt_us").count(), 1u);
  EXPECT_GE(reg.find_counter("rpc.transport.frames_sent").value(), 2u);
  EXPECT_GE(reg.find_counter("rpc.client.calls").value(), 1u);
  EXPECT_GT(reg.find_histogram("rpc.client.latency_us").count(), 0u);
}

/// The registry readings one lock-step sim call moves.
struct CallTallies {
  std::uint64_t client_calls = 0, client_calls_inc = 0, host_calls = 0;
  std::uint64_t frames_sent = 0, frames_received = 0;
  std::uint64_t client_latency = 0, client_virtual_latency = 0;
  std::uint64_t host_handler = 0, marshal_hits = 0;
};

CallTallies read_call_tallies() {
  obs::Registry& reg = obs::Registry::global();
  CallTallies t;
  t.client_calls = reg.find_counter("rpc.client.calls").value();
  t.client_calls_inc = reg.find_counter("rpc.client.calls.inc").value();
  t.host_calls = reg.find_counter("rpc.host.calls").value();
  t.frames_sent = reg.find_counter("rpc.transport.frames_sent").value();
  t.frames_received =
      reg.find_counter("rpc.transport.frames_received").value();
  t.client_latency = reg.find_histogram("rpc.client.latency_us").count();
  t.client_virtual_latency =
      reg.find_histogram("rpc.client.virtual_latency_us").count();
  t.host_handler = reg.find_histogram("rpc.host.handler_us").count();
  t.marshal_hits = reg.find_counter("uts.marshal.fast_path_hits").value() +
                   reg.find_counter("uts.marshal.fallback_hits").value();
  return t;
}

void expect_k_calls(const CallTallies& before, const CallTallies& after,
                    std::uint64_t k) {
  EXPECT_EQ(after.client_calls - before.client_calls, k);
  EXPECT_EQ(after.client_calls_inc - before.client_calls_inc, k);
  EXPECT_EQ(after.host_calls - before.host_calls, k);
  EXPECT_EQ(after.frames_sent - before.frames_sent, 2 * k);
  EXPECT_EQ(after.frames_received - before.frames_received, 2 * k);
  EXPECT_EQ(after.client_latency - before.client_latency, k);
  EXPECT_EQ(after.client_virtual_latency - before.client_virtual_latency, k);
  EXPECT_EQ(after.host_handler - before.host_handler, k);
  // Client request marshal, host request unmarshal, host reply marshal,
  // client reply unmarshal.
  EXPECT_EQ(after.marshal_hits - before.marshal_hits, 4 * k);
}

TEST(ObsHandles, SimCallsRecordExactlyOncePerEventAcrossAReset) {
  sim::Cluster cluster;
  cluster.add_machine("sparc", "sun-sparc10", "lerc");
  cluster.add_machine("cray", "cray-ymp", "lerc");
  cluster.install_image(
      "cray", "/bin/inc",
      rpc::make_procedure_image(
          "export inc prog(\"x\" val integer, \"y\" res integer)",
          {{"inc", [](rpc::ProcCall& c) {
              c.set("y", Value::integer(c.integer("x") + 1));
            }}}));
  rpc::SchoonerSystem system(cluster, "sparc");
  auto session = system.make_session("sparc");
  auto line = session->open_line(rpc::LineOptions{}.with_name("handles"));
  line->contact_schx("cray", "/bin/inc");
  auto inc = line->import_proc(
      "inc", "import inc prog(\"x\" val integer, \"y\" res integer)");
  auto call_k = [&](int k) {
    for (int i = 0; i < k; ++i) {
      uts::ValueList out =
          inc->call({Value::integer(i), Value::integer(0)}, kLegacy)
              .values_or_raise();
      ASSERT_EQ(out[1].as_integer(), i + 1);
    }
  };
  call_k(1);  // bind: the per-procedure handle is resolved here

  const int kCalls = 25;
  const CallTallies before = read_call_tallies();
  call_k(kCalls);
  expect_k_calls(before, read_call_tallies(), kCalls);

  // A reset zeroes every metric without invalidating a cached handle:
  // the same handles count the next calls from zero.
  obs::reset_run();
  call_k(kCalls);
  expect_k_calls(CallTallies{}, read_call_tallies(), kCalls);
  line->quit();
}

TEST(ObsTrace, FullCollectorCountsDropsUntilCleared) {
  obs::SpanCollector small(4);
  for (int i = 0; i < 10; ++i) {
    small.record(obs::SpanRecord{.trace_id = 1,
                                 .span_id = static_cast<std::uint64_t>(i + 1)});
  }
  EXPECT_EQ(small.size(), 4u);
  EXPECT_EQ(small.dropped(), 6u);
  small.clear();
  EXPECT_EQ(small.dropped(), 0u);
  small.record(obs::SpanRecord{.trace_id = 2, .span_id = 11});
  EXPECT_EQ(small.size(), 1u);
  EXPECT_EQ(small.dropped(), 0u);

  // Closing a Span into the full global collector: counted, not kept.
  obs::reset_run();
  obs::SpanCollector& global = obs::SpanCollector::global();
  while (global.size() < global.capacity()) obs::Span fill("test", "fill");
  for (int i = 0; i < 10; ++i) obs::Span late("test", "late");
  EXPECT_EQ(global.size(), global.capacity());
  EXPECT_EQ(global.dropped(), 10u);
  obs::reset_run();
  { obs::Span again("test", "again"); }
  EXPECT_EQ(global.size(), 1u);
  EXPECT_EQ(global.dropped(), 0u);
}

TEST(ObsTrace, ConcurrentRecordsFillOnceAndCountEveryDrop) {
  // Threads race the collector past full: the lock-free drop path must
  // neither lose a drop nor let a record in past capacity.
  obs::SpanCollector collector(64);
  const int kThreads = 4, kEach = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&collector, t] {
      for (int i = 0; i < kEach; ++i) {
        collector.record(obs::SpanRecord{
            .trace_id = static_cast<std::uint64_t>(t + 1),
            .span_id = static_cast<std::uint64_t>(i + 1)});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(collector.size(), 64u);
  EXPECT_EQ(collector.dropped(), std::uint64_t{kThreads * kEach - 64});
}

TEST(ObsReport, F100RemoteTransientShowsInstrumentedLayers) {
  // The acceptance scenario: one F100 transient with a remote module must
  // produce a run report covering at least the RPC client, the transport,
  // and the flow scheduler, with non-empty latency histograms, and the
  // client/host spans of a kCall must share a trace id.
  sim::Cluster cluster;
  cluster.add_machine("sparc-ua", "sun-sparc10", "uarizona");
  cluster.add_machine("cray-lerc", "cray-ymp", "lerc");
  cluster.set_site_link("lerc", "uarizona",
                        sim::link_profile("internet-wan"));
  glue::install_tess_procedures_everywhere(cluster);
  rpc::SchoonerSystem system(cluster, "sparc-ua");
  glue::configure_npss_runtime(cluster, system, "sparc-ua");

  flow::Network net;
  glue::F100NetworkNames names = glue::build_f100_network(net);
  net.module(names.burner).widget("machine").select("cray-lerc");
  net.module(names.burner).widget("path").set_text(glue::kCombustorPath);

  glue::NetworkEngine engine(net);
  engine.set_solver_tolerances(5e-6, 1e-4);

  obs::reset_run();
  const tess::SteadyResult steady =
      engine.balance(1.0, tess::FlightCondition{});
  engine.transient(steady.performance.speeds,
                   [](double t) { return t < 0.05 ? 1.0 : 1.2; },
                   tess::FlightCondition{}, 0.2, 0.05,
                   engine.system().transient_method());

  std::vector<std::string> layers =
      obs::active_layers(obs::Registry::global());
  auto has_layer = [&](const char* l) {
    return std::find(layers.begin(), layers.end(), l) != layers.end();
  };
  EXPECT_GE(layers.size(), 3u);
  EXPECT_TRUE(has_layer("rpc.client"));
  EXPECT_TRUE(has_layer("rpc.transport"));
  EXPECT_TRUE(has_layer("flow.scheduler"));

  obs::Registry& reg = obs::Registry::global();
  EXPECT_GT(reg.find_histogram("rpc.client.latency_us").count(), 0u);
  EXPECT_GT(reg.find_histogram("flow.scheduler.module_evaluate_us").count(),
            0u);
  EXPECT_GT(reg.find_counter("rpc.transport.frames_sent").value(), 0u);
  EXPECT_GT(reg.find_counter("tess.engine.transient_steps").value(), 0u);

  // One kCall, both sides: a procedure-host span whose parent is a client
  // span of the same trace.
  auto spans = obs::SpanCollector::global().snapshot();
  bool matched = false;
  for (const obs::SpanRecord& h : spans) {
    if (h.layer != "rpc.host" || h.parent_span_id == 0) continue;
    for (const obs::SpanRecord& c : spans) {
      if (c.layer == "rpc.client" && c.trace_id == h.trace_id &&
          c.span_id == h.parent_span_id) {
        matched = true;
        break;
      }
    }
    if (matched) break;
  }
  EXPECT_TRUE(matched);

  const std::string report = obs::run_report();
  EXPECT_NE(report.find("run report"), std::string::npos);
  EXPECT_NE(report.find("rpc.client"), std::string::npos);
  EXPECT_NE(report.find("flow.scheduler"), std::string::npos);

  glue::clear_npss_runtime();
}

}  // namespace
}  // namespace npss
