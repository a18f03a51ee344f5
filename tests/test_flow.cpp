// Tests of the flow executive (the AVS stand-in): widget semantics, module
// lifecycle, network editing (type checks, cycles, removal), scheduling
// (full and incremental), and the saved-network text format.
#include <gtest/gtest.h>

#include <mutex>
#include <stdexcept>
#include <thread>

#include "flow/basic_modules.hpp"
#include "flow/network.hpp"

namespace npss::flow {
namespace {

/// `prefix` followed by `i`, built by appending: g++ 12 at -O3 reports a
/// false -Wrestrict overlap for `"literal" + std::to_string(i)` once the
/// concatenation is inlined.
std::string numbered(const char* prefix, int i) {
  std::string s = prefix;
  s += std::to_string(i);
  return s;
}

// --- Widgets ----------------------------------------------------------------------

TEST(Widgets, DialEnforcesBounds) {
  Widget dial("power", WidgetKind::kDial, uts::Value::real(0.5), {}, 0.0,
              1.0);
  dial.set_real(0.75);
  EXPECT_DOUBLE_EQ(dial.real(), 0.75);
  EXPECT_THROW(dial.set_real(1.5), util::WidgetError);
  EXPECT_THROW(dial.set_real(-0.1), util::WidgetError);
  EXPECT_THROW(dial.set_text("x"), util::WidgetError);
}

TEST(Widgets, RadioButtonsRestrictToChoices) {
  Widget radio("machine", WidgetKind::kRadioButtons,
               uts::Value::str("local"), {"local", "cray", "rs6000"});
  radio.select("cray");
  EXPECT_EQ(radio.text(), "cray");
  EXPECT_THROW(radio.select("vax"), util::WidgetError);
  EXPECT_THROW(radio.set_real(1.0), util::WidgetError);
}

TEST(Widgets, ChangeTrackingAndClear) {
  Widget t("path", WidgetKind::kTypeinString, uts::Value::str("/npss"));
  EXPECT_TRUE(t.changed());  // initial value counts
  t.clear_changed();
  EXPECT_FALSE(t.changed());
  t.set_text("/other");
  EXPECT_TRUE(t.changed());
}

TEST(Widgets, SetFromTextParsesPerKind) {
  Widget d("d", WidgetKind::kTypeinReal, uts::Value::real(0));
  d.set_from_text("3.25");
  EXPECT_DOUBLE_EQ(d.real(), 3.25);
  Widget i("i", WidgetKind::kTypeinInteger, uts::Value::integer(0));
  i.set_from_text("-7");
  EXPECT_EQ(i.integer(), -7);
  Widget g("g", WidgetKind::kToggle, uts::Value::integer(0));
  g.set_from_text("on");
  EXPECT_TRUE(g.on());
}

// --- Modules and networks --------------------------------------------------------------

class DoublerModule final : public Module {
 public:
  std::string type_name() const override { return "doubler"; }
  void spec(ModuleSpec& spec) override {
    spec.input("in", uts::Type::real_double());
    spec.output("out", uts::Type::real_double());
  }
  void compute() override {
    ++computes;
    out_real("out", has_in("in") ? 2.0 * in_real("in") : 0.0);
  }
  int computes = 0;
};

class StringerModule final : public Module {
 public:
  std::string type_name() const override { return "stringer"; }
  void spec(ModuleSpec& spec) override {
    spec.output("out", uts::Type::string());
  }
  void compute() override { out("out", uts::Value::str("s")); }
};

TEST(Network, EvaluatePropagatesInTopologicalOrder) {
  register_basic_modules();
  Network net;
  net.add("src", "constant");
  auto& d1 = static_cast<DoublerModule&>(
      net.add("d1", std::make_unique<DoublerModule>()));
  auto& d2 = static_cast<DoublerModule&>(
      net.add("d2", std::make_unique<DoublerModule>()));
  net.add("sink", "monitor");
  net.connect("src", "out", "d1", "in");
  net.connect("d1", "out", "d2", "in");
  net.connect("d2", "out", "sink", "in");

  net.module("src").widget("value").set_real(5.0);
  net.evaluate();
  auto& monitor = static_cast<MonitorModule&>(net.module("sink"));
  EXPECT_DOUBLE_EQ(monitor.last(), 20.0);
  EXPECT_EQ(d1.computes, 1);
  EXPECT_EQ(d2.computes, 1);
}

TEST(Network, RunChangedSkipsQuietModules) {
  register_basic_modules();
  Network net;
  net.add("a", "constant");
  net.add("b", "constant");
  auto& da = static_cast<DoublerModule&>(
      net.add("da", std::make_unique<DoublerModule>()));
  auto& db = static_cast<DoublerModule&>(
      net.add("db", std::make_unique<DoublerModule>()));
  net.connect("a", "out", "da", "in");
  net.connect("b", "out", "db", "in");
  net.evaluate();
  da.computes = db.computes = 0;

  // Touch only branch a: branch b must stay quiet.
  net.module("a").widget("value").set_real(1.0);
  int executed = net.run_changed();
  EXPECT_EQ(executed, 2);  // a + da
  EXPECT_EQ(da.computes, 1);
  EXPECT_EQ(db.computes, 0);

  // Nothing changed: nothing runs.
  EXPECT_EQ(net.run_changed(), 0);
}

TEST(Network, ConnectTypeChecks) {
  Network net;
  net.add("s", std::make_unique<StringerModule>());
  net.add("d", std::make_unique<DoublerModule>());
  EXPECT_THROW(net.connect("s", "out", "d", "in"), util::GraphError);
}

TEST(Network, CycleRejected) {
  Network net;
  net.add("d1", std::make_unique<DoublerModule>());
  net.add("d2", std::make_unique<DoublerModule>());
  net.connect("d1", "out", "d2", "in");
  EXPECT_THROW(net.connect("d2", "out", "d1", "in"), util::GraphError);
  EXPECT_THROW(net.connect("d1", "out", "d1", "in"), util::GraphError);
}

TEST(Network, SingleSourcePerInput) {
  Network net;
  net.add("a", std::make_unique<DoublerModule>());
  net.add("b", std::make_unique<DoublerModule>());
  net.add("c", std::make_unique<DoublerModule>());
  net.connect("a", "out", "c", "in");
  EXPECT_THROW(net.connect("b", "out", "c", "in"), util::GraphError);
  net.disconnect("c", "in");
  EXPECT_NO_THROW(net.connect("b", "out", "c", "in"));
}

// Regression: disconnect() must invalidate the cached wavefront levels —
// an edge removal changes longest-path depths, so an evaluate() after a
// disconnect has to run against the rebuilt schedule, not the stale one.
TEST(Network, DisconnectRebuildsWavefrontsBeforeNextEvaluate) {
  register_basic_modules();
  Network net;
  net.add("src", "constant");
  auto& d1 = static_cast<DoublerModule&>(
      net.add("d1", std::make_unique<DoublerModule>()));
  auto& d2 = static_cast<DoublerModule&>(
      net.add("d2", std::make_unique<DoublerModule>()));
  net.connect("src", "out", "d1", "in");
  net.connect("d1", "out", "d2", "in");

  const auto out_of = [&](const char* name) {
    const OutputPort& port = net.module(name).outputs().front();
    return port.value ? port.value->as_real() : 0.0;
  };

  net.module("src").widget("value").set_real(3.0);
  net.evaluate();  // builds the level cache: {src} {d1} {d2}
  ASSERT_EQ(net.wavefronts().size(), 3u);
  EXPECT_DOUBLE_EQ(out_of("d2"), 12.0);

  // Cut the chain and rewire d2 directly to the source: d2's depth drops
  // from 2 to 1, so the level structure must change shape.
  net.disconnect("d2", "in");
  net.connect("src", "out", "d2", "in");
  const auto& levels = net.wavefronts();
  ASSERT_EQ(levels.size(), 2u);
  EXPECT_EQ(levels[1].size(), 2u);  // d1 and d2 now peers

  d1.computes = d2.computes = 0;
  net.evaluate();
  EXPECT_EQ(d1.computes, 1);
  EXPECT_EQ(d2.computes, 1);
  EXPECT_DOUBLE_EQ(out_of("d2"), 6.0);  // src*2, no longer src*4

  // Fully orphaning an input also reschedules; the input port keeps its
  // last delivered value, so the doubler recomputes from that.
  net.disconnect("d2", "in");
  EXPECT_EQ(net.wavefronts().size(), 2u);
  net.evaluate();
  EXPECT_DOUBLE_EQ(out_of("d2"), 6.0);
}

TEST(Network, BadNamesDiagnosed) {
  Network net;
  net.add("a", std::make_unique<DoublerModule>());
  EXPECT_THROW(net.connect("a", "nope", "a", "in"), util::GraphError);
  EXPECT_THROW(net.connect("zz", "out", "a", "in"), util::GraphError);
  EXPECT_THROW((void)net.module("zz"), util::GraphError);
  EXPECT_THROW(net.add("a", std::make_unique<DoublerModule>()),
               util::GraphError);
  EXPECT_THROW(net.remove("zz"), util::GraphError);
}

class DestroyProbe final : public Module {
 public:
  explicit DestroyProbe(int& counter) : counter_(&counter) {}
  std::string type_name() const override { return "destroy-probe"; }
  void spec(ModuleSpec&) override {}
  void compute() override {}
  void destroy() override { ++*counter_; }

 private:
  int* counter_;
};

TEST(Network, RemoveAndClearRunDestroy) {
  int destroyed = 0;
  Network net;
  net.add("p1", std::make_unique<DestroyProbe>(destroyed));
  net.add("p2", std::make_unique<DestroyProbe>(destroyed));
  net.remove("p1");
  EXPECT_EQ(destroyed, 1);
  net.clear();
  EXPECT_EQ(destroyed, 2);
  EXPECT_FALSE(net.has("p2"));
}

TEST(Network, RemovingUpstreamDropsDownstreamSources) {
  register_basic_modules();
  Network net;
  net.add("src", "constant");
  net.add("d", std::make_unique<DoublerModule>());
  net.connect("src", "out", "d", "in");
  net.remove("src");
  EXPECT_TRUE(net.connections().empty());
  // The downstream input is free to be rewired.
  net.add("src2", "constant");
  EXPECT_NO_THROW(net.connect("src2", "out", "d", "in"));
}

TEST(Network, SaveLoadRoundTrip) {
  register_basic_modules();
  Network net;
  net.add("src", "constant");
  net.add("sink", "monitor");
  net.connect("src", "out", "sink", "in");
  net.module("src").widget("value").set_real(6.5);
  std::string text = net.save_to_text();

  Network again;
  again.load_from_text(text);
  EXPECT_TRUE(again.has("src"));
  EXPECT_TRUE(again.has("sink"));
  EXPECT_DOUBLE_EQ(again.module("src").widget("value").real(), 6.5);
  again.evaluate();
  EXPECT_DOUBLE_EQ(
      static_cast<MonitorModule&>(again.module("sink")).last(), 6.5);
}

TEST(Network, LoadRejectsGarbageAndNonEmpty) {
  register_basic_modules();
  Network net;
  EXPECT_THROW(net.load_from_text("frobnicate x y"), util::GraphError);
  Network full;
  full.add("src", "constant");
  EXPECT_THROW(full.load_from_text("module a constant"), util::GraphError);
}

TEST(Network, FactoryKnowsRegisteredTypes) {
  register_basic_modules();
  ModuleFactory& f = ModuleFactory::instance();
  EXPECT_TRUE(f.knows("constant"));
  EXPECT_TRUE(f.knows("monitor"));
  EXPECT_FALSE(f.knows("frobnicator"));
  EXPECT_THROW((void)f.make("frobnicator"), util::GraphError);
}

TEST(Network, CsvTraceCollectsRows) {
  Network net;
  auto& trace = static_cast<CsvTraceModule&>(net.add(
      "trace", std::make_unique<CsvTraceModule>(
                   std::vector<std::string>{"thrust", "t4"})));
  register_basic_modules();
  net.add("c1", "constant");
  net.add("c2", "constant");
  net.connect("c1", "out", "trace", "thrust");
  net.connect("c2", "out", "trace", "t4");
  net.module("c1").widget("value").set_real(100.0);
  net.module("c2").widget("value").set_real(1600.0);
  net.evaluate();
  net.evaluate();
  EXPECT_EQ(trace.row_count(), 2u);
  EXPECT_NE(trace.csv().find("thrust,t4"), std::string::npos);
  EXPECT_NE(trace.csv().find("100,1600"), std::string::npos);
}

// --- Wavefront scheduler ---------------------------------------------------------

/// Records, into a log shared with its peers, its instance name and the
/// thread its compute ran on. The log is locked so that an executive that
/// does run peers concurrently fails the order checks, not the process.
class ThreadRecorder final : public Module {
 public:
  struct Log {
    std::mutex mu;
    std::vector<std::pair<std::string, std::thread::id>> entries;
  };
  explicit ThreadRecorder(Log& log) : log_(&log) {}
  std::string type_name() const override { return "thread-recorder"; }
  void spec(ModuleSpec& spec) override {
    spec.output("out", uts::Type::real_double());
  }
  void compute() override {
    {
      std::lock_guard<std::mutex> lock(log_->mu);
      log_->entries.emplace_back(instance_name(), std::this_thread::get_id());
    }
    out_real("out", 1.0);
  }

 private:
  Log* log_;
};

TEST(Wavefront, LevelsGroupIndependentModules) {
  register_basic_modules();
  Network net;
  net.add("src", "constant");
  net.add("d1", std::make_unique<DoublerModule>());
  net.add("d2", std::make_unique<DoublerModule>());
  net.add("join", std::make_unique<DoublerModule>());
  net.connect("src", "out", "d1", "in");
  net.connect("src", "out", "d2", "in");
  net.connect("d1", "out", "join", "in");

  const auto& levels = net.wavefronts();
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_EQ(levels[0], std::vector<std::string>{"src"});
  EXPECT_EQ(levels[1], (std::vector<std::string>{"d1", "d2"}));
  EXPECT_EQ(levels[2], std::vector<std::string>{"join"});

  // Editing invalidates the cached topology.
  net.add("late", std::make_unique<DoublerModule>());
  net.connect("d2", "out", "late", "in");
  EXPECT_EQ(net.wavefronts()[2],
            (std::vector<std::string>{"join", "late"}));
}

TEST(Wavefront, FanOutReachesEverySink) {
  register_basic_modules();
  Network net;
  net.add("src", "constant");
  for (int i = 0; i < 4; ++i) {
    const std::string name = numbered("d", i);
    net.add(name, std::make_unique<DoublerModule>());
    net.connect("src", "out", name, "in");
    net.add(name + "s", std::make_unique<MonitorModule>());
    net.connect(name, "out", name + "s", "in");
  }
  net.module("src").widget("value").set_real(21.0);
  EXPECT_EQ(net.evaluate(), 9);
  for (int i = 0; i < 4; ++i) {
    const std::string sink = numbered("d", i) + "s";
    EXPECT_DOUBLE_EQ(static_cast<MonitorModule&>(net.module(sink)).last(),
                     42.0)
        << sink;
  }
}

TEST(Wavefront, LevelRunsOnTheCallingThreadInOrder) {
  ThreadRecorder::Log log;
  Network net;
  for (int i = 0; i < 4; ++i) {
    net.add(numbered("r", i), std::make_unique<ThreadRecorder>(log));
  }
  ASSERT_EQ(net.wavefronts().size(), 1u);
  const std::vector<std::string> level = net.wavefronts()[0];
  ASSERT_EQ(level.size(), 4u);

  EXPECT_EQ(net.evaluate(), 4);
  ASSERT_EQ(log.entries.size(), level.size());
  for (std::size_t i = 0; i < level.size(); ++i) {
    const auto& [name, thread] = log.entries[i];
    EXPECT_EQ(name, level[i]) << "compute " << i << " out of order";
    EXPECT_EQ(thread, std::this_thread::get_id())
        << name << " ran off the calling thread";
  }
}

/// Doubler whose compute throws while `fail` is set.
class FlakyModule final : public Module {
 public:
  std::string type_name() const override { return "flaky"; }
  void spec(ModuleSpec& spec) override {
    spec.input("in", uts::Type::real_double());
    spec.output("out", uts::Type::real_double());
  }
  void compute() override {
    if (fail) throw std::runtime_error("flaky compute failed");
    out_real("out", 2.0 * in_real("in"));
  }
  bool fail = false;
};

TEST(Wavefront, ContinueOnErrorHoldsBackOnlyTheFailedModule) {
  register_basic_modules();
  Network net;
  net.add("src", "constant");
  auto& flaky = static_cast<FlakyModule&>(
      net.add("flaky", std::make_unique<FlakyModule>()));
  net.add("ok", std::make_unique<DoublerModule>());
  auto& flaky_sink =
      static_cast<MonitorModule&>(net.add("flaky_s", "monitor"));
  auto& ok_sink = static_cast<MonitorModule&>(net.add("ok_s", "monitor"));
  net.connect("src", "out", "flaky", "in");
  net.connect("src", "out", "ok", "in");
  net.connect("flaky", "out", "flaky_s", "in");
  net.connect("ok", "out", "ok_s", "in");
  net.module("src").widget("value").set_real(21.0);
  EXPECT_EQ(net.evaluate(), 5);

  flaky.fail = true;
  net.module("src").widget("value").set_real(5.0);
  EXPECT_THROW(net.evaluate(), std::runtime_error);

  net.set_continue_on_error(true);
  EXPECT_EQ(net.evaluate(), 4);
  ASSERT_EQ(net.module_errors().size(), 1u);
  EXPECT_EQ(net.module_errors()[0].first, "flaky");
  EXPECT_EQ(net.module_errors()[0].second, "flaky compute failed");
  // The failed module's sink keeps the last value it was sent; its peer's
  // branch carries the new one.
  EXPECT_DOUBLE_EQ(flaky_sink.last(), 42.0);
  EXPECT_DOUBLE_EQ(ok_sink.last(), 10.0);
}

TEST(Wavefront, AbortKeepsWhatTheLevelAlreadyPropagated) {
  register_basic_modules();
  Network net;
  net.add("src", "constant");
  for (int i = 0; i < 2; ++i) {
    const std::string name = numbered("f", i);
    net.add(name, std::make_unique<FlakyModule>());
    net.connect("src", "out", name, "in");
    net.add(name + "s", "monitor");
    net.connect(name, "out", name + "s", "in");
  }
  net.module("src").widget("value").set_real(21.0);
  EXPECT_EQ(net.evaluate(), 5);

  // Fail the second module of the level: the first has already run and
  // handed its output on when the throw aborts the pass.
  const std::vector<std::string> level = net.wavefronts()[1];
  ASSERT_EQ(level.size(), 2u);
  static_cast<FlakyModule&>(net.module(level[1])).fail = true;
  net.module("src").widget("value").set_real(5.0);
  EXPECT_THROW(net.evaluate(), std::runtime_error);

  EXPECT_DOUBLE_EQ(net.module(level[0] + "s").in_real("in"), 10.0);
  EXPECT_DOUBLE_EQ(net.module(level[1] + "s").in_real("in"), 42.0);
  // The abort stops the pass before the sinks' level runs.
  EXPECT_DOUBLE_EQ(
      static_cast<MonitorModule&>(net.module(level[0] + "s")).last(), 42.0);
}

TEST(Wavefront, RunChangedStillSkipsQuietBranches) {
  register_basic_modules();
  Network net;
  net.add("a", "constant");
  net.add("b", "constant");
  auto& da = static_cast<DoublerModule&>(
      net.add("da", std::make_unique<DoublerModule>()));
  auto& db = static_cast<DoublerModule&>(
      net.add("db", std::make_unique<DoublerModule>()));
  net.connect("a", "out", "da", "in");
  net.connect("b", "out", "db", "in");
  net.evaluate();
  da.computes = db.computes = 0;
  net.module("a").widget("value").set_real(2.0);
  EXPECT_EQ(net.run_changed(), 2);
  EXPECT_EQ(da.computes, 1);
  EXPECT_EQ(db.computes, 0);
}

TEST(Module, PortAccessErrors) {
  Network net;
  auto& d = static_cast<DoublerModule&>(
      net.add("d", std::make_unique<DoublerModule>()));
  EXPECT_THROW((void)d.in("in"), util::GraphError);     // no value yet
  EXPECT_THROW((void)d.in("nope"), util::GraphError);   // no such port
  EXPECT_THROW(d.out("nope", uts::Value::real(1)), util::GraphError);
  EXPECT_THROW(d.out("out", uts::Value::str("x")),
               util::TypeMismatchError);  // type-checked output
  EXPECT_THROW((void)d.widget("w"), util::WidgetError);
}

}  // namespace
}  // namespace npss::flow
