// Unit tests of the NPSS glue layer: station/energy value conversion, the
// TESS flow modules' widget panels and port behaviour, interactive
// re-placement (changing the machine widget mid-session re-contacts the
// Manager on a fresh line), degradation to local physics when a placed
// module's machine crashes, and the runtime context guard rails.
#include <gtest/gtest.h>

#include "flow/network.hpp"
#include "npss/modules.hpp"
#include "npss/network_driver.hpp"
#include "npss/procedures.hpp"
#include "npss/runtime.hpp"
#include "obs/metrics.hpp"

namespace npss::glue {
namespace {

TEST(StationValues, RoundTripThroughRecord) {
  tess::GasState s{102.5, 414.2, 3.1e5, 0.021};
  uts::Value v = station_to_value(s);
  EXPECT_NO_THROW(uts::check_value(station_type(), v));
  tess::GasState back = station_from_value(v);
  EXPECT_DOUBLE_EQ(back.W, s.W);
  EXPECT_DOUBLE_EQ(back.Tt, s.Tt);
  EXPECT_DOUBLE_EQ(back.Pt, s.Pt);
  EXPECT_DOUBLE_EQ(back.far, s.far);
}

TEST(StationValues, EnergyArrayRoundTrip) {
  tess::StationArray e{1.3e7, 102.0, 1.27e5, 0.86};
  uts::Value v = station_value(e);
  EXPECT_NO_THROW(uts::check_value(energy_type(), v));
  tess::StationArray back = station_from(v);
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(back[i], e[i]);
}

TEST(TessModules, WidgetPanelsMatchThePaper) {
  register_tess_modules();
  flow::Network net;
  flow::Module& shaft = net.add("shaft", "tess-shaft");
  // Figure 2's low speed shaft control panel.
  EXPECT_TRUE(shaft.has_widget("moment-inertia"));
  EXPECT_TRUE(shaft.has_widget("spool-speed"));
  EXPECT_TRUE(shaft.has_widget("spool-speed-op"));
  // The §3.3 placement widgets on every adapted module.
  for (const char* type :
       {"tess-shaft", "tess-duct", "tess-combustor", "tess-nozzle"}) {
    flow::Module& m = net.add(std::string("m-") + type, type);
    EXPECT_TRUE(m.has_widget("machine")) << type;
    EXPECT_TRUE(m.has_widget("path")) << type;
    EXPECT_EQ(m.widget("machine").text(), kLocalMachine) << type;
  }
  // ...but not on the unadapted ones.
  flow::Module& fan = net.add("fan", "tess-compressor");
  EXPECT_FALSE(fan.has_widget("machine"));
}

TEST(TessModules, CompressorNeedsAValidShaftReference) {
  register_tess_modules();
  flow::Network net;
  flow::Module& comp = net.add("comp", "tess-compressor");
  net.add("inlet", "tess-inlet");
  net.connect("inlet", "out", "comp", "in");
  comp.widget("shaft").set_text("no-such-module");
  EXPECT_THROW(net.evaluate(), util::GraphError);
  // Pointing it at a non-shaft module is also diagnosed.
  net.add("other", "tess-inlet");
  comp.widget("shaft").set_text("other");
  EXPECT_THROW(net.evaluate(), util::GraphError);
}

TEST(TessModules, BrowserWidgetSelectsPerformanceMaps) {
  register_tess_modules();
  flow::Network net;
  net.add("sys", "tess-system");
  flow::Module& inlet = net.add("inlet", "tess-inlet");
  flow::Module& shaft = net.add("shaft", "tess-shaft");
  flow::Module& comp = net.add("comp", "tess-compressor");
  net.connect("inlet", "out", "comp", "in");
  comp.widget("shaft").set_text("shaft");
  shaft.widget("spool-speed").set_real(10400.0);
  inlet.widget("W").set_real(100.0);

  comp.widget("map").set_text("f100_fan.map");
  net.evaluate();
  double pr_fan = station_from_value(*comp.outputs()[0].value).Pt /
                  station_from_value(*inlet.outputs()[0].value).Pt;

  comp.widget("map").set_text("f100_hpc.map");
  net.evaluate();
  double pr_hpc = station_from_value(*comp.outputs()[0].value).Pt /
                  station_from_value(*inlet.outputs()[0].value).Pt;
  EXPECT_NE(pr_fan, pr_hpc) << "the browser selection changes the physics";

  comp.widget("map").set_text("missing.map");
  EXPECT_THROW(net.evaluate(), util::ModelError);
}

TEST(TessModules, RemoteComputationNeedsConfiguredRuntime) {
  clear_npss_runtime();
  register_tess_modules();
  flow::Network net;
  flow::Module& duct = net.add("duct", "tess-duct");
  net.add("inlet", "tess-inlet");
  net.connect("inlet", "out", "duct", "in");
  // With no runtime the machine widget offers only <local>...
  EXPECT_THROW(duct.widget("machine").select("cray"), util::WidgetError);
  // ...and local computation works fine.
  EXPECT_NO_THROW(net.evaluate());
}

class PlacementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_.add_machine("ws", "sun-sparc10", "a");
    cluster_.add_machine("m1", "sgi-4d480", "a");
    cluster_.add_machine("m2", "ibm-rs6000", "a");
    install_tess_procedures_everywhere(cluster_);
    system_ = std::make_unique<rpc::SchoonerSystem>(cluster_, "ws");
    configure_npss_runtime(cluster_, *system_, "ws");
  }
  void TearDown() override { clear_npss_runtime(); }

  sim::Cluster cluster_;
  std::unique_ptr<rpc::SchoonerSystem> system_;
};

TEST_F(PlacementTest, ChangingTheMachineWidgetRecontacts) {
  register_tess_modules();
  flow::Network net;
  flow::Module& duct = net.add("duct", "tess-duct");
  net.add("inlet", "tess-inlet");
  net.connect("inlet", "out", "duct", "in");

  duct.widget("machine").select("m1");
  net.evaluate();
  const auto after_first = system_->stats();
  EXPECT_EQ(after_first.processes_started, 1u);

  // Interactive user placement (§4.2): pick another machine; the module
  // quits its old line and contacts a new one.
  duct.widget("machine").select("m2");
  net.evaluate();
  const auto after_second = system_->stats();
  EXPECT_EQ(after_second.processes_started, 2u);
  EXPECT_EQ(after_second.lines_shut_down,
            after_first.lines_shut_down + 1);

  // Back to local: destroy() on removal quits the remaining line.
  const auto before_removal = system_->stats().lines_shut_down;
  net.remove("duct");
  EXPECT_EQ(system_->stats().lines_shut_down, before_removal + 1);
}

TEST_F(PlacementTest, CrashedMachineDegradesTheDuctToLocalPhysics) {
  // The flow-module fault path: a placed duct whose machine crashes
  // computes its output with the local physics and counts one degraded
  // call; with local fallback off the same evaluation raises instead.
  register_tess_modules();
  const bool obs_was_on = obs::enabled();
  obs::set_enabled(true);
  obs::Counter& degraded =
      obs::Registry::global().counter("npss.remote.degraded_calls");
  auto output = [](const flow::Module& m, const std::string& port) {
    for (const flow::OutputPort& p : m.outputs()) {
      if (p.name == port) return tess::to_array(station_from_value(*p.value));
    }
    ADD_FAILURE() << "no output port " << port;
    return tess::StationArray{};
  };
  flow::Network net;
  flow::Module& duct = net.add("duct", "tess-duct");
  flow::Module& inlet = net.add("inlet", "tess-inlet");
  net.connect("inlet", "out", "duct", "in");
  duct.widget("machine").select("m1");
  net.evaluate();
  const std::uint64_t before = degraded.value();

  ASSERT_GT(cluster_.crash_machine("m1"), 0);
  net.evaluate();
  EXPECT_EQ(degraded.value(), before + 1);
  EXPECT_EQ(output(duct, "out"),
            tess::ComponentHooks::local().duct(0, output(inlet, "out"),
                                               duct.widget("dp").real()));

  npss_runtime().local_fallback = false;
  EXPECT_THROW(net.evaluate(), util::Error);
  EXPECT_EQ(degraded.value(), before + 1);
  obs::set_enabled(obs_was_on);
}

TEST_F(PlacementTest, ZoomedDuctPathWorksInTheNetwork) {
  register_tess_modules();
  flow::Network net;
  F100NetworkNames names = build_f100_network(net);
  net.module(names.tailpipe).widget("machine").select("m1");
  net.module(names.tailpipe).widget("path").set_text(kHifiDuctPath);
  NetworkEngine engine(net);
  engine.set_solver_tolerances(5e-6, 1e-4);
  const tess::Performance zoomed =
      engine.balance(1.0, tess::FlightCondition{}).performance;
  EXPECT_GT(zoomed.thrust, 0.0);

  // The level-1 network for comparison.
  flow::Network net1;
  build_f100_network(net1);
  NetworkEngine engine1(net1);
  const tess::Performance level1 =
      engine1.balance(1.0, tess::FlightCondition{}).performance;
  EXPECT_NEAR(zoomed.thrust / level1.thrust, 1.0, 0.05);
}

}  // namespace
}  // namespace npss::glue
