// Monitoring tests — §2.3: "monitor the simulation through selectively
// viewing graphical results or monitoring particular values from selected
// component codes". Monitor and strip-chart sinks attach to engine-module
// outputs in the F100 network and record a transient.
#include <gtest/gtest.h>

#include "flow/basic_modules.hpp"
#include "npss/network_driver.hpp"
#include "npss/runtime.hpp"

namespace npss {
namespace {

TEST(StripChart, RendersRampWithExtremes) {
  flow::Network net;
  auto& chart = static_cast<flow::StripChartModule&>(
      net.add("chart", std::make_unique<flow::StripChartModule>()));
  flow::register_basic_modules();
  net.add("src", "constant");
  net.connect("src", "out", "chart", "in");
  for (int i = 0; i <= 20; ++i) {
    net.module("src").widget("value").set_real(100.0 + 5.0 * i);
    net.evaluate();
  }
  EXPECT_EQ(chart.samples().size(), 21u);
  std::string rendered = chart.render();
  EXPECT_NE(rendered.find("200"), std::string::npos);  // max label
  EXPECT_NE(rendered.find("100"), std::string::npos);  // min label
  EXPECT_NE(rendered.find('#'), std::string::npos);
  chart.reset();
  EXPECT_NE(chart.render().find("no samples"), std::string::npos);
}

TEST(StripChart, FlatSignalDoesNotDivideByZero) {
  flow::Network net;
  auto& chart = static_cast<flow::StripChartModule&>(
      net.add("chart", std::make_unique<flow::StripChartModule>()));
  flow::register_basic_modules();
  net.add("src", "constant");
  net.connect("src", "out", "chart", "in");
  net.module("src").widget("value").set_real(42.0);
  net.evaluate();
  net.evaluate();
  EXPECT_NE(chart.render().find('#'), std::string::npos);
}

TEST(Monitoring, SinksAttachToEngineModuleOutputs) {
  sim::Cluster cluster;
  cluster.add_machine("ws", "sun-sparc10", "a");
  rpc::SchoonerSystem schooner(cluster, "ws");
  glue::configure_npss_runtime(cluster, schooner, "ws");

  flow::Network net;
  glue::F100NetworkNames names = glue::build_f100_network(net);

  // The user drags viewer modules in and wires them to the values of
  // interest: HPC surge margin and nozzle thrust.
  flow::register_basic_modules();
  net.add("sm-view", "monitor");
  net.add("thrust-chart", "strip-chart");
  net.connect(names.hpc, "surge-margin", "sm-view", "in");
  net.connect(names.nozzle, "thrust", "thrust-chart", "in");

  glue::NetworkEngine engine(net);
  const tess::SteadyResult steady =
      engine.balance(1.0, tess::FlightCondition{});
  const std::vector<tess::TransientSample> history =
      engine
          .transient(steady.performance.speeds,
                     [](double t) { return t < 0.05 ? 1.0 : 1.2; },
                     tess::FlightCondition{}, 0.5, 0.05,
                     engine.system().transient_method())
          .history;

  auto& monitor = static_cast<flow::MonitorModule&>(net.module("sm-view"));
  auto& chart =
      static_cast<flow::StripChartModule&>(net.module("thrust-chart"));
  // The sinks saw every scheduler execution (solver iterations included).
  EXPECT_GT(monitor.history().size(), history.size());
  EXPECT_GT(chart.samples().size(), history.size());
  // The monitored surge margin stayed physical throughout.
  for (double sm : monitor.history()) {
    EXPECT_GE(sm, 0.0);
    EXPECT_LE(sm, 1.0);
  }
  glue::clear_npss_runtime();
}

}  // namespace
}  // namespace npss
