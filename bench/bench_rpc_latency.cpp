// A7 — RPC round-trip cost envelope (the Figure 1 structure, measured).
//
// One remote procedure echoes arrays of increasing size; the harness
// reports deterministic simulated round-trip time per call for each of the
// paper's three network classes. The shape that must hold: on the WAN,
// latency dominates for TESS-sized payloads (hundreds of bytes), which is
// exactly why Schooner's coarse-grained RPC decomposition is viable across
// the 1993 Internet while fine-grained traffic would not be (§3.1).
#include <cstdio>
#include <string>

#include "bench/testbed.hpp"

namespace npss {
namespace {

const int kSizes[] = {1, 16, 64, 256, 1024, 4096};

std::string echo_spec(int n) {
  return "export echo prog(\"data\" var array[" + std::to_string(n) +
         "] of float)";
}

int run() {
  bench::print_header(
      "A7 — RPC round trip vs payload size across network classes\n"
      "(simulated time per call, one var-array parameter, both directions)");

  std::printf("%-10s", "floats");
  for (const char* net :
       {"loopback", "ethernet-lan", "campus-multigateway", "internet-wan"}) {
    std::printf(" %22s", net);
  }
  std::printf("\n");
  bench::print_rule();

  // Raw transport round trip first (kPing/kPong, no marshaling): the
  // network share of every row below. marshal+dispatch ≈ row − rtt.
  std::printf("%-10s", "rtt");
  for (const char* net : {"loopback", "ethernet-lan", "campus-multigateway",
                          "internet-wan"}) {
    sim::Cluster cluster;
    cluster.add_machine("client", "sun-sparc10", "a");
    cluster.add_machine("server", "ibm-rs6000", "b");
    cluster.set_site_link("a", "b", sim::link_profile(net));
    cluster.install_image(
        "server", "/bin/echo",
        rpc::make_procedure_image(echo_spec(1),
                                  {{"echo", [](rpc::ProcCall&) {}}}));
    rpc::SchoonerSystem schooner(cluster, "client");
    auto session = schooner.make_session("client");
    auto client = session->open_line(rpc::LineOptions{}.with_name("latency"));
    client->contact_schx("server", "/bin/echo");
    auto echo = client->import_proc(
        "echo", "import echo prog(\"data\" var array[1] of float)");
    uts::ValueList args = {uts::Value::real_array({1.5})};
    const rpc::CallOptions legacy = rpc::CallOptions::legacy();
    echo->call(args, legacy).values_or_raise();  // bind + warm
    const int reps = 10;
    util::SimTime total = 0;
    for (int i = 0; i < reps; ++i) total += echo->ping();
    std::printf(" %22.3f", util::sim_to_ms(total) / reps);
  }
  std::printf("\n");

  for (int n : kSizes) {
    std::printf("%-10d", n);
    for (const char* net : {"loopback", "ethernet-lan",
                            "campus-multigateway", "internet-wan"}) {
      sim::Cluster cluster;
      cluster.add_machine("client", "sun-sparc10", "a");
      cluster.add_machine("server", "ibm-rs6000", "b");
      cluster.set_site_link("a", "b", sim::link_profile(net));
      cluster.install_image(
          "server", "/bin/echo",
          rpc::make_procedure_image(echo_spec(n), {{"echo", [](rpc::ProcCall&) {
                                      // echo: var params flow back as-is
                                    }}}));
      rpc::SchoonerSystem schooner(cluster, "client");
      auto session = schooner.make_session("client");
      auto client =
          session->open_line(rpc::LineOptions{}.with_name("latency"));
      client->contact_schx("server", "/bin/echo");
      auto echo = client->import_proc(
          "echo", "import echo prog(\"data\" var array[" +
                      std::to_string(n) + "] of float)");
      uts::ValueList args = {
          uts::Value::real_array(std::vector<double>(n, 1.5))};
      const rpc::CallOptions legacy = rpc::CallOptions::legacy();
      echo->call(args, legacy).values_or_raise();  // bind + warm
      auto& clock = client->io().endpoint().clock();
      const util::SimTime before = clock.now();
      const int reps = 10;
      for (int i = 0; i < reps; ++i) {
        echo->call(args, legacy).values_or_raise();
      }
      const double per_call_ms =
          util::sim_to_ms((clock.now() - before)) / reps;
      std::printf(" %22.3f", per_call_ms);
    }
    std::printf("\n");
  }
  std::printf(
      "\nShape checks: rows grow with payload; for small payloads the WAN\n"
      "column is ~latency-bound (flat), so coarse-grained calls amortize\n"
      "the wire and fine-grained ones cannot. The rtt row is the pure\n"
      "network share; subtract it from any row to isolate marshal and\n"
      "dispatch cost.\n");
  return 0;
}

}  // namespace
}  // namespace npss

int main() { return npss::run(); }
