// Remote-overlap benchmark, in wall-clock time, written to
// BENCH_scheduler.json: a Table-2-style placement of two independent
// remote procedures on different machines. Each remote handler performs
// real wall-clock work (the remote machine computes while the caller
// waits), so issuing both calls via call_async overlaps the waits, while
// the conventional sequential calls pay them back-to-back. The flow
// executive itself is sequential; call_async is its one overlap mechanism.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/testbed.hpp"
#include "rpc/client.hpp"
#include "rpc/host.hpp"
#include "uts/spec.hpp"

namespace npss::bench {
namespace {

using clock_type = std::chrono::steady_clock;

double elapsed_ms(clock_type::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - t0)
      .count();
}

const char* kSpinSpec = R"(
export spin prog(
    "ms" val integer,
    "done" res integer)
)";

constexpr const char* kSpinPath = "/npss/bin/bench-spin";

sim::ProgramImage spin_image() {
  return rpc::make_procedure_image(
      kSpinSpec, {{"spin", [](rpc::ProcCall& call) {
                     const std::int64_t ms = call.integer("ms");
                     // A fiber sleep: the other host's fiber runs
                     // meanwhile, as the two remote machines would.
                     sim::sleep_for(std::chrono::milliseconds(ms));
                     call.set("done", uts::Value::integer(ms));
                   }}},
      {});
}

struct OverlapResult {
  double sequential_ms;
  double overlapped_ms;
};

OverlapResult run_overlap(int work_ms) {
  Testbed bed;
  const std::string spin_import =
      uts::export_to_import_text(uts::parse_spec(kSpinSpec));
  // Two independent remote components on different LeRC machines, driven
  // from the Arizona workstation — each on its own line, the
  // RemoteBackend arrangement.
  const char* machines[] = {"sparc-lerc", "rs6000-lerc"};
  auto session = bed.schooner->make_session("sparc-ua");
  std::vector<std::unique_ptr<rpc::Line>> clients;
  std::vector<std::unique_ptr<rpc::RemoteProc>> procs;
  for (const char* machine : machines) {
    bed.cluster.install_image(machine, kSpinPath, spin_image());
    auto client = session->open_line(
        rpc::LineOptions{}.with_name(std::string("bench-spin on ") + machine));
    client->contact_schx(machine, kSpinPath);
    procs.push_back(client->import_proc("spin", spin_import));
    clients.push_back(std::move(client));
  }

  const uts::ValueList args = {uts::Value::integer(work_ms),
                               uts::Value::integer(0)};
  const rpc::CallOptions legacy = rpc::CallOptions::legacy();
  // Bind + warm both lines before timing.
  for (auto& p : procs) p->call(args, legacy).values_or_raise();

  OverlapResult r{};
  {
    const auto t0 = clock_type::now();
    for (auto& p : procs) p->call(args, legacy).values_or_raise();
    r.sequential_ms = elapsed_ms(t0);
  }
  {
    const auto t0 = clock_type::now();
    std::vector<rpc::PendingCall> pending;
    for (auto& p : procs) pending.push_back(p->call_async(args, legacy));
    for (auto& call : pending) call.get().values_or_raise();
    r.overlapped_ms = elapsed_ms(t0);
  }
  for (auto& c : clients) c->quit();
  return r;
}

}  // namespace
}  // namespace npss::bench

int main() {
  using namespace npss::bench;

  print_header("Remote overlap: 2 independent remote components");
  const int kWorkMs = 50;
  OverlapResult ov = run_overlap(kWorkMs);
  std::printf("2 remote spins x %d ms: sequential %.1f ms, call_async "
              "%.1f ms (%.2fx)\n",
              kWorkMs, ov.sequential_ms, ov.overlapped_ms,
              ov.sequential_ms / ov.overlapped_ms);

  std::FILE* f = std::fopen("BENCH_scheduler.json", "w");
  if (f) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"benchmark\": \"scheduler\",\n");
    std::fprintf(f, "  \"remote_overlap\": {\n");
    std::fprintf(f, "    \"components\": 2,\n");
    std::fprintf(f, "    \"work_ms\": %d,\n", kWorkMs);
    std::fprintf(f, "    \"sequential_ms\": %.2f,\n", ov.sequential_ms);
    std::fprintf(f, "    \"overlapped_ms\": %.2f,\n", ov.overlapped_ms);
    std::fprintf(f, "    \"speedup\": %.2f\n",
                 ov.sequential_ms / ov.overlapped_ms);
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nBENCH_scheduler.json written\n");
  }
  return 0;
}
