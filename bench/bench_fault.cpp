// Fault-tolerant call path under injected wan loss.
//
// Sweeps the drop rate on the internet-wan link and measures, for a
// retrying idempotent duct caller at UA against a LeRC server, the
// availability (fraction of calls that complete within the deadline) and
// the added virtual latency paid for retries — the curves the CallOptions
// defaults were tuned against. A second section crashes the server
// mid-run and records the migration-based failover. A third section kills
// the Manager *leader* with a 3-replica control plane and records the
// election + client re-bind transcript. Writes BENCH_fault.json next to
// the binary.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/testbed.hpp"
#include "rpc/calling.hpp"
#include "rpc/client.hpp"
#include "uts/value.hpp"

namespace npss::bench {
namespace {

using rpc::CallOptions;
using rpc::CallResult;
using uts::Value;

constexpr int kCallsPerPoint = 200;

CallOptions sweep_options() {
  CallOptions opts;
  opts.deadline_us = 10'000'000;  // 10 s of virtual time per call
  opts.max_attempts = 5;
  opts.idempotent = true;  // duct is pure
  opts.host_grace_ms = 25;
  return opts;
}

Value station_in() {
  return Value::real_array({102.0, 288.15, 101325.0, 20.0});
}

struct SweepPoint {
  double loss = 0.0;
  int ok = 0;
  int retried = 0;
  double mean_attempts = 0.0;
  double mean_virtual_us = 0.0;
  std::uint64_t dropped = 0;
};

SweepPoint run_point(double loss) {
  Testbed bed;
  auto session = bed.schooner->make_session("sparc-ua");
  auto client = session->open_line(rpc::LineOptions{}.with_name("fault-sweep"));
  client->contact_schx("sgi480-lerc", glue::kDuctPath);
  auto duct = client->import_proc("duct", glue::duct_import_spec());

  // Faults go live after the spawn handshake so setup cannot be dropped.
  if (loss > 0.0) {
    bed.cluster.set_fault_seed(1993);
    sim::FaultSpec spec;
    spec.drop_rate = loss;
    bed.cluster.set_link_faults("internet-wan", spec);
  }

  SweepPoint point;
  point.loss = loss;
  long attempts = 0;
  long virtual_us = 0;
  CallOptions opts = sweep_options();
  for (int i = 0; i < kCallsPerPoint; ++i) {
    CallResult r = duct->call(
        {station_in(), Value::real(0.02), station_in()}, opts);
    if (r.ok()) ++point.ok;
    if (r.attempt_count() > 1) ++point.retried;
    attempts += r.attempt_count();
    virtual_us += r.virtual_us;
  }
  point.mean_attempts = double(attempts) / kCallsPerPoint;
  point.mean_virtual_us = double(virtual_us) / kCallsPerPoint;
  point.dropped = bed.cluster.fault_stats().dropped;
  bed.cluster.clear_faults();
  client->quit();
  return point;
}

struct FailoverResult {
  bool recovered = false;
  bool failed_over = false;
  int attempts = 0;
  int post_failover_attempts = 0;
};

FailoverResult run_failover() {
  Testbed bed;
  auto session = bed.schooner->make_session("sparc-ua");
  auto client = session->open_line(
      rpc::LineOptions{}.with_name("fault-failover"));
  rpc::StartResult started =
      client->contact_schx("sgi480-lerc", glue::kDuctPath);
  auto duct = client->import_proc("duct", glue::duct_import_spec());

  CallOptions opts = sweep_options();
  opts.failover_machine = "sgi420-lerc";
  uts::ValueList args = {station_in(), Value::real(0.02), station_in()};
  (void)duct->call(args, opts);  // warm binding against the doomed server

  bed.cluster.crash_process(started.address);

  FailoverResult out;
  CallResult r = duct->call(args, opts);
  out.recovered = r.ok();
  out.failed_over = r.failed_over;
  out.attempts = r.attempt_count();
  CallResult again = duct->call(args, opts);
  out.post_failover_attempts = again.attempt_count();
  client->quit();
  return out;
}

/// One call in the leader-kill transcript: deterministic under one seed
/// (same seed => same election outcome => same attempt counts).
struct TranscriptEntry {
  int call = 0;
  bool ok = false;
  int attempts = 0;
};

struct MetaFailover {
  bool elected = false;
  bool digest_intact = false;
  bool rebound = false;
  int new_leader_index = -1;
  std::uint64_t elections = 0;
  double availability = 0.0;
  std::vector<TranscriptEntry> transcript;
};

/// Kill the Manager leader mid-run with a 3-replica control plane: a
/// follower must take over, clients must re-bind, and the export table
/// (spec hashes included) must survive byte-for-byte.
MetaFailover run_meta_failover() {
  sim::Cluster cluster;
  build_paper_testbed(cluster);
  glue::install_tess_procedures_everywhere(cluster);
  rpc::SystemOptions options;
  options.manager_replicas = 3;
  options.replica_machines = {"sgi420-lerc", "rs6000-lerc"};
  options.heartbeat_ms = 10;
  options.election_base_ms = 40;
  options.election_seed = 1993;
  rpc::SchoonerSystem schooner(cluster, "sparc-ua", options);

  auto session = schooner.make_session("sparc-ua");
  auto client = session->open_line(
      rpc::LineOptions{}.with_name("meta-failover"));
  client->contact_schx("sgi480-lerc", glue::kDuctPath);
  auto duct = client->import_proc("duct", glue::duct_import_spec());
  uts::ValueList args = {station_in(), Value::real(0.02), station_in()};
  CallOptions opts = sweep_options();
  (void)duct->call(args, opts);  // warm the binding

  // The replicated export-table fingerprint before the crash.
  auto view = [&](const std::string& address) {
    sim::EndpointPtr ep = cluster.create_endpoint("sparc-ua", "probe");
    rpc::MessageIo io(cluster, ep);
    rpc::Message who;
    who.kind = rpc::MessageKind::kMetaWhoIsLeader;
    rpc::Message ack = io.call_within(address, std::move(who), 500);
    cluster.retire_endpoint(ep->address());
    return ack;
  };
  const auto& replicas = schooner.manager_replica_addresses();
  const std::string digest_before = view(replicas[0]).b;

  cluster.crash_process(replicas[0]);

  // Availability through the election: the data plane never depends on
  // the Manager, so bound calls keep completing while followers vote.
  MetaFailover out;
  int ok = 0;
  const int kCalls = 30;
  for (int i = 0; i < kCalls; ++i) {
    CallResult r = duct->call(args, opts);
    if (r.ok()) ++ok;
    out.transcript.push_back({i, r.ok(), r.attempt_count()});
  }
  out.availability = double(ok) / kCalls;

  // Find the elected follower and compare its rebuilt export table.
  sim::EndpointPtr ep = cluster.create_endpoint("sparc-ua", "probe");
  rpc::MessageIo io(cluster, ep);
  std::string leader = rpc::discover_manager_leader(
      io, {replicas[1], replicas[2]}, /*rounds=*/200);
  cluster.retire_endpoint(ep->address());
  out.elected = !leader.empty();
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    if (replicas[i] == leader) out.new_leader_index = static_cast<int>(i);
  }
  if (out.elected) {
    out.digest_intact = view(leader).b == digest_before;
  }

  // A cold re-bind must find the new leader (the stale/no-route re-bind
  // path extended for leader discovery).
  duct->invalidate();
  CallResult rebound = duct->call(args, opts);
  out.rebound = rebound.ok();
  out.elections = schooner.stats().leader_elections;
  client->quit();
  return out;
}

}  // namespace
}  // namespace npss::bench

int main() {
  using namespace npss::bench;

  const std::vector<double> losses = {0.0, 0.01, 0.02, 0.05, 0.10, 0.20};
  std::vector<SweepPoint> points;
  print_header("Availability and added latency vs injected wan loss "
               "(duct @ sgi480-lerc from sparc-ua, " +
               std::to_string(kCallsPerPoint) + " calls/point)");
  std::printf("%8s %12s %10s %14s %16s %18s %10s\n", "loss", "avail",
              "retried", "mean attempts", "mean virt us", "added virt us",
              "dropped");
  for (double loss : losses) {
    SweepPoint p = run_point(loss);
    double base = points.empty() ? p.mean_virtual_us
                                 : points.front().mean_virtual_us;
    std::printf("%7.0f%% %12.4f %10d %14.3f %16.1f %18.1f %10llu\n",
                loss * 100.0, double(p.ok) / kCallsPerPoint, p.retried,
                p.mean_attempts, p.mean_virtual_us, p.mean_virtual_us - base,
                static_cast<unsigned long long>(p.dropped));
    points.push_back(p);
  }

  print_header("Migration-based failover after a server crash "
               "(failover_machine = sgi420-lerc)");
  FailoverResult fo = run_failover();
  std::printf("recovered=%s failed_over=%s attempts=%d "
              "post-failover attempts=%d\n",
              fo.recovered ? "yes" : "no", fo.failed_over ? "yes" : "no",
              fo.attempts, fo.post_failover_attempts);

  print_header("Manager leader kill with a 3-replica control plane "
               "(seed 1993)");
  MetaFailover mf = run_meta_failover();
  std::printf("elected=%s new_leader_index=%d elections=%llu "
              "availability=%.4f digest_intact=%s rebound=%s\n",
              mf.elected ? "yes" : "no", mf.new_leader_index,
              static_cast<unsigned long long>(mf.elections),
              mf.availability, mf.digest_intact ? "yes" : "no",
              mf.rebound ? "yes" : "no");

  std::FILE* f = std::fopen("BENCH_fault.json", "w");
  if (f) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"fault\",\n");
    std::fprintf(f, "  \"link\": \"internet-wan\",\n");
    std::fprintf(f, "  \"calls_per_point\": %d,\n", kCallsPerPoint);
    std::fprintf(f,
                 "  \"options\": {\"deadline_us\": 10000000, "
                 "\"max_attempts\": 5, \"idempotent\": true, "
                 "\"host_grace_ms\": 25},\n");
    std::fprintf(f, "  \"loss_sweep\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const SweepPoint& p = points[i];
      std::fprintf(f,
                   "    {\"loss\": %.2f, \"availability\": %.4f, "
                   "\"retried_calls\": %d, \"mean_attempts\": %.3f, "
                   "\"mean_virtual_us\": %.1f, \"added_virtual_us\": %.1f, "
                   "\"frames_dropped\": %llu}%s\n",
                   p.loss, double(p.ok) / kCallsPerPoint, p.retried,
                   p.mean_attempts, p.mean_virtual_us,
                   p.mean_virtual_us - points.front().mean_virtual_us,
                   static_cast<unsigned long long>(p.dropped),
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"failover\": {\"recovered\": %s, \"failed_over\": %s, "
                 "\"attempts\": %d, \"post_failover_attempts\": %d},\n",
                 fo.recovered ? "true" : "false",
                 fo.failed_over ? "true" : "false", fo.attempts,
                 fo.post_failover_attempts);
    std::fprintf(f, "  \"meta_failover\": {\n");
    std::fprintf(f,
                 "    \"replicas\": 3, \"seed\": 1993, \"elected\": %s, "
                 "\"new_leader_index\": %d, \"elections\": %llu,\n",
                 mf.elected ? "true" : "false", mf.new_leader_index,
                 static_cast<unsigned long long>(mf.elections));
    std::fprintf(f,
                 "    \"availability_during_election\": %.4f, "
                 "\"export_digest_intact\": %s, \"rebound_ok\": %s,\n",
                 mf.availability, mf.digest_intact ? "true" : "false",
                 mf.rebound ? "true" : "false");
    std::fprintf(f, "    \"transcript\": [\n");
    for (std::size_t i = 0; i < mf.transcript.size(); ++i) {
      const TranscriptEntry& t = mf.transcript[i];
      std::fprintf(f, "      {\"call\": %d, \"ok\": %s, \"attempts\": %d}%s\n",
                   t.call, t.ok ? "true" : "false", t.attempts,
                   i + 1 < mf.transcript.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_fault.json\n");
  }
  return 0;
}
