#include "rpc/metrics.hpp"

#include "rpc/manager.hpp"

namespace npss::rpc {

RpcMetrics& rpc_metrics() {
  static RpcMetrics m = [] {
    obs::Registry& reg = obs::Registry::global();
    return RpcMetrics{
        .frames_sent = reg.counter("rpc.transport.frames_sent"),
        .bytes_sent = reg.counter("rpc.transport.bytes_sent"),
        .frames_received = reg.counter("rpc.transport.frames_received"),
        .bytes_received = reg.counter("rpc.transport.bytes_received"),
        .rtt_us = reg.histogram("rpc.transport.rtt_us"),
        .host_calls = reg.counter("rpc.host.calls"),
        .host_bytes_marshaled = reg.counter("rpc.host.bytes_marshaled"),
        .host_handler_us = reg.histogram("rpc.host.handler_us"),
        .host_errors = reg.counter("rpc.host.errors"),
        .client_calls = reg.counter("rpc.client.calls"),
        .client_bytes_marshaled = reg.counter("rpc.client.bytes_marshaled"),
        .client_latency_us = reg.histogram("rpc.client.latency_us"),
        .client_virtual_latency_us =
            reg.histogram("rpc.client.virtual_latency_us"),
        .client_lookups = reg.counter("rpc.client.lookups"),
        .client_recovered_calls = reg.counter("rpc.client.recovered_calls"),
        .client_stale_retries = reg.counter("rpc.client.stale_retries"),
        .client_timeouts = reg.counter("rpc.client.timeouts"),
        .client_retries = reg.counter("rpc.client.retries"),
        .client_failovers = reg.counter("rpc.client.failovers"),
        .client_failed_calls = reg.counter("rpc.client.failed_calls"),
        .line_admitted = reg.counter("rpc.line.admitted"),
        .line_rejected = reg.counter("rpc.line.rejected"),
        .line_active = reg.gauge("rpc.line.active"),
        .line_budget_exhausted = reg.counter("rpc.line.budget_exhausted"),
        .line_admission_backoffs = reg.counter("rpc.line.admission_backoffs"),
        .meta_rebinds_after_failover =
            reg.counter("rpc.meta.rebinds_after_failover"),
    };
  }();
  return m;
}

const std::array<ManagerEventRow, kManagerEventCount>& manager_events() {
  static const std::array<ManagerEventRow, kManagerEventCount> rows = [] {
    obs::Registry& reg = obs::Registry::global();
    const auto row = [&](std::uint64_t ManagerStats::*field,
                         const char* name) {
      return ManagerEventRow{field, reg.counter(name)};
    };
    // One row per ManagerEvent, in its declaration order.
    return std::array{
        row(&ManagerStats::lines_created, "rpc.manager.lines_created"),
        row(&ManagerStats::lines_rejected, "rpc.manager.lines_rejected"),
        row(&ManagerStats::processes_started, "rpc.manager.processes_started"),
        row(&ManagerStats::lookups, "rpc.manager.lookups"),
        row(&ManagerStats::type_check_failures,
            "rpc.manager.type_check_failures"),
        row(&ManagerStats::moves, "rpc.manager.moves"),
        row(&ManagerStats::lines_shut_down, "rpc.manager.lines_shut_down"),
        row(&ManagerStats::static_check_passes, "rpc.manager.static_check_pass"),
        row(&ManagerStats::static_check_failures,
            "rpc.manager.static_check_fail"),
        row(&ManagerStats::stale_manifest_warnings,
            "rpc.manager.static_check_stale"),
        row(&ManagerStats::compat_rejects, "rpc.manager.compat_reject"),
        row(&ManagerStats::leader_elections, "rpc.meta.leader_elections"),
        row(&ManagerStats::log_appends, "rpc.meta.log_appends"),
        row(&ManagerStats::snapshot_installs, "rpc.meta.snapshot_installs"),
    };
  }();
  return rows;
}

void ManagerTally::record(ManagerEvent event, std::uint64_t n) {
  const auto i = static_cast<std::size_t>(event);
  counts_[i].fetch_add(n, std::memory_order_relaxed);
  if (obs::enabled()) manager_events()[i].counter.add(n);
}

void ManagerTally::add_to(ManagerStats& stats) const {
  for (std::size_t i = 0; i < kManagerEventCount; ++i) {
    stats.*manager_events()[i].field +=
        counts_[i].load(std::memory_order_relaxed);
  }
}

obs::Counter& client_calls_counter(const std::string& name) {
  return obs::Registry::global().counter("rpc.client.calls." + name);
}

}  // namespace npss::rpc
