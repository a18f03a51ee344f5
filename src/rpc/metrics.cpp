#include "rpc/metrics.hpp"

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
        .line_budget_exhausted = reg.counter("rpc.line.budget_exhausted"),
        .line_admission_backoffs = reg.counter("rpc.line.admission_backoffs"),
        .meta_rebinds_after_failover =
            reg.counter("rpc.meta.rebinds_after_failover"),
    };
  }();
  return m;
}

obs::Counter& client_calls_counter(const std::string& name) {
  return obs::Registry::global().counter("rpc.client.calls." + name);
}

}  // namespace npss::rpc
