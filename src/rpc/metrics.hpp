// The RPC layer's metric handles, resolved once per process.
//
// Every per-call instrumentation site of the call path — the sim client
// (calling.cpp), the sim host (host.cpp), the sim transport (io.cpp) and
// the TCP transport — records through these references. A registry look-up
// by name builds a std::string and takes the obs.Registry mutex; a handle
// is one relaxed atomic add. Both fabrics record under the same names, so
// "transport" means whichever fabric carried the frame.
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace npss::rpc {

struct RpcMetrics {
  // Transport: every frame either fabric sends or receives.
  obs::Counter& frames_sent;
  obs::Counter& bytes_sent;
  obs::Counter& frames_received;
  obs::Counter& bytes_received;
  obs::Histogram& rtt_us;

  // Procedure hosts.
  obs::Counter& host_calls;
  obs::Counter& host_bytes_marshaled;
  obs::Histogram& host_handler_us;
  obs::Counter& host_errors;

  // Callers.
  obs::Counter& client_calls;
  obs::Counter& client_bytes_marshaled;
  obs::Histogram& client_latency_us;
  obs::Histogram& client_virtual_latency_us;
  obs::Counter& client_lookups;
  obs::Counter& client_recovered_calls;
  obs::Counter& client_stale_retries;
  obs::Counter& client_timeouts;
  obs::Counter& client_retries;
  obs::Counter& client_failovers;
  obs::Counter& client_failed_calls;

  // Lines and Manager failover (rare paths, resolved with the rest).
  obs::Counter& line_admitted;
  obs::Counter& line_rejected;
  obs::Gauge& line_active;
  obs::Counter& line_budget_exhausted;
  obs::Counter& line_admission_backoffs;
  obs::Counter& meta_rebinds_after_failover;
};

/// The process's handles into the global registry. Registry::reset()
/// zeroes the metrics without invalidating them.
RpcMetrics& rpc_metrics();

/// One event on a rare-path counter, when instrumentation is on.
inline void count(obs::Counter& counter) {
  if (obs::enabled()) counter.add();
}

/// rpc.client.calls.<name>, the per-procedure call counter. Resolve it
/// once per binding (BindingCache, TcpRemoteProc), never per call.
obs::Counter& client_calls_counter(const std::string& name);

}  // namespace npss::rpc
