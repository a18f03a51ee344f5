// Trace contexts and spans — the structural half of the observability
// layer, a software reproduction of the paper's Tables 1 and 2: where the
// authors timed individual Schooner RPC calls between machine pairs by
// hand, a span is opened around each call, its context rides the kCall /
// kReply wire frames, and the callee opens a child span under the same
// trace id. The in-process SpanCollector then renders the call tree with
// per-hop timings for any run.
//
// Ids are process-local monotonic counters: cheap, deterministic, and
// unique within a run, which is all the in-process collector needs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace npss::obs {

/// The context carried on the wire: which trace a call belongs to and
/// which span is its immediate caller. trace_id 0 means "not traced"
/// (e.g. a frame from a pre-trace peer).
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;

  bool active() const noexcept { return trace_id != 0; }
};

/// The thread's current context (the innermost live Span), or an inactive
/// context when no span is open.
TraceContext current_trace() noexcept;

/// Install `next` as the thread's current context and return the one it
/// replaces. A fiber scheduler calls this on every switch, so each fiber
/// keeps its own innermost span whichever thread resumes it.
TraceContext exchange_current_trace(TraceContext next) noexcept;

/// One finished span as the collector keeps it.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  std::string layer;  ///< instrumented layer, e.g. "rpc.client"
  std::string name;   ///< operation, e.g. "call shaft"
  /// Schooner line the operation ran under, or -1 (rpc::kNoLine) when the
  /// span is not line-scoped. Lets a multi-tenant run's traces be sliced
  /// per line (DESIGN.md §15).
  std::int64_t line = -1;
  double start_us = 0.0;     ///< since process start (steady clock)
  double duration_us = 0.0;
};

/// Thread-safe sink for finished spans. Bounded: past `capacity()` spans
/// new records are dropped (dropped() counts them) so a long transient
/// cannot eat the heap; histograms in the Registry keep the aggregate
/// view regardless. Once full, dropping is lock-free until clear().
class SpanCollector {
 public:
  static SpanCollector& global();

  explicit SpanCollector(std::size_t capacity = 65536);

  void record(SpanRecord rec);
  /// When the collector is full, count one dropped span and return true,
  /// without taking the lock; a closing Span then skips building its
  /// record.
  bool drop_if_full() noexcept;
  std::vector<SpanRecord> snapshot() const;
  /// All spans of one trace, parents before children where possible.
  std::vector<SpanRecord> trace(std::uint64_t trace_id) const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  std::uint64_t dropped() const;
  void clear();

  /// Render every collected trace as an indented call tree with per-hop
  /// timings — the run report's Tables 1/2 analogue. `max_traces` caps
  /// output for long runs (0 = all).
  std::string render_tree(std::size_t max_traces = 8) const;

 private:
  // Leaf lock (lock_hierarchy.md): record/snapshot hold it briefly and
  // never take another lock under it.
  mutable util::Mutex mu_{"obs.SpanCollector"};
  std::size_t capacity_;
  std::vector<SpanRecord> spans_ SCHOONER_GUARDED_BY(mu_);
  /// Set under mu_ when spans_ reaches capacity_, cleared by clear();
  /// read without it by drop_if_full().
  std::atomic<bool> full_{false};
  std::atomic<std::uint64_t> dropped_{0};
};

/// RAII span. Opening a span makes it the thread's current context;
/// closing restores the previous one and hands the record to the global
/// SpanCollector. When obs::enabled() is false construction is a no-op.
class Span {
 public:
  /// Open a span under the thread's current context (a fresh trace root
  /// when there is none).
  Span(std::string layer, std::string name);

  /// Open a span continuing a context received from a peer (the callee
  /// side of an RPC): same trace id, parent = the caller's span.
  Span(std::string layer, std::string name, const TraceContext& remote);

  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// The context to put on outgoing wire frames while this span is open.
  const TraceContext& context() const noexcept { return ctx_; }

  /// Microseconds since the span opened (live reading).
  double elapsed_us() const noexcept;

  bool active() const noexcept { return active_; }

  /// Tag the span with the Schooner line it serves; recorded into
  /// SpanRecord::line when the span closes. No-op on an inactive span.
  void set_line(std::int64_t line) noexcept {
    if (active_) line_ = line;
  }

 private:
  void open(std::string layer, std::string name, TraceContext ctx);

  TraceContext ctx_;
  TraceContext prev_;
  std::string layer_, name_;
  std::int64_t line_ = -1;
  std::chrono::steady_clock::time_point start_;
  bool active_ = false;
};

/// Fresh ids (exposed for tests and for callers that need an id without a
/// Span, e.g. pre-assigning a trace to a whole engine run).
std::uint64_t next_trace_id() noexcept;
std::uint64_t next_span_id() noexcept;

}  // namespace npss::obs
