// Metrics registry — the quantitative half of the observability layer.
//
// The paper's experimental results (Tables 1 and 2) are hand-collected
// timings of individual Schooner RPC calls; §2.3 asks for "monitoring
// particular values from selected component codes". This registry is the
// built-in replacement for both: every layer of the stack (RPC client,
// procedure host, Manager, TCP transport, flow scheduler, engine solvers)
// records named counters, gauges, and fixed-bucket latency histograms
// here, and a run report renders them after any simulation run.
//
// Concurrency: metric objects are lock-free (atomics). The registry map
// takes its mutex on every look-up by name, first or not, so hot paths
// hold handles and name look-ups are for registration and reads. Handles
// returned by counter()/gauge()/histogram() stay valid for the registry's
// lifetime (reset() zeroes them in place).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace npss::obs {

/// Global kill switch for the instrumentation call sites. When disabled,
/// instrumented layers skip metric recording and span collection; the
/// bench_obs_overhead harness measures the difference.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

namespace detail {
/// fetch_add for doubles via CAS (portable across libstdc++ versions).
void atomic_add(std::atomic<double>& target, double delta) noexcept;
void atomic_min(std::atomic<double>& target, double value) noexcept;
void atomic_max(std::atomic<double>& target, double value) noexcept;
}  // namespace detail

/// Monotone event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value. add()/sub() make it usable as a
/// level gauge too (e.g. rpc.line.active counts currently-open lines).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept { detail::atomic_add(value_, delta); }
  void sub(double delta) noexcept { detail::atomic_add(value_, -delta); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts samples with
/// value <= upper_bounds[i] (first matching bucket); samples above the
/// last bound land in a dedicated overflow bucket. Also tracks count,
/// sum, min, and max so reports can show mean and range.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void record(double value) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  double mean() const noexcept;
  double min() const noexcept;  ///< 0 when empty
  double max() const noexcept;  ///< 0 when empty

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Count in bucket `i` (0 <= i < bounds().size()).
  std::uint64_t bucket_count(std::size_t i) const;
  /// Samples above the last bound.
  std::uint64_t overflow() const noexcept;

  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  /// bounds_.size() buckets plus one overflow slot.
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Default bucket edges for microsecond latencies: 1 us .. 10 s in a
/// 1-2-5 progression (covers loopback through the 1993 Internet WAN).
const std::vector<double>& default_latency_us_bounds();

/// Default bucket edges for iteration counts: 1 .. 10000.
const std::vector<double>& default_iteration_bounds();

class Registry {
 public:
  /// The process-wide registry the instrumented layers record into.
  static Registry& global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create. Throws util::ModelError if `name` already names a
  /// metric of a different kind. For histogram(), `upper_bounds` applies
  /// only on first registration.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       const std::vector<double>& upper_bounds =
                           default_latency_us_bounds());

  /// Registered names, sorted (all kinds interleaved).
  std::vector<std::string> names() const;
  /// Names whose metric recorded anything: counter > 0, gauge != 0, or
  /// histogram count > 0.
  std::vector<std::string> active_names() const;
  bool has(const std::string& name) const;

  /// Read helpers for tests/reports; throw util::ModelError on a missing
  /// name or kind mismatch.
  const Counter& find_counter(const std::string& name) const;
  const Gauge& find_gauge(const std::string& name) const;
  const Histogram& find_histogram(const std::string& name) const;

  /// Plain-text export, one metric per line, sorted by name.
  std::string to_text() const;
  /// JSON export: {"counters": {...}, "gauges": {...}, "histograms": ...}.
  std::string to_json() const;

  /// Zero every metric, keeping registrations (handles stay valid).
  void reset();

 private:
  struct Entry {
    // Exactly one of these is set; which one defines the metric's kind.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  // Leaf lock (lock_hierarchy.md): registration and export serialize on
  // it, but nothing else is ever acquired under it. Hot-path recording
  // goes through the returned handles, which are lock-free atomics.
  mutable util::Mutex mu_{"obs.Registry"};
  std::map<std::string, Entry> entries_ SCHOONER_GUARDED_BY(mu_);
};

}  // namespace npss::obs
