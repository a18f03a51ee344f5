#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"

namespace npss::obs {

namespace {

std::atomic<std::uint64_t> g_next_trace{1};
std::atomic<std::uint64_t> g_next_span{1};

thread_local TraceContext t_current;

std::chrono::steady_clock::time_point process_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

double us_since_epoch(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - process_epoch())
      .count();
}

}  // namespace

std::uint64_t next_trace_id() noexcept {
  return g_next_trace.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t next_span_id() noexcept {
  return g_next_span.fetch_add(1, std::memory_order_relaxed);
}

TraceContext current_trace() noexcept { return t_current; }

TraceContext exchange_current_trace(TraceContext next) noexcept {
  return std::exchange(t_current, next);
}

// --- SpanCollector ------------------------------------------------------------

SpanCollector& SpanCollector::global() {
  static SpanCollector* collector = new SpanCollector();
  return *collector;
}

SpanCollector::SpanCollector(std::size_t capacity) : capacity_(capacity) {}

void SpanCollector::record(SpanRecord rec) {
  if (drop_if_full()) return;
  util::MutexLock lock(mu_);
  if (spans_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spans_.push_back(std::move(rec));
  if (spans_.size() >= capacity_) {
    full_.store(true, std::memory_order_relaxed);
  }
}

bool SpanCollector::drop_if_full() noexcept {
  if (!full_.load(std::memory_order_relaxed)) return false;
  dropped_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::vector<SpanRecord> SpanCollector::snapshot() const {
  util::MutexLock lock(mu_);
  return spans_;
}

std::vector<SpanRecord> SpanCollector::trace(std::uint64_t trace_id) const {
  util::MutexLock lock(mu_);
  std::vector<SpanRecord> out;
  for (const SpanRecord& s : spans_) {
    if (s.trace_id == trace_id) out.push_back(s);
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_us < b.start_us;
            });
  return out;
}

std::size_t SpanCollector::size() const {
  util::MutexLock lock(mu_);
  return spans_.size();
}

std::uint64_t SpanCollector::dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

void SpanCollector::clear() {
  util::MutexLock lock(mu_);
  spans_.clear();
  dropped_.store(0, std::memory_order_relaxed);
  full_.store(false, std::memory_order_relaxed);
}

namespace {

void render_span(std::ostringstream& os,
                 const std::map<std::uint64_t, std::vector<const SpanRecord*>>&
                     children,
                 const SpanRecord& span, int depth) {
  for (int i = 0; i < depth; ++i) os << "  ";
  os << span.layer << " " << span.name;
  if (span.line >= 0) os << " (line " << span.line << ")";
  os << "  [" << span.duration_us << " us]\n";
  auto it = children.find(span.span_id);
  if (it == children.end()) return;
  for (const SpanRecord* child : it->second) {
    render_span(os, children, *child, depth + 1);
  }
}

}  // namespace

std::string SpanCollector::render_tree(std::size_t max_traces) const {
  std::vector<SpanRecord> spans = snapshot();
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
              return a.start_us < b.start_us;
            });

  std::ostringstream os;
  std::size_t traces_rendered = 0;
  std::size_t i = 0;
  while (i < spans.size()) {
    const std::uint64_t trace_id = spans[i].trace_id;
    std::size_t end = i;
    while (end < spans.size() && spans[end].trace_id == trace_id) ++end;
    if (max_traces != 0 && traces_rendered >= max_traces) break;
    ++traces_rendered;

    // Index children; spans whose parent is absent (e.g. the parent was
    // dropped, or the root) render at top level.
    std::map<std::uint64_t, std::vector<const SpanRecord*>> children;
    std::map<std::uint64_t, const SpanRecord*> by_id;
    for (std::size_t j = i; j < end; ++j) by_id[spans[j].span_id] = &spans[j];
    std::vector<const SpanRecord*> roots;
    for (std::size_t j = i; j < end; ++j) {
      const SpanRecord& s = spans[j];
      if (s.parent_span_id != 0 && by_id.contains(s.parent_span_id)) {
        children[s.parent_span_id].push_back(&s);
      } else {
        roots.push_back(&s);
      }
    }
    os << "trace " << trace_id << ":\n";
    for (const SpanRecord* root : roots) {
      render_span(os, children, *root, 1);
    }
    i = end;
  }
  if (max_traces != 0 && traces_rendered == max_traces) {
    os << "(further traces elided)\n";
  }
  return os.str();
}

// --- Span ---------------------------------------------------------------------

void Span::open(std::string layer, std::string name, TraceContext ctx) {
  ctx_ = ctx;
  layer_ = std::move(layer);
  name_ = std::move(name);
  prev_ = t_current;
  t_current = ctx_;
  start_ = std::chrono::steady_clock::now();
  active_ = true;
}

Span::Span(std::string layer, std::string name) {
  if (!enabled()) return;
  TraceContext parent = t_current;
  TraceContext ctx;
  ctx.trace_id = parent.active() ? parent.trace_id : next_trace_id();
  ctx.parent_span_id = parent.active() ? parent.span_id : 0;
  ctx.span_id = next_span_id();
  open(std::move(layer), std::move(name), ctx);
}

Span::Span(std::string layer, std::string name, const TraceContext& remote) {
  if (!enabled()) return;
  TraceContext ctx;
  if (remote.active()) {
    ctx.trace_id = remote.trace_id;
    ctx.parent_span_id = remote.span_id;
  } else {
    ctx.trace_id = next_trace_id();
    ctx.parent_span_id = 0;
  }
  ctx.span_id = next_span_id();
  open(std::move(layer), std::move(name), ctx);
}

Span::~Span() {
  if (!active_) return;
  t_current = prev_;
  SpanCollector& collector = SpanCollector::global();
  if (collector.drop_if_full()) return;
  SpanRecord rec;
  rec.trace_id = ctx_.trace_id;
  rec.span_id = ctx_.span_id;
  rec.parent_span_id = ctx_.parent_span_id;
  rec.layer = std::move(layer_);
  rec.name = std::move(name_);
  rec.line = line_;
  rec.start_us = us_since_epoch(start_);
  rec.duration_us = elapsed_us();
  collector.record(std::move(rec));
}

double Span::elapsed_us() const noexcept {
  if (!active_) return 0.0;
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

}  // namespace npss::obs
