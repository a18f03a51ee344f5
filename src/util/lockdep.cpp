#include "util/lockdep.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <utility>

namespace npss::util::lockdep {

struct LockClass {
  std::string name;
  // Recorded orderings out of this class: target class -> the site that
  // first established the edge. Guarded by the registry mutex.
  std::map<const LockClass*, std::string> out;
};

namespace {

// All lockdep-internal state hangs off deliberately leaked heap objects:
// lockdep is invoked from static-storage mutexes (singleton registries,
// the TcpBus pool) whose last unlocks can run during static destruction,
// after normal globals are gone.
struct Registry {
  std::mutex mu;  // raw std::mutex: lockdep must not instrument itself
  std::map<std::string, LockClass*> classes;
  std::size_t edges = 0;
  std::atomic<std::uint64_t> inversions{0};
  Handler handler;  // empty = default report-and-abort
};

Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

struct Held {
  const LockClass* cls;
  const void* instance;
  std::string site;
};

}  // namespace

// One execution context's held stack: a thread's own, or a fiber's.
struct Context {
  std::vector<Held> held;
};

namespace {

// The context the calling thread is running right now: a fiber's while
// the thread runs that fiber, else nullptr for the thread's own stack.
// Trivially destructible on purpose: a late on_release during static
// destruction may still read it.
thread_local Context* t_current = nullptr;
// The thread's own stack, allocated on first use and reclaimed by
// ThreadReclaim at thread exit.
thread_local Context* t_own = nullptr;

struct ThreadReclaim {
  ~ThreadReclaim() {
    delete t_own;
    t_own = nullptr;
  }
};

/// The calling context's held stack if it has one, without allocating.
std::vector<Held>* held_stack_if_any() {
  if (t_current) return &t_current->held;
  return t_own ? &t_own->held : nullptr;
}

std::vector<Held>& held_stack() {
  if (std::vector<Held>* held = held_stack_if_any()) return *held;
  // ODR-use registers the reclaimer's destructor for this thread. A
  // static mutex acquired after the main thread's thread_locals are gone
  // gets a fresh stack that stays reachable from this thread's TLS until
  // exit; a release finds nothing and returns (on_release).
  thread_local ThreadReclaim reclaim;
  (void)reclaim;
  t_own = new Context();
  return t_own->held;
}

std::string format_site(const std::source_location& site) {
  const char* file = site.file_name();
  // Trim to the path tail; full build paths just add noise.
  for (const char* p = file; *p; ++p) {
    if ((*p == '/' || *p == '\\') && p[1]) file = p + 1;
  }
  return std::string(file) + ":" + std::to_string(site.line());
}

// Depth-first search for a recorded path `from ->* to`, appending the
// traversed edges ("A -> B  (first: site)") to `path` when found.
// Caller holds registry().mu.
bool find_path(const LockClass* from, const LockClass* to,
               std::set<const LockClass*>& visited,
               std::vector<std::string>& path) {
  if (!visited.insert(from).second) return false;
  for (const auto& [next, site] : from->out) {
    std::string edge = class_name(from) + " -> " + class_name(next) +
                       "  (first: " + site + ")";
    if (next == to) {
      path.push_back(std::move(edge));
      return true;
    }
    path.push_back(std::move(edge));
    if (find_path(next, to, visited, path)) return true;
    path.pop_back();
  }
  return false;
}

void default_handler(const Report& report) {
  std::string text = report.to_string();
  std::fprintf(stderr, "%s", text.c_str());
  std::fflush(stderr);
  if (const char* out = std::getenv("SCHOONER_LOCKDEP_REPORT")) {
    if (std::FILE* f = std::fopen(out, "a")) {
      std::fputs(text.c_str(), f);
      std::fclose(f);
    }
  }
  std::abort();
}

void record(const LockClass* cls, const void* instance,
            const std::source_location& site, bool order_edges) {
  auto& held = held_stack();
  std::string at = format_site(site);

  if (order_edges && !held.empty()) {
    Report report;
    Handler handler;
    {
      std::lock_guard lock(registry().mu);
      for (const Held& h : held) {
        if (h.cls == cls) continue;  // same-class nesting: no self-edges
        // Would recording h.cls -> cls close a cycle? Check for a path
        // the other way before inserting.
        std::set<const LockClass*> visited;
        std::vector<std::string> path;
        if (find_path(cls, h.cls, visited, path)) {
          registry().inversions.fetch_add(1, std::memory_order_relaxed);
          report.summary = "lockdep: lock-order inversion acquiring '" +
                           class_name(cls) + "' at " + at +
                           " while holding '" + class_name(h.cls) + "'";
          for (const Held& g : held) {
            report.acquiring_chain.push_back(class_name(g.cls) +
                                             "  (acquired at " + g.site + ")");
          }
          report.acquiring_chain.push_back(class_name(cls) +
                                           "  (acquiring at " + at + ")");
          report.prior_chain = std::move(path);
          handler = registry().handler;
          break;
        }
        auto [it, fresh] = const_cast<LockClass*>(h.cls)->out.try_emplace(
            cls, at);
        (void)it;
        if (fresh) ++registry().edges;
      }
    }
    if (!report.summary.empty()) {
      // Handler runs outside the registry lock so it may call back into
      // lockdep (graph_text, reset) or log through an instrumented path.
      if (handler) {
        handler(report);
      } else {
        default_handler(report);
      }
    }
  }

  held.push_back(Held{cls, instance, std::move(at)});
}

}  // namespace

const LockClass* lock_class(const char* name) {
  std::lock_guard lock(registry().mu);
  auto it = registry().classes.find(name);
  if (it != registry().classes.end()) return it->second;
  auto* cls = new LockClass();  // interned forever
  cls->name = name;
  registry().classes.emplace(cls->name, cls);
  return cls;
}

const std::string& class_name(const LockClass* cls) { return cls->name; }

std::string Report::to_string() const {
  std::ostringstream os;
  os << summary << "\n";
  os << (blocking ? "  this context holds (in order):\n"
                  : "  this thread is acquiring (in order):\n");
  for (const auto& line : acquiring_chain) os << "    " << line << "\n";
  os << (blocking ? "  which is unsafe because:\n"
                  : "  which contradicts the recorded ordering:\n");
  for (const auto& line : prior_chain) os << "    " << line << "\n";
  return os.str();
}

void set_handler(Handler handler) {
  std::lock_guard lock(registry().mu);
  registry().handler = std::move(handler);
}

void on_acquire(const LockClass* cls, const void* instance,
                std::source_location site) {
  record(cls, instance, site, /*order_edges=*/true);
}

void on_try_acquire(const LockClass* cls, const void* instance,
                    std::source_location site) {
  record(cls, instance, site, /*order_edges=*/false);
}

void on_release(const LockClass* cls, const void* instance) {
  std::vector<Held>* stack = held_stack_if_any();
  if (!stack) return;
  auto& held = *stack;
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    if (it->instance == instance && it->cls == cls) {
      held.erase(std::next(it).base());
      return;
    }
  }
  // Unmatched release: the lock predates a reset() or lockdep was
  // enabled mid-stream. Ignore rather than abort — the graph only ever
  // under-approximates in that case.
}

std::size_t class_count() {
  std::lock_guard lock(registry().mu);
  return registry().classes.size();
}

std::size_t edge_count() {
  std::lock_guard lock(registry().mu);
  return registry().edges;
}

std::uint64_t inversions_detected() {
  return registry().inversions.load(std::memory_order_relaxed);
}

std::size_t held_count() {
  const std::vector<Held>* held = held_stack_if_any();
  return held ? held->size() : 0;
}

Context* context_create() { return new Context(); }

void context_destroy(Context* ctx) { delete ctx; }

Context* context_switch(Context* next) {
  Context* prev = t_current;
  t_current = next;
  return prev;
}

void on_block(const char* what, std::source_location site) {
  const std::vector<Held>* held = held_stack_if_any();
  if (!held || held->empty()) return;
  Report report;
  report.blocking = true;
  report.summary = std::string("lockdep: ") + what + " at " +
                   format_site(site) + " while holding '" +
                   class_name(held->back().cls) + "'";
  for (const Held& h : *held) {
    report.acquiring_chain.push_back(class_name(h.cls) + "  (acquired at " +
                                     h.site + ")");
  }
  report.prior_chain.push_back(
      "a parked context keeps its locks while other fibers run on this "
      "thread; one that takes the same lock self-deadlocks");
  Handler handler;
  {
    std::lock_guard lock(registry().mu);
    handler = registry().handler;
  }
  if (handler) {
    handler(report);
  } else {
    default_handler(report);
  }
}

std::string graph_text() {
  std::lock_guard lock(registry().mu);
  std::ostringstream os;
  for (const auto& [name, cls] : registry().classes) {
    for (const auto& [next, site] : cls->out) {
      os << name << " -> " << class_name(next) << "  (first: " << site
         << ")\n";
    }
  }
  return os.str();
}

void reset() {
  std::lock_guard lock(registry().mu);
  for (auto& [name, cls] : registry().classes) cls->out.clear();
  registry().edges = 0;
  registry().inversions.store(0, std::memory_order_relaxed);
  if (std::vector<Held>* held = held_stack_if_any()) held->clear();
}

}  // namespace npss::util::lockdep
