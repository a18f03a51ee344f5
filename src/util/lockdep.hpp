// Runtime lock-order checking (DESIGN.md §16), modeled on the kernel's
// lockdep. Every util::Mutex belongs to a named *lock class* (all
// Session leader-cache mutexes are one class, all BusChannel mutexes
// another, ...). While enabled, each thread or fiber keeps a stack of the
// lock classes it currently holds, and every acquisition records "held ->
// acquiring" edges in a global lock-order graph whose edges remember the
// source location that first established them. An acquisition that would
// close a cycle in that graph is a lock-order inversion — a potential
// deadlock even if this particular run would have survived — and is
// reported *at acquisition time* with both conflicting chains: the
// chain this thread is building, and the previously recorded ordering
// it contradicts.
//
// The checker itself (this header + lockdep.cpp) is always compiled, so
// tests can drive it directly in any build. The *hooks* in util::Mutex
// are only compiled in when SCHOONER_LOCKDEP is defined (CMake option,
// AUTO = on in Debug builds — the TSan/ASan CI lanes), so Release
// builds pay nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <source_location>
#include <string>
#include <vector>

namespace npss::util::lockdep {

// A named lock class, interned once per distinct name. Opaque to
// callers; compare by pointer.
struct LockClass;

/// Intern (or look up) the class named `name`. Never fails; the
/// returned pointer is stable for the life of the process.
const LockClass* lock_class(const char* name);

/// The name a class was interned under.
const std::string& class_name(const LockClass* cls);

/// An inversion report: the acquisition that would close a cycle, plus
/// both orderings in conflict.
struct Report {
  std::string summary;  ///< one line: "lock-order inversion: B -> A ..."
  /// The acquiring thread's chain: every lock it currently holds (in
  /// acquisition order, with the site each was taken at) plus the lock
  /// it is trying to take.
  std::vector<std::string> acquiring_chain;
  /// The previously recorded ordering this acquisition contradicts: the
  /// edge path from the acquiring class back to a held class, each edge
  /// stamped with the site that first established it.
  std::vector<std::string> prior_chain;
  /// A block-while-holding report (on_block) rather than an inversion:
  /// acquiring_chain is then the held stack, prior_chain the reason.
  bool blocking = false;

  std::string to_string() const;
};

/// Called when an inversion is detected, while NO lockdep-internal lock
/// is held (the handler may log, throw, or record). The default handler
/// writes the report to stderr — and to the file named by the
/// SCHOONER_LOCKDEP_REPORT environment variable, if set, so CI can
/// upload it as an artifact — then aborts. Tests install a capturing
/// handler; passing nullptr restores the default.
using Handler = std::function<void(const Report&)>;
void set_handler(Handler handler);

/// Record that the calling thread is about to acquire an instance of
/// `cls`. Checks for ordering violations against the thread's held
/// stack *before* the caller blocks on the real mutex, so an inversion
/// is reported rather than deadlocked on.
void on_acquire(const LockClass* cls, const void* instance,
                std::source_location site = std::source_location::current());

/// Record a successful try_lock. Adds a held-stack entry but no
/// ordering edges: a non-blocking acquisition cannot deadlock, so it
/// does not constrain the hierarchy.
void on_try_acquire(
    const LockClass* cls, const void* instance,
    std::source_location site = std::source_location::current());

/// Record the release of `instance`. Releases need not be LIFO.
void on_release(const LockClass* cls, const void* instance);

/// Report (through the handler) if the calling context holds any lock
/// while it is about to block in `what` — a fiber parking, which hands
/// its OS thread to other fibers that may take the same lock.
void on_block(const char* what,
              std::source_location site = std::source_location::current());

// --- Execution contexts ----------------------------------------------------
// Each execution context keeps its own held stack. A thread's is created
// on first use and reclaimed at thread exit. A fiber scheduler creates one
// per fiber and makes it current while the fiber runs on a thread, so a
// fiber's locks are never attributed to whichever thread resumes it.
struct Context;
Context* context_create();
void context_destroy(Context* ctx);
/// Make `next` the calling thread's current context (nullptr = the
/// thread's own stack); returns the context that was current.
Context* context_switch(Context* next);

/// Diagnostics / test hooks.
std::size_t class_count();
std::size_t edge_count();
std::uint64_t inversions_detected();
std::size_t held_count();  ///< calling context's current held-stack depth

/// The recorded ordering graph, one "A -> B  (first: file:line)" line
/// per edge, sorted — what lock_hierarchy.md documents, as observed.
std::string graph_text();

/// Drop all recorded edges, counters, and the calling thread's held
/// stack (interned classes survive; pointers stay valid). Tests call
/// this between cases; real code never should.
void reset();

}  // namespace npss::util::lockdep
