// The client-side call engine shared by Line stubs, nested server-side
// calls and TCP stubs: bind (Manager lookup with type check), marshal
// through the caller's native formats, issue and await over the fabric's
// CallTransport, and recover from stale bindings by re-querying the
// Manager — the §4.2 cache-update path used after a procedure migrates.
// Every client-side Manager exchange goes through one ManagerLink, which
// follows the replica group's leader.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rpc/io.hpp"
#include "rpc/message.hpp"
#include "util/clock.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "uts/canonical.hpp"
#include "uts/marshal_plan.hpp"
#include "uts/spec.hpp"

namespace npss::rpc {

/// Simulated marshaling cost billed per canonical byte (at reference-CPU
/// speed); both client and host runtimes charge it.
constexpr double kMarshalUsPerByte = 0.02;

/// Per-importer cached binding ("procedure name caches within each
/// procedure in the line", §4.2). The per-stub metrics are obs counters;
/// process-wide aggregates of the same events land in the global
/// obs::Registry under rpc.client.*.
///
/// Threading: line-thread confined, deliberately unlocked
/// (lock_hierarchy.md). A BindingCache is owned by one Line and touched
/// only by that line's sequential thread of control — the single-caller
/// contract of DESIGN.md §15/§16 — so guarding it would buy nothing.
/// Cross-thread sharing happens one level down, in the LineBudget the
/// line's stubs share, whose counters are atomics for exactly that
/// reason.
struct BindingCache {
  std::string address;        ///< empty = unbound
  std::string resolved_name;  ///< exporter-cased name
  obs::Counter lookups;       ///< Manager queries performed
  obs::Counter stale_retries; ///< calls that hit a moved procedure
  /// The registry's rpc.client.calls.<name>, resolved on the first
  /// successful call so no later call builds the name or looks it up.
  obs::Counter* calls = nullptr;
  /// The call span's name: "call <name>", built on the first call, or
  /// the label a stub sets up front.
  std::string span_label;
  /// Compiled marshal programs for the import signature, filled on the
  /// first call (or eagerly by RemoteProc) and reused for every
  /// steady-state call — the §4.1 stub-compiler specialization.
  std::shared_ptr<const uts::MarshalPlan> request_plan;
  std::shared_ptr<const uts::MarshalPlan> reply_plan;
  /// The kCall request, kept from call to call: each attempt marshals
  /// into its blob's buffer and issues it, so a steady-state call builds
  /// no new Message and copies no import text or blob.
  Message request;
};

// --- The fault-tolerant call surface ----------------------------------------
//
// The original API threw transport exceptions out of the bowels of the
// stack; the redesigned surface makes failure typed and first-class:
// callers pass CallOptions (deadline, retry budget, backoff, failover
// target) and receive a CallResult (util::Status + values + a per-attempt
// trace). CallResult::values_or_raise() re-raises where a throw is wanted.

/// Exponential retry backoff. The jitter draw is deterministic: it is
/// derived (hashed) from the caller's virtual clock and the attempt
/// number, so a seeded simulation replays the identical schedule.
struct BackoffPolicy {
  util::SimTime initial_us = 1000;  ///< first retry delay (0 = no backoff)
  double multiplier = 2.0;
  util::SimTime max_us = 250000;
  double jitter = 0.25;             ///< +- fraction of the delay
};

/// Per-line fault budget — the isolation half of the multi-tenant session
/// layer (DESIGN.md §15). One LineBudget is shared by every stub on a
/// Line; CallCore charges it, so a line whose peer dies or whose
/// deadline storms retries burns through *its own* budget and starts
/// failing fast (kBudgetExhausted) instead of holding transport slots and
/// Manager attention its neighbors need. All counters are atomics: stubs
/// on one line may call from different threads.
class LineBudget {
 public:
  struct Limits {
    /// Total virtual time the line may spend inside calls (all calls
    /// summed, backoff and timeout waits included). 0 = unlimited.
    util::SimTime virtual_us = 0;
    /// Retry attempts (2nd+ attempts of any call) the line may spend.
    /// 0 = unlimited.
    long retries = 0;
    /// Concurrent in-flight calls. 0 = unlimited. The Manager's per-line
    /// quota (kLineAck.n) is folded in at admission; the smaller cap wins.
    int outstanding = 0;
  };

  LineBudget() = default;
  explicit LineBudget(Limits limits) : limits_(limits) {}

  const Limits& limits() const { return limits_; }

  /// Fold the Manager-granted outstanding-call quota into the cap
  /// (smaller wins; <=0 leaves the cap unchanged). Called once at line
  /// admission, before the line carries traffic.
  void restrict_outstanding(int cap) {
    if (cap <= 0) return;
    if (limits_.outstanding == 0 || cap < limits_.outstanding) {
      limits_.outstanding = cap;
    }
  }

  /// Reserve an in-flight call slot; false when the cap is reached.
  bool try_begin_call() {
    if (limits_.outstanding == 0) {
      outstanding_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    int cur = outstanding_.load(std::memory_order_relaxed);
    while (cur < limits_.outstanding) {
      if (outstanding_.compare_exchange_weak(cur, cur + 1,
                                             std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }
  void end_call() { outstanding_.fetch_sub(1, std::memory_order_relaxed); }

  /// Spend one retry; false when the retry budget is already gone.
  bool charge_retry() {
    if (limits_.retries == 0) return true;
    long cur = retries_.load(std::memory_order_relaxed);
    while (cur < limits_.retries) {
      if (retries_.compare_exchange_weak(cur, cur + 1,
                                         std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  void charge_virtual(util::SimTime us) {
    if (us > 0) virtual_spent_.fetch_add(us, std::memory_order_relaxed);
  }

  /// True once the virtual-time budget is spent (retry and outstanding
  /// limits gate their own operations and are not reflected here).
  bool virtual_exhausted() const {
    return limits_.virtual_us > 0 &&
           virtual_spent_.load(std::memory_order_relaxed) >= limits_.virtual_us;
  }

  int outstanding() const {
    return outstanding_.load(std::memory_order_relaxed);
  }
  long retries_spent() const {
    return retries_.load(std::memory_order_relaxed);
  }
  util::SimTime virtual_spent() const {
    return virtual_spent_.load(std::memory_order_relaxed);
  }

 private:
  Limits limits_;
  std::atomic<int> outstanding_{0};
  std::atomic<long> retries_{0};
  std::atomic<util::SimTime> virtual_spent_{0};
};

struct CallOptions {
  /// Total budget for the call in the fabric's microseconds (virtual on
  /// the fiber fabric, real on TCP), binding and retries included. 0 = no
  /// deadline: every transport wait blocks forever, as the
  /// pre-fault-tolerance runtime did. Each attempt's budget is the
  /// remaining deadline split evenly over the remaining attempts.
  util::SimTime deadline_us = 0;
  /// Attempts in total (first try included). The engine always re-tries
  /// dead-address and stale-binding failures (the request never ran);
  /// *timeouts* are ambiguous and re-tried only when `idempotent`.
  int max_attempts = 2;
  BackoffPolicy backoff;
  /// The request may safely execute more than once; allows retry after a
  /// timeout, when the first send might have been served already.
  bool idempotent = false;
  /// When set and every attempt found the procedure's process dead, ask
  /// the Manager to sch_move the procedure to this machine and try once
  /// more — migration-based failover (§4.2's extension turned recovery).
  /// Ignored on a fixed binding (no Manager).
  std::string failover_machine;
  /// Fiber fabric: host-time wait per transport exchange used to *detect*
  /// lost frames; only meaningful when deadline_us > 0. Virtual-time
  /// accounting stays deterministic regardless of this value.
  int host_grace_ms = 50;
  /// The owning line's shared fault budget; charged by CallCore.
  /// Empty = unbudgeted (nested host calls, manager-internal calls). Set
  /// automatically on every stub created through rpc::Line.
  std::shared_ptr<LineBudget> line_budget;

  /// The historical call contract: no deadline, one stale/dead-address
  /// retry, no backoff sleep.
  static CallOptions legacy();
};

/// One attempt's outcome in the CallResult trace.
struct CallAttempt {
  int number = 1;             ///< 1-based
  std::string address;        ///< binding the attempt was sent to
  util::Status status;
  util::SimTime backoff_us = 0;  ///< backoff slept before this attempt
  util::SimTime virtual_us = 0;  ///< fabric time the attempt consumed
};

/// What a call produced: a Status instead of a throw, the values on
/// success, and the per-attempt trace for diagnostics and tests.
struct CallResult {
  util::Status status;
  /// Import-signature-parallel slots; valid only when ok(). val slots
  /// keep the caller's arguments, res/var slots carry results.
  uts::ValueList values;
  std::vector<CallAttempt> attempts;
  bool failed_over = false;      ///< migration-based failover was used
  util::SimTime virtual_us = 0;  ///< total fabric time of the call

  bool ok() const { return status.is_ok(); }
  int attempt_count() const { return static_cast<int>(attempts.size()); }

  /// The values on success, or the status re-raised as its original
  /// Error subclass — for callers that want a throw.
  uts::ValueList& values_or_raise() {
    status.raise_if_error();
    return values;
  }
};

/// Poll a Manager replica group for the current leader (kMetaWhoIsLeader).
/// Returns the leader address, or "" when no replica named one within
/// `rounds` polls (each round visits every replica, then sleeps ~20ms of
/// host time — elections settle within a few election timeouts).
///
/// With `settle_ms` > 0 (the group's slowest election timeout) the poll
/// also returns "" early: once a majority of `replicas` has named the same
/// silent leader at the same term over consecutive rounds spanning more
/// than `settle_ms`. A follower still on one term after every election
/// timer would have fired is hearing that leader's heartbeats, so the
/// leader lives and only the caller is cut off from it; a dead leader's
/// followers change term within that window. `replicas` must then be the
/// whole group, since the majority is counted over it.
std::string discover_manager_leader(MessageIo& io,
                                    const std::vector<std::string>& replicas,
                                    int rounds = 50, int settle_ms = 0);

/// A client's link to the Manager replica group: the replica list and the
/// only cache of the leader's address. A Session owns one and lends it to
/// every Line's CallCore; a procedure host builds a one-member link from
/// the Manager that started it.
///
/// Threading: many lines send through one link at once. The leader is
/// copied out under `rpc.Session.leader` and each exchange runs without
/// it; a leader change is logged under it (lock_hierarchy.md).
class ManagerLink {
 public:
  /// `leader` is the Manager to ask first; `replicas` the whole group
  /// (empty for a one-member group, whose Manager is then never replaced)
  /// and `settle_ms` its slowest election timeout, which bounds how long
  /// a poll waits on a leader the rest of the group still follows (see
  /// discover_manager_leader).
  explicit ManagerLink(std::string leader,
                       std::vector<std::string> replicas = {},
                       int settle_ms = 0)
      : leader_(std::move(leader)),
        replicas_(std::move(replicas)),
        settle_ms_(settle_ms) {}
  ManagerLink(const ManagerLink&) = delete;
  ManagerLink& operator=(const ManagerLink&) = delete;

  /// Send `msg` to the leader over `io` and return its reply, error
  /// replies raised as exceptions (like MessageIo::call). Each exchange
  /// waits at most `host_grace_ms` of host time; 0 means 500 ms on a
  /// replica group and no bound on a one-member group. On a replica group
  /// a dead or silent Manager sends the link to poll the group, and a
  /// follower's kNotLeader to its leader hint (or to a poll when it has
  /// none); the request is re-sent, at most four exchanges in all. Throws
  /// util::UnavailableError when no replica reports a leader, or when the
  /// group still follows a leader this link cannot reach.
  Message request(MessageIo& io, Message msg, int host_grace_ms = 0);

  /// The leader as this link last saw it.
  std::string leader() const;
  const std::vector<std::string>& replicas() const { return replicas_; }

 private:
  /// Re-point the link after `failed` let an exchange down: at `hint`
  /// when it names another Manager, else at whatever leader a poll of
  /// the group finds (unless another line already moved the link on).
  void follow(MessageIo& io, const std::string& failed,
              const std::string& hint);
  /// Adopt `leader`, counting rpc.meta.rebinds_after_failover on a change.
  void adopt(const std::string& leader);

  mutable util::Mutex mu_{"rpc.Session.leader"};
  std::string leader_ SCHOONER_GUARDED_BY(mu_);
  const std::vector<std::string> replicas_;
  const int settle_ms_;
};

struct CallCore;

/// A call in flight, the engine's one pending-call type on both fabrics:
/// CallCore::issue sends the first attempt, and get() awaits its reply
/// and drives whatever attempts remain — the loop a lock-step call runs.
/// get() runs on the caller's own thread and is idempotent. Dropping an
/// un-got call abandons its seq (the late reply is discarded) and
/// releases its line-budget slot. Must not outlive the stub that issued
/// it.
class PendingCall {
 public:
  PendingCall(PendingCall&&) noexcept = default;
  ~PendingCall();

  CallResult& get();

 private:
  friend struct CallCore;
  /// Runs the line-budget gates; a refused call is born done.
  PendingCall(const CallCore& core, const std::string& name,
              const uts::ProcDecl& decl, const std::string& import_text,
              uts::ValueList args, BindingCache& cache, CallOptions opts);

  /// Attempts until the call is done; a lock-step call opens a span per
  /// attempt.
  void drive(bool span_attempts);
  /// An attempt's first half: deadline gate, backoff, bind, marshal and
  /// issue. False when the attempt ended before its request was in
  /// flight.
  bool send_attempt(std::optional<obs::Span>* attempt_span);
  /// Its second half: await the reply and settle the attempt.
  void await_attempt();
  void succeed(const Message& reply);
  /// Record the failed attempt; retry, fail over or give up.
  void end_attempt(bool retryable);
  /// sch_move the procedure to opts_.failover_machine; false (with the
  /// refusal recorded) when the move failed.
  bool fail_over();
  void finish_failed();
  /// Leave the call done, its line-budget slot released.
  void finish();
  /// Forget a binding a failure made suspect (not a fixed one).
  void unbind();
  /// Settle a timed-out attempt; true when it may be retried.
  bool timed_out(const util::DeadlineError& e);
  /// The attempt's share of the deadline (0 = none).
  util::SimTime attempt_budget() const;
  /// Fiber fabric: the host-time window that detects a lost frame.
  int grace_ms() const {
    return opts_.deadline_us > 0 ? std::max(opts_.host_grace_ms, 1) : 0;
  }

  /// The engine; a move leaves it null, so only the moved-to call
  /// abandons or releases anything.
  struct Unowned {
    void operator()(const CallCore*) const noexcept {}
  };
  std::unique_ptr<const CallCore, Unowned> core_;
  const std::string* name_;
  const uts::Signature* signature_;
  const std::string* import_text_;
  BindingCache* cache_;
  CallOptions opts_;
  /// The caller's arguments; the reply's res/var slots land here.
  uts::ValueList args_;
  CallResult result_;
  CallAttempt attempt_;  ///< the attempt under way
  Issued in_flight_;
  util::SimTime start_ = 0, deadline_abs_ = 0, attempt_start_ = 0;
  std::chrono::steady_clock::time_point issued_;  ///< for latency_us
  std::size_t request_bytes_ = 0;
  int attempts_left_ = 0;
  util::ErrorCode last_code_ = util::ErrorCode::kUnknown;
  bool failover_tried_ = false;
  bool holds_slot_ = false;  ///< of opts_.line_budget's outstanding cap
  bool done_ = false;
};

struct CallCore {
  /// The data plane: issue/await by seq and the fabric's clock.
  CallTransport* transport = nullptr;
  /// The control plane: Manager traffic (bind, sch_move) through
  /// `manager_link`. Unused on a fixed binding.
  MessageIo* io = nullptr;
  /// Not owned. Null = a fixed binding (a TCP stub): the cache's address
  /// is the procedure's for good, so a dead connection is retried on the
  /// same address.
  ManagerLink* manager_link = nullptr;
  LineId line = kNoLine;
  const arch::ArchDescriptor* arch = nullptr;
  /// Bills simulated marshal CPU time (may be empty).
  std::function<void(double)> compute;

  /// The lock-step call: issue and await on the caller's thread. Resolves
  /// `name` through the Manager (filling `cache`), marshals, then drives
  /// the attempt loop: deadline enforcement at the transport wait,
  /// stale-binding rebind, jittered exponential backoff, idempotent
  /// retry, the line budget and migration-based failover per `opts`.
  /// Never throws for transport or peer failures — they come back as
  /// CallResult.status.
  CallResult invoke(const std::string& name, const uts::ProcDecl& import_decl,
                    const std::string& import_text, uts::ValueList args,
                    BindingCache& cache, CallOptions opts) const;

  /// The same call split in two: send the first attempt now and return
  /// it in flight, so independent calls overlap — on different lines, or
  /// several on one line or connection. `cache` must outlive it.
  PendingCall issue(const std::string& name, const uts::ProcDecl& import_decl,
                    const std::string& import_text, uts::ValueList args,
                    BindingCache& cache, CallOptions opts) const;

  /// Just the bind step: one kLookup through `manager_link`, which bounds
  /// and re-sends it by ManagerLink::request's rule (`host_grace_ms` > 0 is
  /// the caller's bound per exchange). PendingCall binds through it, and
  /// so does RemoteProc::ping on a cold binding.
  void bind(const std::string& name, const std::string& import_text,
            BindingCache& cache, int host_grace_ms = 0) const;
};

}  // namespace npss::rpc
