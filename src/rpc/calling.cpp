#include "rpc/calling.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>

#include "obs/trace.hpp"
#include "rpc/metrics.hpp"
#include "sim/fiber.hpp"
#include "util/log.hpp"

namespace npss::rpc {

namespace {

// SplitMix64 — same generator family the sim-layer FaultInjector uses, so
// backoff jitter shares its statistical quality and, crucially, its
// determinism: the draw depends only on the virtual clock and the attempt
// number, never on host timing.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double uniform01(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Backoff before retry number `retry_index` (1-based over the retries,
/// not the attempts): exponential with deterministic +-jitter.
util::SimTime backoff_us(const BackoffPolicy& policy, int retry_index,
                         util::SimTime virtual_now) {
  if (policy.initial_us <= 0) return 0;
  double delay = static_cast<double>(policy.initial_us) *
                 std::pow(std::max(policy.multiplier, 1.0), retry_index - 1);
  delay = std::min(delay, static_cast<double>(policy.max_us));
  if (policy.jitter > 0.0) {
    const double u = uniform01(
        mix64(static_cast<std::uint64_t>(virtual_now) ^
              mix64(static_cast<std::uint64_t>(retry_index))));
    delay *= 1.0 + policy.jitter * (2.0 * u - 1.0);
  }
  return static_cast<util::SimTime>(std::max(delay, 0.0));
}

}  // namespace

std::string discover_manager_leader(MessageIo& io,
                                    const std::vector<std::string>& replicas,
                                    int rounds) {
  for (int round = 0; round < rounds; ++round) {
    for (const std::string& address : replicas) {
      Message who;
      who.kind = MessageKind::kMetaWhoIsLeader;
      try {
        Message ack = io.call_within(address, std::move(who),
                                     /*host_grace_ms=*/100,
                                     /*raise_errors=*/false);
        // Only a replica's claim about *itself* counts: a follower that
        // has not yet heard of the leader's death would keep naming the
        // corpse, and adopting it would burn the caller's retry budget
        // before the election even fires.
        if (ack.kind == MessageKind::kMetaLeaderAck && ack.a == address) {
          return ack.a;
        }
        // Anything else = election in progress or stale; keep polling.
      } catch (const util::Error&) {
        // Dead replica; try the next one.
      }
    }
    sim::sleep_for(std::chrono::milliseconds(20));
  }
  return {};
}

bool CallCore::rediscover_manager() const {
  if (manager_replicas.empty()) return false;
  std::string leader = discover_manager_leader(*io, manager_replicas);
  if (leader.empty()) return false;
  if (leader != manager) {
    NPSS_LOG_INFO("rpc.call", "manager leader moved: ", manager, " -> ",
                  leader);
    count(rpc_metrics().meta_rebinds_after_failover);
  }
  manager = leader;
  return true;
}

CallOptions CallOptions::legacy() {
  CallOptions opts;
  opts.deadline_us = 0;       // block forever, as the original runtime did
  opts.max_attempts = 2;      // the historical one-rebind retry loop
  opts.backoff.initial_us = 0;  // no backoff sleep: virtual time unchanged
  opts.idempotent = false;
  return opts;
}

void CallCore::bind(const std::string& name, const std::string& import_text,
                    BindingCache& cache, int host_grace_ms) const {
  obs::Span span("rpc.client", "bind " + name);
  for (int attempt = 0;; ++attempt) {
    Message lookup;
    lookup.kind = MessageKind::kLookup;
    lookup.line = line;
    lookup.a = name;
    lookup.b = import_text;
    lookup.trace = span.context();
    Message ack;
    try {
      ack = host_grace_ms > 0
                ? io->call_within(manager, std::move(lookup), host_grace_ms,
                                  /*raise_errors=*/false)
                : io->call(manager, std::move(lookup),
                           /*raise_errors=*/false);
    } catch (const util::NoRouteError&) {
      // The Manager we knew is dead. With a replica group, find the new
      // leader and re-ask; alone, the bind fails as it always did.
      if (attempt >= 3 || !rediscover_manager()) throw;
      continue;
    } catch (const util::DeadlineError&) {
      if (attempt >= 3 || !rediscover_manager()) throw;
      continue;
    }
    if (ack.is_error() &&
        static_cast<util::ErrorCode>(ack.n) == util::ErrorCode::kNotLeader &&
        attempt < 3 && !manager_replicas.empty()) {
      // A follower answered: it names its best leader guess in .b; an
      // empty hint (election in progress) falls back to polling the group.
      if (!ack.b.empty() && ack.b != manager) {
        manager = ack.b;
        count(rpc_metrics().meta_rebinds_after_failover);
      } else if (!rediscover_manager()) {
        ack.raise_if_error();
      }
      continue;
    }
    ack.raise_if_error();
    cache.address = ack.a;
    cache.resolved_name = ack.b;
    cache.lookups.add();
    count(rpc_metrics().client_lookups);
    return;
  }
}

CallResult CallCore::invoke(const std::string& name,
                            const uts::ProcDecl& import_decl,
                            const std::string& import_text, uts::ValueList args,
                            BindingCache& cache,
                            const CallOptions& opts) const {
  CallResult result;
  const uts::Signature& sig = import_decl.signature;
  if (args.size() != sig.size()) {
    result.status = util::Status(
        util::ErrorCode::kTypeMismatch,
        "call to '" + name + "': " + std::to_string(args.size()) +
            " arguments for " + std::to_string(sig.size()) + " parameters");
    return result;
  }

  // One span covers the whole fault-tolerant call; each attempt opens a
  // child below so a trace shows retries as siblings, not fresh roots.
  // The line tag lets a multi-tenant run's traces be sliced per line.
  obs::Span span("rpc.client", "call " + name);
  span.set_line(line);
  const util::SimTime virtual_start = clock ? clock->now() : 0;

  // Line-budget gates: a line that has spent its virtual budget, or holds
  // its full outstanding-call quota, fails fast — its failure mode stays
  // its own instead of becoming queue depth for its neighbors.
  LineBudget* budget = opts.line_budget.get();
  if (budget) {
    if (budget->virtual_exhausted()) {
      count(rpc_metrics().line_budget_exhausted);
      result.status = util::Status(
          util::ErrorCode::kBudgetExhausted,
          "call to '" + name + "': line " + std::to_string(line) +
              " virtual budget of " +
              std::to_string(budget->limits().virtual_us) + "us is spent");
      return result;
    }
    if (!budget->try_begin_call()) {
      count(rpc_metrics().line_budget_exhausted);
      result.status = util::Status(
          util::ErrorCode::kBudgetExhausted,
          "call to '" + name + "': line " + std::to_string(line) +
              " outstanding-call quota of " +
              std::to_string(budget->limits().outstanding) + " is full");
      return result;
    }
  }
  // Release the in-flight slot and bill the line's virtual spend on every
  // exit path (success, failure, or a throw from marshal/bind).
  struct BudgetGuard {
    LineBudget* budget;
    const util::VirtualClock* clock;
    util::SimTime start;
    ~BudgetGuard() {
      if (!budget) return;
      budget->end_call();
      if (clock) budget->charge_virtual(clock->now() - start);
    }
  } budget_guard{budget, clock, virtual_start};
  const bool deadlined = opts.deadline_us > 0;
  const util::SimTime deadline_abs =
      deadlined && clock ? virtual_start + opts.deadline_us : 0;
  const int grace_ms = deadlined ? std::max(opts.host_grace_ms, 1) : 0;
  const int max_attempts = std::max(opts.max_attempts, 1);

  // Marshal exactly once, into the binding's kept request; every attempt
  // re-sends that same Message.
  Message& request = cache.request;
  request.kind = MessageKind::kCall;
  request.line = line;
  if (request.b != import_text) request.b = import_text;
  bool marshaled = false;

  int attempts_left = max_attempts;
  bool failover_tried = false;
  util::ErrorCode last_code = util::ErrorCode::kUnknown;

  while (attempts_left > 0) {
    CallAttempt attempt;
    attempt.number = static_cast<int>(result.attempts.size()) + 1;
    const util::SimTime attempt_start = clock ? clock->now() : 0;

    // Deadline gate: out of virtual budget means no more attempts, even
    // if the retry budget says otherwise.
    if (deadline_abs > 0 && clock && clock->now() >= deadline_abs) {
      result.status = util::Status(
          util::ErrorCode::kDeadlineExceeded,
          "call to '" + name + "': deadline of " +
              std::to_string(opts.deadline_us) + "us exhausted after " +
              std::to_string(result.attempts.size()) + " attempt(s)");
      break;
    }

    // Backoff before retries (never the first attempt, and never after a
    // stale-binding redirect — the Manager already told us where to go).
    if (attempt.number > 1 && last_code != util::ErrorCode::kStaleBinding) {
      attempt.backoff_us =
          backoff_us(opts.backoff, attempt.number - 1, attempt_start);
      if (attempt.backoff_us > 0 && sleep) sleep(attempt.backoff_us);
    }

    // Bind (or rebind after a failure cleared the cache).
    bool retryable = false;
    try {
      if (cache.address.empty()) bind(name, import_text, cache, grace_ms);
      if (!marshaled) {
        if (!cache.request_plan) {
          cache.request_plan = uts::compile_plan(sig, uts::Direction::kRequest);
          cache.reply_plan = uts::compile_plan(sig, uts::Direction::kReply);
        }
        util::ByteWriter blob(std::move(request.blob));
        blob.truncate(0);  // keep the buffer, drop the last call's bytes
        cache.request_plan->marshal_into(*arch, args, blob);
        request.blob = std::move(blob).take();
        if (compute) {
          compute(static_cast<double>(request.blob.size()) *
                  kMarshalUsPerByte);
        }
        marshaled = true;
      }
      attempt.address = cache.address;

      obs::Span attempt_span(
          "rpc.client", "attempt " + std::to_string(attempt.number));
      request.a = cache.resolved_name;  // a rebind may have re-cased it
      request.trace = attempt_span.context();
      Message reply = grace_ms > 0
                          ? io->call_within(cache.address, request, grace_ms,
                                            /*raise_errors=*/false)
                          : io->call(cache.address, request,
                                     /*raise_errors=*/false);

      if (reply.is_error()) {
        const auto code = static_cast<util::ErrorCode>(reply.n);
        attempt.status = util::Status(code, reply.a);
        if (code == util::ErrorCode::kStaleBinding) {
          // The peer exists but no longer hosts the proc: rebind and go
          // again immediately — the request never executed.
          retryable = true;
          cache.address.clear();
          cache.stale_retries.add();
          count(rpc_metrics().client_stale_retries);
        }
      } else {
        if (compute) {
          compute(static_cast<double>(reply.blob.size()) * kMarshalUsPerByte);
        }
        // Results land in the caller's own list: val slots keep the
        // arguments, res/var slots take the reply.
        cache.reply_plan->unmarshal_into(*arch, reply.blob, args);
        attempt.status = util::Status::ok();
        attempt.virtual_us = clock ? clock->now() - attempt_start : 0;
        const int attempt_number = attempt.number;
        result.attempts.push_back(std::move(attempt));
        result.status = util::Status::ok();
        result.values = std::move(args);
        result.virtual_us = clock ? clock->now() - virtual_start : 0;
        if (obs::enabled()) {
          RpcMetrics& m = rpc_metrics();
          m.client_calls.add();
          if (!cache.calls) cache.calls = &client_calls_counter(name);
          cache.calls->add();
          m.client_bytes_marshaled.add(request.blob.size() +
                                       reply.blob.size());
          m.client_latency_us.record(span.elapsed_us());
          if (clock) {
            m.client_virtual_latency_us.record(
                static_cast<double>(result.virtual_us));
          }
          if (attempt_number > 1) m.client_recovered_calls.add();
        }
        return result;
      }
    } catch (const util::NoRouteError& e) {
      // Dead address: the send itself failed, so the request never ran —
      // always safe to rebind and retry.
      attempt.status = util::Status::from(e);
      retryable = true;
      cache.address.clear();
      cache.stale_retries.add();
      count(rpc_metrics().client_stale_retries);
      NPSS_LOG_DEBUG("rpc.call", "stale address for '", name,
                     "', re-binding via manager");
    } catch (const util::DeadlineError& e) {
      // The transport wait gave up: a frame was dropped or the peer died
      // mid-call. Charge the attempt's virtual budget (the caller *sat*
      // there for it) so elapsed virtual time stays deterministic, then
      // retry only when the request is idempotent — it may have executed.
      attempt.status = util::Status::from(e);
      count(rpc_metrics().client_timeouts);
      if (clock && deadline_abs > 0) {
        const util::SimTime budget =
            opts.attempt_timeout_us > 0
                ? opts.attempt_timeout_us
                : std::max<util::SimTime>(
                      (deadline_abs - attempt_start) /
                          std::max(attempts_left, 1),
                      1);
        if (sleep) sleep(budget);
      }
      retryable = opts.idempotent;
      cache.address.clear();  // the peer may be gone; rebind on retry
    } catch (const util::Error& e) {
      // Bind/lookup/marshal failures and endpoint shutdown are terminal.
      attempt.status = util::Status::from(e);
      retryable = false;
    }

    last_code = attempt.status.code();
    attempt.virtual_us = clock ? clock->now() - attempt_start : 0;
    result.status = attempt.status;
    result.attempts.push_back(std::move(attempt));
    --attempts_left;
    if (!retryable) break;
    // A retry spends the *line's* budget too: once it is gone the line
    // stops storming and surfaces kBudgetExhausted instead.
    if (attempts_left > 0 && budget && !budget->charge_retry()) {
      count(rpc_metrics().line_budget_exhausted);
      result.status = util::Status(
          util::ErrorCode::kBudgetExhausted,
          "call to '" + name + "': line " + std::to_string(line) +
              " retry budget of " + std::to_string(budget->limits().retries) +
              " is spent; last error: " + result.status.to_string());
      break;
    }
    if (attempts_left > 0) count(rpc_metrics().client_retries);

    // Migration-based failover: every retry found the process dead, so
    // ask the Manager to sch_move the procedure onto a healthy machine
    // and spend one final attempt on the new placement.
    if (attempts_left == 0 && !failover_tried &&
        !opts.failover_machine.empty() &&
        (last_code == util::ErrorCode::kNoRoute ||
         last_code == util::ErrorCode::kDeadlineExceeded)) {
      failover_tried = true;
      NPSS_LOG_WARN("rpc.call", "failing over '", name, "' to machine '",
                    opts.failover_machine, "' via sch_move");
      auto send_move = [&]() {
        Message mv;
        mv.kind = MessageKind::kMove;
        mv.line = line;
        mv.a = cache.resolved_name.empty() ? name : cache.resolved_name;
        mv.b = opts.failover_machine;
        mv.trace = span.context();
        return grace_ms > 0
                   ? io->call_within(manager, std::move(mv),
                                     std::max(grace_ms * 10, 500))
                   : io->call(manager, std::move(mv));
      };
      try {
        Message ack;
        try {
          ack = send_move();
        } catch (const util::NoRouteError&) {
          // The Manager died with the procedure's machine. Re-bind to the
          // new leader (which rebuilt the export table, spec hashes
          // included, from the replicated log) and retry the move there.
          if (!rediscover_manager()) throw;
          ack = send_move();
        } catch (const util::NotLeaderError&) {
          if (!rediscover_manager()) throw;
          ack = send_move();
        }
        cache.address = ack.a;
        result.failed_over = true;
        attempts_left = 1;  // the post-failover attempt
        count(rpc_metrics().client_failovers);
        continue;
      } catch (const util::Error& e) {
        NPSS_LOG_WARN("rpc.call", "failover of '", name,
                      "' failed: ", e.what());
        // Record the refused sch_move as its own attempt so the trace
        // shows *why* the failover died (e.g. the Manager's compat gate
        // rejecting an incompatible replacement replica).
        CallAttempt move_attempt;
        move_attempt.number = static_cast<int>(result.attempts.size()) + 1;
        move_attempt.address = "sch_move -> " + opts.failover_machine;
        move_attempt.status = util::Status::from(e);
        result.attempts.push_back(std::move(move_attempt));
        result.status = util::Status(
            util::ErrorCode::kUnavailable,
            "call to '" + name + "': " + result.status.message() +
                "; failover to '" + opts.failover_machine +
                "' failed: " + util::Status::from(e).message());
        break;
      }
    }
  }

  if (result.status.is_ok()) {
    // Retry budget exhausted without ever reaching the attempt loop body
    // (deadline gate fired before the first attempt).
    result.status = util::Status(
        util::ErrorCode::kDeadlineExceeded,
        "call to '" + name + "': no attempt possible within deadline");
  }
  result.virtual_us = clock ? clock->now() - virtual_start : 0;
  count(rpc_metrics().client_failed_calls);
  NPSS_LOG_DEBUG("rpc.call", "call to '", name,
                 "' failed: ", result.status.to_string(), " after ",
                 result.attempts.size(), " attempt(s)");
  return result;
}

std::future<CallResult> CallCore::invoke_async(
    const std::string& name, const uts::ProcDecl& import_decl,
    const std::string& import_text, uts::ValueList args, BindingCache& cache,
    const CallOptions& opts) const {
  // std::launch::async: the call must make progress without the caller
  // blocking on get() — that is the whole point of overlapping.
  return std::async(
      std::launch::async,
      [core = *this, name, import_decl, import_text, args = std::move(args),
       &cache, opts]() mutable {
        return core.invoke(name, import_decl, import_text, std::move(args),
                           cache, opts);
      });
}

}  // namespace npss::rpc
