#include "rpc/calling.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <utility>

#include "obs/trace.hpp"
#include "rpc/metrics.hpp"
#include "sim/fiber.hpp"
#include "util/log.hpp"

namespace npss::rpc {

namespace {

/// Exchanges one ManagerLink::request may make, re-sends included.
constexpr int kMaxManagerExchanges = 4;

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
                                    int rounds, int settle_ms) {
  using Clock = std::chrono::steady_clock;
  // How many followers of one round named a (leader, term), and when the
  // first of them was asked.
  struct Claim {
    std::size_t count = 0;
    Clock::time_point asked;
  };
  // The (leader, term) a majority has named while that leader stayed
  // silent, and the start of the first round that saw it.
  std::pair<std::string, std::int64_t> held;
  Clock::time_point held_since;
  for (int round = 0; round < rounds; ++round) {
    const Clock::time_point round_start = Clock::now();
    std::set<std::string> answered;
    std::map<std::pair<std::string, std::int64_t>, Claim> named;
    for (const std::string& address : replicas) {
      Message who;
      who.kind = MessageKind::kMetaWhoIsLeader;
      const Clock::time_point asked = Clock::now();
      try {
        Message ack = io.call_within(address, std::move(who),
                                     /*host_grace_ms=*/100,
                                     /*raise_errors=*/false);
        answered.insert(address);
        // Only a replica's claim about *itself* names the leader: a
        // follower that has not yet heard of the leader's death would keep
        // naming the corpse, and adopting it would burn the caller's retry
        // budget before the election even fires.
        if (ack.kind != MessageKind::kMetaLeaderAck) continue;
        if (ack.a == address) return ack.a;
        // A follower's claim (.n is its term) counts only towards the
        // early stop below.
        if (ack.a.empty()) continue;
        Claim& claim = named[{ack.a, ack.n}];
        if (claim.count++ == 0) claim.asked = asked;
      } catch (const util::Error&) {
        // Dead or silent replica; try the next one.
      }
    }
    const std::pair<std::string, std::int64_t>* majority = nullptr;
    for (const auto& [leader, claim] : named) {
      if (claim.count > replicas.size() / 2 &&
          !answered.contains(leader.first)) {
        majority = &leader;
      }
    }
    if (settle_ms <= 0 || majority == nullptr) {
      held = {};
    } else if (*majority != held) {
      held = *majority;
      held_since = round_start;
    } else if (named.at(held).asked - held_since >
               std::chrono::milliseconds(settle_ms)) {
      // A follower asked a full election timeout after the leader first
      // went silent still follows it on the same term, so it heard the
      // leader's heartbeats since: the leader lives, and only this caller
      // is cut off from it.
      return {};
    }
    sim::sleep_for(std::chrono::milliseconds(20));
  }
  return {};
}

std::string ManagerLink::leader() const {
  util::MutexLock lock(mu_);
  return leader_;
}

void ManagerLink::adopt(const std::string& leader) {
  util::MutexLock lock(mu_);
  if (leader == leader_) return;
  NPSS_LOG_INFO("rpc.call", "manager leader moved: ", leader_, " -> ",
                leader);
  count(rpc_metrics().meta_rebinds_after_failover);
  leader_ = leader;
}

void ManagerLink::follow(MessageIo& io, const std::string& failed,
                         const std::string& hint) {
  if (!hint.empty() && hint != failed) return adopt(hint);
  if (leader() != failed) return;  // another line got here first
  std::string found =
      discover_manager_leader(io, replicas_, /*rounds=*/50, settle_ms_);
  if (found.empty()) {
    throw util::UnavailableError(
        "no reachable Manager replica reports a leader; the control plane "
        "is down or cut off from this machine");
  }
  adopt(found);
}

Message ManagerLink::request(MessageIo& io, Message msg, int host_grace_ms) {
  const bool group = !replicas_.empty();
  // With a replica group a hung leader (e.g. partitioned away) must not
  // block the client forever; a one-member group blocks until it answers.
  if (host_grace_ms <= 0 && group) host_grace_ms = 500;
  for (int exchange = 1;; ++exchange) {
    const bool last = !group || exchange == kMaxManagerExchanges;
    const std::string target = leader();
    Message ack;
    try {
      // A re-send re-issues `msg` under a fresh seq.
      ack = host_grace_ms > 0
                ? io.call_within(target, msg, host_grace_ms,
                                 /*raise_errors=*/false)
                : io.call(target, msg, /*raise_errors=*/false);
    } catch (const util::Error& e) {
      // A dead or silent Manager: find the leader and ask again.
      if (last || (e.code() != util::ErrorCode::kNoRoute &&
                   e.code() != util::ErrorCode::kDeadlineExceeded)) {
        throw;
      }
      follow(io, target, {});
      continue;
    }
    if (!last && ack.is_error() &&
        static_cast<util::ErrorCode>(ack.n) == util::ErrorCode::kNotLeader) {
      // A follower answered: it names its best leader guess in .b; an
      // empty hint (election in progress) falls back to polling.
      follow(io, target, ack.b);
      continue;
    }
    ack.raise_if_error();
    return ack;
  }
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
  Message lookup;
  lookup.kind = MessageKind::kLookup;
  lookup.line = line;
  lookup.a = name;
  lookup.b = import_text;
  lookup.trace = span.context();
  Message ack = manager_link->request(*io, std::move(lookup), host_grace_ms);
  cache.address = std::move(ack.a);
  cache.resolved_name = std::move(ack.b);
  cache.lookups.add();
  count(rpc_metrics().client_lookups);
}

CallResult CallCore::invoke(const std::string& name,
                            const uts::ProcDecl& import_decl,
                            const std::string& import_text, uts::ValueList args,
                            BindingCache& cache, CallOptions opts) const {
  // One span covers the whole fault-tolerant call; each attempt opens a
  // child below so a trace shows retries as siblings, not fresh roots.
  // The line tag lets a multi-tenant run's traces be sliced per line.
  if (cache.span_label.empty()) cache.span_label = "call " + name;
  obs::Span span("rpc.client", cache.span_label);
  span.set_line(line);
  PendingCall call(*this, name, import_decl, import_text, std::move(args),
                   cache, std::move(opts));
  call.drive(/*span_attempts=*/true);
  return std::move(call.result_);
}

PendingCall CallCore::issue(const std::string& name,
                            const uts::ProcDecl& import_decl,
                            const std::string& import_text,
                            uts::ValueList args, BindingCache& cache,
                            CallOptions opts) const {
  PendingCall call(*this, name, import_decl, import_text, std::move(args),
                   cache, std::move(opts));
  if (!call.done_) call.send_attempt(nullptr);
  return call;
}

// --- PendingCall: the attempt loop -------------------------------------------

PendingCall::PendingCall(const CallCore& core, const std::string& name,
                         const uts::ProcDecl& decl,
                         const std::string& import_text, uts::ValueList args,
                         BindingCache& cache, CallOptions opts)
    : core_(&core),
      name_(&name),
      signature_(&decl.signature),
      import_text_(&import_text),
      cache_(&cache),
      opts_(std::move(opts)),
      args_(std::move(args)) {
  if (args_.size() != signature_->size()) {
    result_.status = util::Status(
        util::ErrorCode::kTypeMismatch,
        "call to '" + name + "': " + std::to_string(args_.size()) +
            " arguments for " + std::to_string(signature_->size()) +
            " parameters");
    done_ = true;
    return;
  }
  start_ = core.transport->now();
  if (obs::enabled()) issued_ = std::chrono::steady_clock::now();

  // Line-budget gates: a line that has spent its virtual budget, or holds
  // its full outstanding-call quota, fails fast — its failure mode stays
  // its own instead of becoming queue depth for its neighbors.
  if (LineBudget* budget = opts_.line_budget.get()) {
    const bool spent = budget->virtual_exhausted();
    if (spent || !budget->try_begin_call()) {
      count(rpc_metrics().line_budget_exhausted);
      result_.status = util::Status(
          util::ErrorCode::kBudgetExhausted,
          "call to '" + name + "': line " + std::to_string(core.line) +
              (spent ? " virtual budget of " +
                           std::to_string(budget->limits().virtual_us) +
                           "us is spent"
                     : " outstanding-call quota of " +
                           std::to_string(budget->limits().outstanding) +
                           " is full"));
      done_ = true;
      return;
    }
    holds_slot_ = true;
  }
  deadline_abs_ = opts_.deadline_us > 0 ? start_ + opts_.deadline_us : 0;
  attempts_left_ = std::max(opts_.max_attempts, 1);
}

PendingCall::~PendingCall() {
  if (!core_) return;
  if (in_flight_.seq != 0) core_->transport->abandon(in_flight_);
  finish();
}

CallResult& PendingCall::get() {
  drive(/*span_attempts=*/false);
  return result_;
}

void PendingCall::drive(bool span_attempts) {
  while (!done_) {
    std::optional<obs::Span> attempt_span;
    if (in_flight_.seq != 0 ||
        send_attempt(span_attempts ? &attempt_span : nullptr)) {
      await_attempt();
    }
  }
}

void PendingCall::unbind() {
  if (core_->manager_link) cache_->address.clear();
}

bool PendingCall::send_attempt(std::optional<obs::Span>* attempt_span) {
  const CallCore& core = *core_;
  BindingCache& cache = *cache_;
  attempt_ = CallAttempt{};
  attempt_.number = result_.attempt_count() + 1;
  attempt_start_ = core.transport->now();

  // Deadline gate: out of budget means no more attempts, even if the
  // retry budget says otherwise.
  if (deadline_abs_ > 0 && attempt_start_ >= deadline_abs_) {
    result_.status = util::Status(
        util::ErrorCode::kDeadlineExceeded,
        "call to '" + *name_ + "': deadline of " +
            std::to_string(opts_.deadline_us) + "us exhausted after " +
            std::to_string(result_.attempts.size()) + " attempt(s)");
    finish_failed();
    return false;
  }

  // Backoff before retries (never the first attempt, and never after a
  // stale-binding redirect — the Manager already told us where to go).
  if (attempt_.number > 1 && last_code_ != util::ErrorCode::kStaleBinding) {
    attempt_.backoff_us =
        backoff_us(opts_.backoff, attempt_.number - 1, attempt_start_);
    if (attempt_.backoff_us > 0) core.transport->sleep(attempt_.backoff_us);
  }

  try {
    if (cache.address.empty()) {
      core.bind(*name_, *import_text_, cache, grace_ms());
    }
    if (!cache.request_plan) {
      cache.request_plan =
          uts::compile_plan(*signature_, uts::Direction::kRequest);
      cache.reply_plan = uts::compile_plan(*signature_, uts::Direction::kReply);
    }
    // Every attempt marshals into the binding's kept request (another
    // call on the binding may have used it since); the caller's CPU is
    // billed for the first.
    Message& request = cache.request;
    request.kind = MessageKind::kCall;
    request.line = core.line;
    request.a = cache.resolved_name;  // a rebind may have re-cased it
    if (request.b != *import_text_) request.b = *import_text_;
    const bool billed = request_bytes_ > 0;
    util::ByteWriter blob(std::move(request.blob));
    blob.truncate(0);  // keep the buffer, drop the last call's bytes
    cache.request_plan->marshal_into(*core.arch, args_, blob);
    request.blob = std::move(blob).take();
    request_bytes_ = request.blob.size();
    if (!billed && core.compute) {
      core.compute(static_cast<double>(request_bytes_) * kMarshalUsPerByte);
    }
    attempt_.address = cache.address;
    if (attempt_span) {
      attempt_span->emplace("rpc.client",
                            "attempt " + std::to_string(attempt_.number));
      request.trace = (*attempt_span)->context();
    } else {
      request.trace = obs::current_trace();
    }
    in_flight_ = core.transport->issue(cache.address, request);
    return true;
  } catch (const util::NoRouteError& e) {
    // Dead address: the send itself failed, so the request never ran —
    // always safe to rebind and retry. A fixed binding just reconnects:
    // no procedure moved, so no stale binding is counted.
    attempt_.status = util::Status::from(e);
    if (core.manager_link) {
      unbind();
      cache.stale_retries.add();
      count(rpc_metrics().client_stale_retries);
      NPSS_LOG_DEBUG("rpc.call", "stale address for '", *name_,
                     "', re-binding via manager");
    }
    end_attempt(/*retryable=*/true);
  } catch (const util::DeadlineError& e) {
    // The Manager did not answer the bind: billed like a lost reply.
    core.io->sleep(attempt_budget());
    end_attempt(timed_out(e));
  } catch (const util::Error& e) {
    // Lookup and marshal failures and endpoint shutdown are terminal.
    attempt_.status = util::Status::from(e);
    end_attempt(/*retryable=*/false);
  }
  return false;
}

util::SimTime PendingCall::attempt_budget() const {
  if (deadline_abs_ == 0) return 0;
  return std::max<util::SimTime>(
      (deadline_abs_ - attempt_start_) / attempts_left_, 1);
}

bool PendingCall::timed_out(const util::DeadlineError& e) {
  // A frame was dropped or the peer died mid-call. Retry only when the
  // request is idempotent — it may have executed.
  attempt_.status = util::Status::from(e);
  count(rpc_metrics().client_timeouts);
  unbind();  // the peer may be gone; rebind on retry
  return opts_.idempotent;
}

void PendingCall::await_attempt() {
  const AwaitBound bound{
      .budget_us = attempt_budget(),
      .since = attempt_start_,
      .host_grace_ms = grace_ms()};
  bool retryable = false;
  try {
    Message reply = core_->transport->await(in_flight_, bound);
    in_flight_.seq = 0;
    if (!reply.is_error()) return succeed(reply);
    const auto code = static_cast<util::ErrorCode>(reply.n);
    attempt_.status = util::Status(code, reply.a);
    if (code == util::ErrorCode::kStaleBinding) {
      // The peer exists but no longer hosts the proc: rebind and go
      // again immediately — the request never executed.
      retryable = true;
      unbind();
      cache_->stale_retries.add();
      count(rpc_metrics().client_stale_retries);
    }
  } catch (const util::DeadlineError& e) {
    // The transport billed a virtual clock for the wait.
    retryable = timed_out(e);
  } catch (const util::CallError& e) {
    // TCP: the connection died under the request, which may have run;
    // like a timeout, retried (over a fresh connection) only when
    // idempotent.
    attempt_.status = util::Status::from(e);
    retryable = opts_.idempotent;
  } catch (const util::Error& e) {
    // Endpoint shutdown and reply unmarshal failures are terminal.
    attempt_.status = util::Status::from(e);
  }
  in_flight_.seq = 0;
  end_attempt(retryable);
}

void PendingCall::succeed(const Message& reply) {
  const CallCore& core = *core_;
  if (core.compute) {
    core.compute(static_cast<double>(reply.blob.size()) * kMarshalUsPerByte);
  }
  // Results land in the caller's own list: val slots keep the arguments,
  // res/var slots take the reply.
  cache_->reply_plan->unmarshal_into(*core.arch, reply.blob, args_);
  const util::SimTime now = core.transport->now();
  attempt_.status = util::Status::ok();
  attempt_.virtual_us = now - attempt_start_;
  result_.attempts.push_back(std::move(attempt_));
  result_.status = util::Status::ok();
  result_.values = std::move(args_);
  result_.virtual_us = now - start_;
  if (obs::enabled()) {
    RpcMetrics& m = rpc_metrics();
    m.client_calls.add();
    if (!cache_->calls) cache_->calls = &client_calls_counter(*name_);
    cache_->calls->add();
    m.client_bytes_marshaled.add(request_bytes_ + reply.blob.size());
    m.client_latency_us.record(std::chrono::duration<double, std::micro>(
                                   std::chrono::steady_clock::now() - issued_)
                                   .count());
    m.client_virtual_latency_us.record(static_cast<double>(result_.virtual_us));
    if (result_.attempt_count() > 1) m.client_recovered_calls.add();
  }
  finish();
}

void PendingCall::end_attempt(bool retryable) {
  last_code_ = attempt_.status.code();
  attempt_.virtual_us = core_->transport->now() - attempt_start_;
  result_.status = attempt_.status;
  result_.attempts.push_back(std::move(attempt_));
  --attempts_left_;
  if (!retryable) return finish_failed();
  // A retry spends the *line's* budget too: once it is gone the line
  // stops storming and surfaces kBudgetExhausted instead.
  LineBudget* budget = opts_.line_budget.get();
  if (attempts_left_ > 0 && budget && !budget->charge_retry()) {
    count(rpc_metrics().line_budget_exhausted);
    result_.status = util::Status(
        util::ErrorCode::kBudgetExhausted,
        "call to '" + *name_ + "': line " + std::to_string(core_->line) +
            " retry budget of " + std::to_string(budget->limits().retries) +
            " is spent; last error: " + result_.status.to_string());
    return finish_failed();
  }
  if (attempts_left_ > 0) return count(rpc_metrics().client_retries);

  // Migration-based failover: every retry found the process dead, so
  // ask the Manager to sch_move the procedure onto a healthy machine
  // and spend one final attempt on the new placement.
  if (!failover_tried_ && !opts_.failover_machine.empty() &&
      core_->manager_link != nullptr &&
      (last_code_ == util::ErrorCode::kNoRoute ||
       last_code_ == util::ErrorCode::kDeadlineExceeded)) {
    failover_tried_ = true;
    if (fail_over()) {
      attempts_left_ = 1;  // the post-failover attempt
      return;
    }
  }
  finish_failed();
}

bool PendingCall::fail_over() {
  const CallCore& core = *core_;
  NPSS_LOG_WARN("rpc.call", "failing over '", *name_, "' to machine '",
                opts_.failover_machine, "' via sch_move");
  Message mv;
  mv.kind = MessageKind::kMove;
  mv.line = core.line;
  mv.a = cache_->resolved_name.empty() ? *name_ : cache_->resolved_name;
  mv.b = opts_.failover_machine;
  mv.trace = obs::current_trace();
  // The Manager may have died with the procedure's machine: the link
  // takes the move to the new leader, which rebuilt the export table
  // (spec hashes included) from the replicated log.
  const int grace_ms = this->grace_ms();
  try {
    Message ack = core.manager_link->request(
        *core.io, std::move(mv),
        grace_ms > 0 ? std::max(grace_ms * 10, 500) : 0);
    cache_->address = ack.a;
    result_.failed_over = true;
    count(rpc_metrics().client_failovers);
    return true;
  } catch (const util::Error& e) {
    NPSS_LOG_WARN("rpc.call", "failover of '", *name_, "' failed: ", e.what());
    // Record the refused sch_move as its own attempt so the trace shows
    // *why* the failover died (e.g. the Manager's compat gate rejecting
    // an incompatible replacement replica).
    CallAttempt move_attempt;
    move_attempt.number = result_.attempt_count() + 1;
    move_attempt.address = "sch_move -> " + opts_.failover_machine;
    move_attempt.status = util::Status::from(e);
    result_.attempts.push_back(std::move(move_attempt));
    result_.status = util::Status(
        util::ErrorCode::kUnavailable,
        "call to '" + *name_ + "': " + result_.status.message() +
            "; failover to '" + opts_.failover_machine +
            "' failed: " + util::Status::from(e).message());
    return false;
  }
}

void PendingCall::finish_failed() {
  result_.virtual_us = core_->transport->now() - start_;
  count(rpc_metrics().client_failed_calls);
  NPSS_LOG_DEBUG("rpc.call", "call to '", *name_,
                 "' failed: ", result_.status.to_string(), " after ",
                 result_.attempts.size(), " attempt(s)");
  finish();
}

void PendingCall::finish() {
  done_ = true;
  // Release the in-flight slot and bill the line's spend on every exit:
  // success, failure, or a call dropped unawaited.
  if (!holds_slot_) return;
  holds_slot_ = false;
  LineBudget& budget = *opts_.line_budget;
  budget.end_call();
  budget.charge_virtual(core_->transport->now() - start_);
}

}  // namespace npss::rpc
