#include "rpc/manager.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <optional>

#include "meta/changelog.hpp"
#include "meta/core.hpp"
#include "meta/election.hpp"
#include "meta/record.hpp"
#include "meta/snapshot.hpp"
#include "meta/state.hpp"
#include "obs/trace.hpp"
#include "rpc/metrics.hpp"
#include "util/log.hpp"

namespace npss::rpc {

namespace {

using util::ErrorCode;

/// A procedure's (canonical name, export declaration text), as the
/// changelog's kExport records carry it.
using ProcEntry = std::pair<std::string, std::string>;

/// A start or move in flight: the Server has spawned the process and the
/// Manager is waiting for its kExport before answering the requester.
struct PendingStart {
  std::string requester;
  std::uint64_t requester_seq = 0;
  MessageKind ack_kind = MessageKind::kStartAck;
  LineId line = kNoLine;
  bool shared = false;
  std::string spawned_address;
  std::string machine;
  std::string path;
  // Move bookkeeping: every procedure that lived in the moved process, so
  // the replacement's exports can be gated against the old signatures.
  std::vector<ProcEntry> moved_procs;
  std::optional<util::Bytes> state_blob;
};

/// The leader's request handlers. The replicated state machine is the
/// only state: reads (kLookup, the binding a kMove resolves) come from
/// the core's committed state, so a lookup never hands out a binding a
/// failover could forget; writes are checked against `proposed_`, the
/// committed state plus this leader's own uncommitted tail, and each one
/// becomes a changelog proposal whose client ack runs once the entry is
/// quorum-committed. Completions the leader drops when deposed simply
/// never run; the requester times out and retries against the new leader.
class ManagerState {
 public:
  ManagerState(MessageIo& io, const ManagerConfig& config,
               const std::map<std::string, std::string>& servers,
               ManagerTally& tally)
      : io_(io), config_(config), servers_(servers), tally_(tally) {
    // Manifest names obey the same case-synonym rule as lookups.
    for (const auto& [name, text] : config_.static_manifest) {
      folded_manifest_.emplace(meta::fold_case(name), &text);
    }
  }

  /// A deferred client acknowledgement: runs once the transition that
  /// produced it is durable.
  using Completion = std::function<void()>;

  /// Start serving as `core`'s leader. The projection includes the
  /// uncommitted tail the no-op barrier is about to commit — our own
  /// entries cannot be truncated while we stay leader, so checking writes
  /// against it is safe. Pending starts die with the old leader (their
  /// requesters time out and retry against this one).
  void lead(meta::ReplicaCore& core) {
    core_ = &core;
    proposed_ = core.projected_state();
    pending_.clear();
  }

  /// Unacked client work dies with the leadership.
  void step_down() { completions_.clear(); }

  /// Changelog entry `index` is durable: release its client ack.
  void committed(std::uint64_t index) {
    auto it = completions_.find(index);
    if (it == completions_.end()) return;
    Completion done = std::move(it->second);
    completions_.erase(it);
    try {
      done();
    } catch (const util::Error& e) {
      NPSS_LOG_WARN("manager", "ack for committed index ", index,
                    " undeliverable: ", e.what());
    }
  }

  /// Returns false when the manager should exit.
  bool handle(const Incoming& in) {
    const Message& msg = in.msg;
    // Join the requester's trace so lookups/moves show up in its call tree.
    obs::Span span("rpc.manager",
                   std::string(message_kind_name(msg.kind)), msg.trace);
    try {
      switch (msg.kind) {
        case MessageKind::kRegisterLine: on_register_line(in); break;
        case MessageKind::kStartRequest: on_start_request(in); break;
        case MessageKind::kExport: on_export(in); break;
        case MessageKind::kLookup: on_lookup(in); break;
        case MessageKind::kQuit: on_quit(in); break;
        case MessageKind::kMove: on_move(in); break;
        case MessageKind::kPing:
          reply(in, Message{.kind = MessageKind::kPong, .seq = msg.seq});
          break;
        case MessageKind::kManagerStop:
          on_stop(in);
          return false;
        default:
          reply(in, Message::error_reply(msg, ErrorCode::kProtocolError,
                                         "manager: unexpected " +
                                             std::string(message_kind_name(
                                                 msg.kind))));
      }
    } catch (const util::Error& e) {
      reply(in, Message::error_reply(msg, e));
    }
    return true;
  }

 private:
  void reply(const Incoming& in, Message msg) { io_.send(in.from(), msg); }

  /// Append `rec` to the changelog; `done` runs once it commits. A
  /// one-member group commits inside propose(), so its ack still goes out
  /// before the next request is handled.
  void propose(meta::ChangeRecord rec, Completion done) {
    const std::uint64_t index = core_->propose(rec);
    proposed_.apply(rec, index);
    completions_[index] = std::move(done);
  }

  void require_line(LineId id) const {
    if (!proposed_.lines().contains(id)) {
      throw util::ProtocolError("unknown line " + std::to_string(id));
    }
  }

  void on_register_line(const Incoming& in) {
    // Admission gate: past max_lines the Manager says no instead of
    // degrading for everyone already admitted. The client's
    // Session::open_line backs off and re-asks (capacity frees when a
    // neighbor quits).
    const std::size_t active = proposed_.lines().size();
    if (config_.max_lines > 0 &&
        active >= static_cast<std::size_t>(config_.max_lines)) {
      tally_.record(ManagerEvent::kLinesRejected);
      count(rpc_metrics().line_rejected);
      NPSS_LOG_DEBUG("manager", "line for '", in.msg.a, "' rejected (",
                     active, "/", config_.max_lines, " lines active)");
      reply(in, Message::error_reply(
                    in.msg, ErrorCode::kLineRejected,
                    "manager at capacity: " +
                        std::to_string(config_.max_lines) +
                        " concurrent line(s) admitted"));
      return;
    }
    const LineId id = proposed_.next_line();
    const std::int64_t quota = config_.line_call_quota;
    tally_.record(ManagerEvent::kLinesCreated);
    if (obs::enabled()) {
      rpc_metrics().line_admitted.add();
      rpc_metrics().line_active.add(1);
    }
    NPSS_LOG_DEBUG("manager", "line ", id, " registered for '", in.msg.a,
                   "' (", in.from(), ")");
    // The ack grants the per-line outstanding-call quota in .n; the
    // client folds it into the line's LineBudget. It waits for quorum
    // commit — the acked-registration-can-be-lost hole meta_check exposed.
    meta::ChangeRecord rec;
    rec.kind = meta::RecordKind::kLineCreate;
    rec.line = id;
    rec.note = in.msg.a;
    rec.quota = quota;
    propose(std::move(rec), [this, from = in.from(), seq = in.msg.seq, id,
                             quota] {
      io_.send(from, Message{.kind = MessageKind::kLineAck, .seq = seq,
                             .line = id, .n = quota});
    });
  }

  /// Spawn `path` on `machine` through its Server; returns the new address.
  std::string spawn_process(const std::string& machine,
                            const std::string& path, LineId line,
                            bool shared) {
    auto server = servers_.find(machine);
    if (server == servers_.end()) {
      throw util::NoSuchMachineError("no Schooner server on machine '" +
                                     machine + "'");
    }
    Message spawn;
    spawn.kind = MessageKind::kSpawn;
    spawn.a = path;
    spawn.b = "schx-proc";
    spawn.table = {{"manager", io_.address()},
                   {"line", std::to_string(line)},
                   {"shared", shared ? "1" : "0"},
                   {"path", path}};
    Message ack = io_.call(server->second, std::move(spawn));
    tally_.record(ManagerEvent::kProcessesStarted);
    return ack.a;
  }

  void shutdown_process(const std::string& address,
                        const std::string& reason) {
    Message stop;
    stop.kind = MessageKind::kShutdownProc;
    stop.seq = io_.next_seq();
    stop.a = reason;
    try {
      io_.send(address, std::move(stop));
    } catch (const util::NoRouteError&) {
      // Process already gone; shutdown is idempotent.
    }
  }

  void on_start_request(const Incoming& in) {
    const Message& msg = in.msg;
    const bool shared = (msg.n & 1) != 0;
    if (!shared) require_line(msg.line);
    std::string address = spawn_process(msg.a, msg.b, msg.line, shared);
    PendingStart pending;
    pending.requester = in.from();
    pending.requester_seq = msg.seq;
    pending.ack_kind = MessageKind::kStartAck;
    pending.line = shared ? kNoLine : msg.line;
    pending.shared = shared;
    pending.spawned_address = address;
    pending.machine = msg.a;
    pending.path = msg.b;
    pending_.push_back(std::move(pending));
    NPSS_LOG_DEBUG("manager", "start request: line ", msg.line, " path ",
                   msg.b, " on ", msg.a, " -> ", address);
  }

  void on_export(const Incoming& in) {
    const Message& msg = in.msg;
    // Find the pending start this export answers, if any. Exports may also
    // arrive unsolicited (a statically-started program, A3's "command
    // line" mode) in which case they are registered directly.
    auto pending_it =
        std::find_if(pending_.begin(), pending_.end(), [&](const auto& p) {
          return p.spawned_address == in.from();
        });
    const bool shared =
        (msg.n & 1) != 0 ||
        (pending_it != pending_.end() && pending_it->shared);
    const LineId line = shared ? kNoLine : msg.line;
    if (!shared) require_line(line);

    // Stale-manifest screen: the exporter stamps its spec text's sha256
    // into msg.c; a hash the manifest does not list means the spec changed
    // after uts_check ran. That alone is a warning, not a rejection — the
    // signature checks below decide whether the drift is compatible.
    if (config_.strict_static_check && !msg.c.empty() &&
        !config_.manifest_spec_hashes.empty() &&
        std::find(config_.manifest_spec_hashes.begin(),
                  config_.manifest_spec_hashes.end(),
                  msg.c) == config_.manifest_spec_hashes.end()) {
      tally_.record(ManagerEvent::kStaleManifestWarnings);
      NPSS_LOG_WARN("manager", "stale manifest: spec hash ", msg.c,
                    " of exporter ", in.from(),
                    " is not in the uts_check manifest; re-run uts_check");
    }

    try {
      // Every name must be free in its database (§4.1 case synonyms
      // included), against what this leader has already proposed and
      // against the export's own earlier names.
      std::map<std::string, uts::Signature> offered;  // by folded name
      for (const auto& [name, sig_text] : msg.table) {
        uts::ProcDecl decl = parse_signature_text(sig_text);
        if (config_.strict_static_check) static_check(name, decl);
        if (auto taken = proposed_.find(line, name)) {
          throw util::DuplicateNameError(
              "procedure '" + name + "' conflicts with existing name '" +
              taken->proc.first + "'");
        }
        if (!offered.emplace(meta::fold_case(name), decl.signature).second) {
          throw util::DuplicateNameError("procedure '" + name +
                                         "' is exported twice");
        }
      }
      // Migration compat gate: a moved procedure's replacement must offer
      // an export surface the surviving clients can still bind — every
      // old binding signature (what the callers compiled against) must be
      // compatible with the replacement's export. Refusing here dismisses
      // the incompatible replica before any call can be mis-marshaled
      // into it.
      if (pending_it != pending_.end() &&
          pending_it->ack_kind == MessageKind::kMoveAck) {
        for (const auto& [old_name, old_text] : pending_it->moved_procs) {
          auto replacement = offered.find(meta::fold_case(old_name));
          const std::string why =
              replacement == offered.end()
                  ? "replacement does not export it"
                  : uts::signature_compatibility_error(
                        parse_signature_text(old_text).signature,
                        replacement->second);
          if (!why.empty()) {
            tally_.record(ManagerEvent::kCompatRejects);
            throw util::TypeMismatchError(
                "move of '" + old_name + "' rejected: replacement on " +
                pending_it->machine +
                " is incompatible with the signature clients bound: " + why);
          }
        }
      }
    } catch (const util::Error& e) {
      // Dismiss the new process and fail the start/move request that
      // caused it — *not* just the exporter, or the original requester
      // would wait forever. Nothing was proposed, so nothing rolls back.
      shutdown_process(in.from(), std::string("export rejected: ") + e.what());
      if (pending_it != pending_.end()) {
        Message original;
        original.seq = pending_it->requester_seq;
        original.line = pending_it->line;
        io_.send(pending_it->requester, Message::error_reply(original, e));
        pending_.erase(pending_it);
      }
      reply(in, Message::error_reply(msg, e));
      return;
    }

    // The export ack — and the start/move ack riding behind it — waits
    // for quorum commit, so a failover can never forget an export the
    // requester was already told about.
    std::optional<PendingStart> pending;
    if (pending_it != pending_.end()) {
      pending = std::move(*pending_it);
      pending_.erase(pending_it);
    }
    meta::ChangeRecord rec;
    rec.kind = meta::RecordKind::kExport;
    rec.line = line;
    rec.shared = shared;
    rec.address = in.from();
    rec.machine = pending ? pending->machine : msg.b;
    rec.path = msg.a;
    rec.spec_hash = msg.c;
    rec.procs = msg.table;
    propose(std::move(rec), [this, from = in.from(), seq = msg.seq,
                             pending = std::move(pending),
                             procs = msg.table]() mutable {
      io_.send(from, Message{.kind = MessageKind::kExportAck, .seq = seq});
      if (pending) finish_pending(*pending, std::move(procs));
    });
  }

  void finish_pending(PendingStart& pending, std::vector<ProcEntry> procs) {
    if (pending.ack_kind == MessageKind::kMoveAck) {
      // Install transferred state in the new process before exposing it.
      if (pending.state_blob) {
        Message install;
        install.kind = MessageKind::kStateInstall;
        install.blob = *pending.state_blob;
        io_.call(pending.spawned_address, std::move(install));
      }
    }
    Message ack;
    ack.kind = pending.ack_kind;
    ack.seq = pending.requester_seq;
    ack.line = pending.line;
    ack.a = pending.spawned_address;
    ack.table = std::move(procs);
    io_.send(pending.requester, std::move(ack));
  }

  /// Strict mode: the export table the Manager is about to build must be
  /// the one uts_check verified statically. Throws TypeMismatchError on a
  /// missing-from-manifest or signature-drift export, which rides the
  /// on_export rejection path — the exporting process is dismissed before
  /// any call can reach it.
  void static_check(const std::string& name, const uts::ProcDecl& decl) {
    auto it = folded_manifest_.find(meta::fold_case(name));
    if (it == folded_manifest_.end()) {
      tally_.record(ManagerEvent::kStaticCheckFailures);
      throw util::TypeMismatchError(
          "static check: export '" + name +
          "' is not in the uts_check manifest");
    }
    uts::ProcDecl checked = parse_signature_text(*it->second);
    if (checked.signature != decl.signature) {
      // Drifted from the manifest. A *compatible* drift (the manifest
      // signature, as an import, still binds the new export — the
      // evolution rule uts_diff enforces) means the manifest is stale:
      // admit with a warning. An incompatible drift is rejected outright.
      std::string why = uts::signature_compatibility_error(checked.signature,
                                                           decl.signature);
      if (why.empty()) {
        tally_.record(ManagerEvent::kStaleManifestWarnings);
        NPSS_LOG_WARN("manager", "stale manifest: export '", name,
                      "' drifted compatibly from the statically checked "
                      "signature; re-run uts_check");
        return;
      }
      tally_.record(ManagerEvent::kStaticCheckFailures);
      tally_.record(ManagerEvent::kCompatRejects);
      throw util::TypeMismatchError(
          "static check: export '" + name +
          "' drifted incompatibly from the statically checked signature (" +
          why + "): manifest " +
          uts::signature_to_string(checked.signature) + " != exported " +
          uts::signature_to_string(decl.signature));
    }
    tally_.record(ManagerEvent::kStaticCheckPasses);
  }

  /// The caller's line first, then the shared database (§4.2) — read
  /// from committed state only.
  std::optional<meta::ProcRef> resolve(LineId line,
                                       const std::string& name) const {
    const meta::ReplicatedState& committed = core_->state();
    if (line != kNoLine) {
      if (auto hit = committed.find(line, name)) return hit;
    }
    return committed.find(kNoLine, name);
  }

  void on_lookup(const Incoming& in) {
    const Message& msg = in.msg;
    tally_.record(ManagerEvent::kLookups);
    auto binding = resolve(msg.line, msg.a);
    if (!binding) {
      reply(in, Message::error_reply(msg, ErrorCode::kLookupFailure,
                                     "no procedure '" + msg.a + "' in line " +
                                         std::to_string(msg.line) +
                                         " or shared database"));
      return;
    }
    const auto& [name, sig_text] = binding->proc;
    if (!msg.b.empty()) {
      std::string why = uts::signature_compatibility_error(
          parse_signature_text(msg.b).signature,
          parse_signature_text(sig_text).signature);
      if (!why.empty()) {
        tally_.record(ManagerEvent::kTypeCheckFailures);
        // A lookup with an import text is a (re)bind: refusing it here is
        // the compat gate clients hit when rebinding after a move.
        tally_.record(ManagerEvent::kCompatRejects);
        reply(in,
              Message::error_reply(
                  msg, ErrorCode::kTypeMismatch,
                  "import of '" + msg.a + "' incompatible with export: " +
                      why));
        return;
      }
    }
    Message ack;
    ack.kind = MessageKind::kLookupAck;
    ack.seq = msg.seq;
    ack.line = msg.line;
    ack.a = binding->address;
    ack.b = name;
    ack.c = sig_text;
    reply(in, ack);
  }

  void on_quit(const Incoming& in) {
    const Message& msg = in.msg;
    Completion ack = [this, from = in.from(), seq = msg.seq,
                      line = msg.line] {
      io_.send(from, Message{.kind = MessageKind::kQuitAck, .seq = seq,
                             .line = line});
    };
    if (!proposed_.lines().contains(msg.line)) {
      ack();
      return;
    }
    // One process may export several procedures; the export table holds
    // each process once.
    std::size_t procs = 0;
    for (const auto& [address, group] : proposed_.exports()) {
      if (group.shared || group.line != msg.line) continue;
      shutdown_process(address, "line quit");
      ++procs;
    }
    NPSS_LOG_DEBUG("manager", "line ", msg.line, " quitting (", procs,
                   " process(es))");
    tally_.record(ManagerEvent::kLinesShutDown);
    if (obs::enabled()) rpc_metrics().line_active.sub(1);
    meta::ChangeRecord rec;
    rec.kind = meta::RecordKind::kLineQuit;
    rec.line = msg.line;
    propose(std::move(rec), std::move(ack));
  }

  void on_move(const Incoming& in) {
    const Message& msg = in.msg;
    const bool transfer_state = (msg.n & 1) != 0;
    auto binding = resolve(msg.line, msg.a);
    // The whole process moves, so its sibling procedures move with it —
    // as this leader has them, which excludes a process already retired
    // by a move still in flight.
    auto source = binding ? proposed_.exports().find(binding->address)
                          : proposed_.exports().end();
    if (source == proposed_.exports().end()) {
      throw util::LookupError("move: no procedure '" + msg.a + "' in line " +
                              std::to_string(msg.line));
    }
    // Copies: a one-member group commits inside propose(), which changes
    // the state `binding` and `source` point into.
    const std::string old_address = source->first;
    const meta::ExportGroup group = source->second;
    const LineId line = group.shared ? kNoLine : group.line;
    tally_.record(ManagerEvent::kMoves);

    // 1. Capture state if requested (the planned UTS state-list extension).
    //    A crashed or unreachable source must not abort the move — that is
    //    exactly when failover needs it — so capture is best-effort: the
    //    replacement simply starts from its initial state.
    std::optional<util::Bytes> state;
    if (transfer_state) {
      Message req;
      req.kind = MessageKind::kStateRequest;
      try {
        Message rep = io_.call_within(old_address, std::move(req),
                                      /*host_grace_ms=*/250);
        state = rep.blob;
      } catch (const util::NoRouteError& e) {
        NPSS_LOG_WARN("manager", "move '", msg.a, "': source ", old_address,
                      " is gone, moving without state (", e.what(), ")");
      } catch (const util::DeadlineError& e) {
        NPSS_LOG_WARN("manager", "move '", msg.a, "': source ", old_address,
                      " unresponsive, moving without state (", e.what(), ")");
      }
    }

    // 2. Start the replacement. A machine without a Server or without the
    //    image fails the move here, while the source still serves.
    const std::string path = msg.c.empty() ? group.path : msg.c;
    std::string address = spawn_process(msg.b, path, line, group.shared);

    // 3. Shut down the original process and retire its bindings. No
    //    client ack rides the retirement itself — the kMoveAck waits for
    //    the replacement's kExport commit — so the completion is empty.
    shutdown_process(old_address, "moved to " + msg.b);
    meta::ChangeRecord rec;
    rec.kind = meta::RecordKind::kRetire;
    rec.line = line;
    rec.shared = group.shared;
    rec.address = old_address;
    rec.note = "moved to " + msg.b;
    propose(std::move(rec), [] {});

    // 4. Wait for the replacement's export.
    PendingStart pending;
    pending.requester = in.from();
    pending.requester_seq = msg.seq;
    pending.ack_kind = MessageKind::kMoveAck;
    pending.line = line;
    pending.shared = group.shared;
    pending.spawned_address = address;
    pending.machine = msg.b;
    pending.path = path;
    pending.moved_procs = group.procs;
    pending.state_blob = std::move(state);
    pending_.push_back(std::move(pending));
    NPSS_LOG_DEBUG("manager", "moving '", msg.a, "' ", old_address, " -> ",
                   address);
  }

  void on_stop(const Incoming& in) {
    for (const auto& [address, group] : proposed_.exports()) {
      shutdown_process(address, "manager stopping");
    }
    if (obs::enabled() && !proposed_.lines().empty()) {
      rpc_metrics().line_active.sub(
          static_cast<double>(proposed_.lines().size()));
    }
    reply(in, Message{.kind = MessageKind::kQuitAck, .seq = in.msg.seq});
  }

  MessageIo& io_;
  const ManagerConfig& config_;
  const std::map<std::string, std::string>& servers_;
  ManagerTally& tally_;
  /// case-folded name -> manifest declaration text (owned by config_).
  std::map<std::string, const std::string*> folded_manifest_;
  meta::ReplicaCore* core_ = nullptr;  ///< set while (and once) leading
  /// Committed state plus this leader's uncommitted tail: what writes are
  /// checked against. Reset from the core at each election win, then
  /// advanced by every proposal — never rebuilt per request.
  meta::ReplicatedState proposed_;
  std::vector<PendingStart> pending_;
  /// Client acks keyed by the changelog index whose commit releases them.
  std::map<std::uint64_t, Completion> completions_;
};


/// One replica of a Manager group: a meta::ReplicaCore — the pure
/// steppable consensus state machine that src/mc/'s meta_check
/// exhaustively model-checks — driven by host time and rpc::Message
/// frames. Every Manager is one; a single Manager is a one-member group,
/// whose proposals commit at once (a majority of one). The driver owns
/// everything impure (the clock anchor behind the core's single logical
/// timer, the address<->replica-index map, wire framing) and the core
/// owns the protocol, so the schedules the checker proves safe are the
/// schedules this loop can actually produce.
///
/// Client acks are quorum-committed: ManagerState hands each transition
/// to the core as a proposal plus a completion, and the completion runs
/// only when the core reports the entry committed (majority-held). A
/// deposed leader drops its completions — those requesters time out and
/// retry against the new leader, instead of holding an ack for state
/// that no longer exists.
class ReplicaDriver {
 public:
  ReplicaDriver(MessageIo& io, const ManagerConfig& config,
                const std::map<std::string, std::string>& servers,
                ManagerTally& tally)
      : io_(io), config_(config), tally_(tally),
        manager_(io, config, servers, tally) {}

  void run() {
    if (!await_config()) return;
    Clock::time_point anchor = Clock::now();
    std::uint64_t anchored_gen = core_->timer_generation();
    // A one-member group has no one to heartbeat and no one to lose an
    // election to, so it waits for requests without a timer.
    const bool alone = peers_.size() == 1;
    while (running_) {
      pump();
      if (!running_) break;
      if (core_->timer_generation() != anchored_gen) {
        // The core restarted its quiet-period countdown (heartbeat
        // accepted, role or term changed): re-anchor the host clock.
        anchored_gen = core_->timer_generation();
        anchor = Clock::now();
      }
      const int wait = core_->timer_ms() - elapsed_ms(anchor);
      if (wait <= 0 && !alone) {
        core_->fire_timer();
        anchor = Clock::now();
        anchored_gen = core_->timer_generation();
        continue;
      }
      auto in = alone ? io_.receive() : io_.receive_for(wait);
      if (!in) {
        if (alone || io_.endpoint().closed()) running_ = false;
        continue;
      }
      dispatch(*in);
    }
    NPSS_LOG_INFO("manager", "replica ", my_index_, " at ", io_.address(),
                  " stopped (term ", core_ ? core_->term() : 0, ")");
  }

 private:
  using Clock = std::chrono::steady_clock;

  static int elapsed_ms(Clock::time_point since) {
    return static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::now() - since).count());
  }

  bool is_client_kind(MessageKind kind) const {
    switch (kind) {
      case MessageKind::kRegisterLine:
      case MessageKind::kStartRequest:
      case MessageKind::kExport:
      case MessageKind::kLookup:
      case MessageKind::kQuit:
      case MessageKind::kMove:
        return true;
      default:
        return false;
    }
  }

  /// Bootstrap: replica addresses only exist after every replica process
  /// has spawned, so SchoonerSystem delivers the membership table in a
  /// kMetaConfig handshake. Replica 0 is the term-1 leader by convention.
  bool await_config() {
    while (auto in = io_.receive()) {
      const Message& msg = in->msg;
      if (msg.kind == MessageKind::kMetaConfig) {
        my_index_ = static_cast<int>(msg.n);
        peers_.clear();
        for (const auto& [index, address] : msg.table) {
          peers_.emplace_back(std::stoi(index), address);
        }
        std::sort(peers_.begin(), peers_.end());
        meta::CoreConfig cc;
        cc.index = my_index_;
        cc.replicas = static_cast<int>(peers_.size());
        cc.seed = config_.election_seed;
        cc.snapshot_interval = config_.snapshot_interval;
        cc.heartbeat_ms = config_.heartbeat_ms;
        cc.election_base_ms = config_.election_base_ms;
        cc.quorum_commit = true;
        core_.emplace(cc);
        core_->start(my_index_ == 0 ? meta::Role::kLeader
                                    : meta::Role::kFollower,
                     /*term=*/1, /*leader_index=*/0);
        if (my_index_ == 0) manager_.lead(*core_);
        io_.send(in->from(), Message{.kind = MessageKind::kMetaConfigAck,
                                   .seq = msg.seq});
        NPSS_LOG_INFO("manager", "replica ", my_index_, "/", peers_.size(),
                      " at ", io_.address(), " configured as ",
                      meta::role_name(core_->role()));
        return true;
      }
      if (msg.kind == MessageKind::kMetaConfigAck) continue;
      if (msg.kind == MessageKind::kManagerStop) {
        io_.send(in->from(),
                 Message{.kind = MessageKind::kQuitAck, .seq = msg.seq});
        running_ = false;
        return false;
      }
      redirect(*in);
    }
    running_ = false;
    return false;
  }

  int addr_index(const std::string& address) const {
    for (const auto& [idx, addr] : peers_) {
      if (addr == address) return idx;
    }
    return -1;
  }

  std::string addr_of(int index) const {
    for (const auto& [idx, addr] : peers_) {
      if (idx == index) return addr;
    }
    return {};
  }

  /// Drain the core's queued side effects: protocol messages onto the
  /// wire, commit/role events into client acks and leadership changes,
  /// counter deltas into the replica's tally.
  void pump() {
    for (meta::Outbound& out : core_->take_outbound()) {
      const std::string to = addr_of(out.to);
      if (to.empty()) continue;
      try {
        io_.send(to, Message{.kind = MessageKind::kMetaProtocol,
                             .seq = io_.next_seq(),
                             .blob = meta::encode_msg(out.msg)});
      } catch (const util::NoRouteError&) {
        // Dead peer; it catches up via snapshot + tail if it returns.
      }
    }
    for (const meta::CoreEvent& ev : core_->take_events()) on_event(ev);
    sync_counters();
  }

  void on_event(const meta::CoreEvent& ev) {
    switch (ev.kind) {
      case meta::CoreEventKind::kBecameLeader:
        manager_.lead(*core_);
        NPSS_LOG_INFO("manager", "replica ", my_index_,
                      " elected leader for term ", ev.term, ": ",
                      core_->state().lines().size(), " line(s), ",
                      core_->state().exports().size(),
                      " export group(s) committed through log index ",
                      core_->state().last_applied());
        break;
      case meta::CoreEventKind::kSteppedDown:
        // Unacked client work dies with the leadership; requesters time
        // out and retry against whoever won term ev.term.
        manager_.step_down();
        NPSS_LOG_WARN("manager", "replica ", my_index_,
                      " deposed: following term ", ev.term);
        break;
      case meta::CoreEventKind::kCommitted:
        manager_.committed(ev.index);
        break;
    }
  }

  void sync_counters() {
    const meta::CoreCounters& now = core_->counters();
    const auto drain = [this](ManagerEvent event, std::uint64_t current,
                              std::uint64_t& seen) {
      if (current == seen) return;
      tally_.record(event, current - seen);
      seen = current;
    };
    drain(ManagerEvent::kLogAppends, now.log_appends, synced_.log_appends);
    drain(ManagerEvent::kSnapshotInstalls, now.snapshot_installs,
          synced_.snapshot_installs);
    drain(ManagerEvent::kLeaderElections, now.leader_elections,
          synced_.leader_elections);
  }

  void dispatch(const Incoming& in) {
    const Message& msg = in.msg;
    switch (msg.kind) {
      case MessageKind::kMetaProtocol:
        deliver(in);
        return;
      case MessageKind::kMetaConfig:
        // Duplicate handshake delivery: re-ack, the table is unchanged.
        reply_to(in.from(), Message{.kind = MessageKind::kMetaConfigAck,
                                  .seq = msg.seq});
        return;
      case MessageKind::kMetaWhoIsLeader:
        answer_who_is_leader(in);
        return;
      case MessageKind::kPing:
        reply_to(in.from(), Message{.kind = MessageKind::kPong,
                                  .seq = msg.seq});
        return;
      case MessageKind::kManagerStop:
        if (core_->role() == meta::Role::kLeader) {
          if (!manager_.handle(in)) running_ = false;
        } else {
          reply_to(in.from(), Message{.kind = MessageKind::kQuitAck,
                                    .seq = msg.seq});
          running_ = false;
        }
        return;
      default:
        if (core_->role() == meta::Role::kLeader) {
          if (!manager_.handle(in)) running_ = false;
        } else {
          redirect(in);
        }
    }
  }

  /// Hand a member's frame to the core; the sender's replica index is its
  /// address. Frames from outside the group, and malformed ones, are
  /// dropped: the protocol re-sends or re-fetches, it never trusts a
  /// broken frame.
  void deliver(const Incoming& in) {
    const int from = addr_index(in.from());
    if (from < 0) return;
    meta::Msg m;
    try {
      m = meta::decode_msg(in.msg.blob, from);
    } catch (const util::EncodingError&) {
      return;
    }
    core_->handle(m);
  }

  void answer_who_is_leader(const Incoming& in) {
    Message ack;
    ack.kind = MessageKind::kMetaLeaderAck;
    ack.seq = in.msg.seq;
    const int leader = core_->leader_index();
    ack.a = leader >= 0 ? addr_of(leader) : std::string();
    ack.n = static_cast<std::int64_t>(core_->term());
    ack.b = core_->state().digest();
    ack.c = std::to_string(core_->state().last_applied());
    reply_to(in.from(), std::move(ack));
  }

  /// Non-leader answer to a client request: kNotLeader with the best known
  /// leader hint in .b, so CallCore can re-bind without a discovery scan.
  void redirect(const Incoming& in) {
    if (in.msg.kind == MessageKind::kPing) {
      reply_to(in.from(),
               Message{.kind = MessageKind::kPong, .seq = in.msg.seq});
      return;
    }
    if (!is_client_kind(in.msg.kind)) {
      NPSS_LOG_DEBUG("manager", "replica ", my_index_, " ignoring ",
                     message_kind_name(in.msg.kind), " from ", in.from());
      return;
    }
    Message err = Message::error_reply(
        in.msg, ErrorCode::kNotLeader,
        "manager replica " + std::to_string(my_index_) + " at " +
            io_.address() + " is not the leader");
    const int leader = core_ ? core_->leader_index() : -1;
    err.b = leader >= 0 ? addr_of(leader) : std::string();
    reply_to(in.from(), std::move(err));
  }

  void reply_to(const std::string& to, Message msg) {
    try {
      io_.send(to, std::move(msg));
    } catch (const util::NoRouteError&) {
      // Requester died while we composed the answer; nothing to do.
    }
  }

  MessageIo& io_;
  const ManagerConfig& config_;
  ManagerTally& tally_;
  ManagerState manager_;

  bool running_ = true;
  int my_index_ = 0;
  /// (replica index, address), sorted by index; includes this replica.
  std::vector<std::pair<int, std::string>> peers_;
  std::optional<meta::ReplicaCore> core_;
  meta::CoreCounters synced_;  ///< counters already recorded in tally_
};

}  // namespace

std::string signature_text(uts::DeclKind kind, const std::string& name,
                           const uts::Signature& sig) {
  return uts::decl_to_string(uts::ProcDecl{kind, name, sig});
}

uts::ProcDecl parse_signature_text(const std::string& text) {
  uts::SpecFile file = uts::parse_spec(text);
  if (file.decls.size() != 1) {
    throw util::ParseError("expected exactly one declaration in '" + text +
                           "'");
  }
  return file.decls.front();
}

void manager_main(sim::ProcessContext& ctx, const ManagerConfig& config,
                  const std::map<std::string, std::string>& servers,
                  std::shared_ptr<ManagerTally> tally) {
  MessageIo io(ctx.cluster(), ctx.self_ptr());
  ReplicaDriver driver(io, config, servers, *tally);
  NPSS_LOG_INFO("manager", "replica up at ", io.address());
  driver.run();
}

}  // namespace npss::rpc
