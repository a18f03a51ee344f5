// The client-side Schooner library, as the adapted AVS modules used it
// (§3.3): sch_contact_schx to register with the Manager and start remote
// processes, import stubs for calling, sch_i_quit for line teardown, and
// the §4.2 extension sch_move for migrating a running procedure.
//
// Multi-tenant surface (DESIGN.md §15): a Session owns one Manager
// link — the replica group and the only cache of its leader — and mints
// lightweight Line handles that send through it.
// Each Line is one of the paper's §4 "lines": a sequential thread of
// control with its own procedure name space, its own teardown
// (sch_i_quit), and — past the paper — its own fault budget (LineBudget)
// and Manager-granted call quota, so thousands of concurrent lines share
// one resident fleet without sharing failure modes.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "rpc/calling.hpp"
#include "rpc/io.hpp"
#include "rpc/message.hpp"
#include "uts/spec.hpp"

namespace npss::rpc {

class Line;
class Session;

/// An imported remote procedure (the client stub the stub compiler would
/// have generated from the import specification). Stubs are minted by
/// Line::import_proc and must not outlive their Line.
class RemoteProc {
 public:
  /// Fault-tolerant invoke: `args` is parallel to the import signature
  /// (res-slot inputs are ignored), `opts` carries the deadline/retry/
  /// failover policy. Failure comes back typed in CallResult.status —
  /// this overload does not throw for transport or peer errors. The
  /// owning line's LineBudget is charged unless `opts` names another.
  CallResult call(uts::ValueList args, const CallOptions& opts);

  /// Overlapping fault-tolerant invoke: the request leaves now and the
  /// caller collects the CallResult from the pending call's get(), which
  /// awaits the reply on the caller's own thread — no thread per call.
  /// Calls overlap on different lines, and several may be outstanding on
  /// one line (replies are matched by seq). Must not outlive this stub.
  PendingCall call_async(uts::ValueList args, const CallOptions& opts);

  const std::string& name() const { return name_; }
  const uts::Signature& signature() const { return decl_.signature; }

  /// The stub's compiled marshal programs (built at import time, the way
  /// the paper's stub compiler specialized conversion per signature).
  const uts::MarshalPlan& request_plan() const { return *cache_.request_plan; }
  const uts::MarshalPlan& reply_plan() const { return *cache_.reply_plan; }

  /// Per-stub call count; lookups/stale_retries read the line's shared
  /// binding cache for this procedure (two stubs importing the same name
  /// on one line share a cache, so the second import is born bound).
  int calls() const { return static_cast<int>(calls_.value()); }
  int lookups() const { return static_cast<int>(cache_.lookups.value()); }
  int stale_retries() const {
    return static_cast<int>(cache_.stale_retries.value());
  }

  /// Measure a transport round trip (kPing/kPong) to the process hosting
  /// this procedure, in simulated microseconds; binds first if needed.
  /// Recorded into the rpc.transport.rtt_us histogram.
  util::SimTime ping();

  /// Drop the cached binding (tests use this to force a fresh lookup).
  void invalidate() { cache_.address.clear(); }

 private:
  friend class Line;
  RemoteProc(Line& owner, std::string name, uts::ProcDecl decl,
             std::string import_text, BindingCache& cache);

  Line* owner_;
  std::string name_;
  uts::ProcDecl decl_;
  std::string import_text_;
  BindingCache& cache_;  ///< owned by the Line, shared per (name, import)
  obs::Counter calls_;
};

struct StartResult {
  std::string address;  ///< the new process
  /// (procedure name, export signature text) pairs it registered.
  std::vector<std::pair<std::string, std::string>> exports;
};

/// Builder-style per-line options:
///   session.open_line(LineOptions{}
///                         .with_name("tenant-42")
///                         .with_budget({.virtual_us = 5'000'000,
///                                       .retries = 32}));
struct LineOptions {
  /// Human-readable line description, recorded in the Manager's (and the
  /// replicated changelog's) line table.
  std::string name = "line";
  /// The line's fault budget (all-zero = unlimited). The Manager's
  /// per-line outstanding-call quota is folded in at admission.
  LineBudget::Limits budget;
  /// Admission retries when the Manager answers kLineRejected (the
  /// max_lines gate): total registration attempts, and the host-time
  /// pause between them (virtual time advances in step so seeded runs
  /// stay deterministic). admission_attempts = 1 fails fast.
  int admission_attempts = 1;
  int admission_backoff_ms = 20;

  LineOptions& with_name(std::string n) {
    name = std::move(n);
    return *this;
  }
  LineOptions& with_budget(LineBudget::Limits limits) {
    budget = limits;
    return *this;
  }
  LineOptions& with_admission(int attempts, int backoff_ms = 20) {
    admission_attempts = attempts;
    admission_backoff_ms = backoff_ms;
    return *this;
  }
};

/// One §4 line: a sequential thread of control with its own procedure
/// name space under the Session's Manager. Duplicate procedure names
/// across lines are fine — each line binds through its own name space.
/// A Line is driven by one thread at a time (its endpoint's reply
/// matching is single-caller), which may keep several calls outstanding
/// (RemoteProc::call_async); run many Lines for concurrency. Must not
/// outlive its Session.
class Line {
 public:
  ~Line();
  Line(const Line&) = delete;
  Line& operator=(const Line&) = delete;

  LineId id() const { return line_; }
  const std::string& name() const { return name_; }
  MessageIo& io() { return io_; }
  const arch::ArchDescriptor& arch() const;
  Session& session() { return *session_; }

  /// The line's shared fault budget; every stub charges it. The Manager's
  /// outstanding-call quota (kLineAck.n) has been folded in.
  const std::shared_ptr<LineBudget>& budget() const { return budget_; }

  /// sch_contact_schx: ask the Manager to start the executable at `path`
  /// on `machine` as part of this line (or as a shared procedure).
  StartResult contact_schx(const std::string& machine,
                           const std::string& path, bool shared = false);

  /// Build a stub from an import declaration. `import_spec_text` must hold
  /// exactly one import declaration for `name` (or pass the whole text of
  /// a spec file plus the name to select). Stubs importing the same
  /// (name, declaration) pair share one binding cache on this line.
  std::unique_ptr<RemoteProc> import_proc(const std::string& name,
                                          const std::string& import_spec_text);

  /// sch_move: migrate the named procedure's process to another machine.
  /// Returns the new process address. When `transfer_state` is set the
  /// Manager captures and re-installs the procedure's declared state.
  std::string move_proc(const std::string& name, const std::string& machine,
                        const std::string& path = "",
                        bool transfer_state = false);

  /// sch_i_quit: tear down this line; the Manager shuts down exactly the
  /// remote procedures belonging to it. Idempotent.
  void quit();

  bool active() const { return line_ != kNoLine; }

 private:
  friend class Session;
  friend class RemoteProc;

  /// Registers the line with the Manager (kRegisterLine), honoring the
  /// admission backoff in `opts`. The line retires `endpoint` on teardown.
  Line(Session& session, sim::EndpointPtr endpoint, LineOptions opts);

  /// The synchronous invoke path; stamps the line budget into opts.
  CallResult invoke(RemoteProc& proc, uts::ValueList args,
                    const CallOptions& opts);
  /// Find-or-create the binding cache for a (name, import) pair,
  /// compiling the marshal plans on first sight. References are stable
  /// (map nodes) for the life of the Line.
  BindingCache& cache_for(const std::string& name,
                          const uts::Signature& signature,
                          const std::string& import_text);
  CallOptions with_budget(const CallOptions& opts) const;

  Session* session_;
  sim::EndpointPtr endpoint_;
  MessageIo io_;
  std::string name_;
  LineId line_ = kNoLine;
  std::shared_ptr<LineBudget> budget_;
  /// Built once at admission and reused by every call on this line; it
  /// binds through the Session's Manager link.
  CallCore core_;
  /// Per-line binding caches, keyed "name\n<import text>" — the §4.2
  /// name cache, hoisted out of the stubs so re-imports share bindings.
  /// Thread-confined: a Line has one owning caller by contract
  /// (DESIGN.md §15/§16), so this needs no lock; cross-thread use of one
  /// Line is a caller bug, not a data structure this layer defends.
  std::map<std::string, BindingCache> caches_;
};

/// The Manager connection shared by many lines: the Manager link (the
/// replica group and its one leader cache, re-pointed after elections by
/// whichever line sees one first), and the factory for Line handles. One
/// Session per client process is the intended shape; it must outlive
/// every Line it opened.
class Session {
 public:
  /// `machine` is the cluster machine this session's lines live on (their
  /// endpoints and native formats). `manager_replicas` is the full
  /// Manager replica group (empty for a one-member group):
  /// with it set, every Manager exchange survives a leader death by
  /// rediscovering the new leader and re-issuing the request.
  /// `leader_settle_ms` is the group's slowest election timeout (see
  /// ManagerLink).
  Session(sim::Cluster& cluster, std::string machine,
          std::string manager_address,
          std::vector<std::string> manager_replicas = {},
          int leader_settle_ms = 0);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Register a new line with the Manager and hand back its handle.
  /// Throws util::LineRejectedError when the Manager's admission gate
  /// (SystemOptions::max_lines) still refuses after the admission backoff
  /// in `opts` is spent.
  std::unique_ptr<Line> open_line(LineOptions opts = {});

  /// Current Manager leader, as this session last saw it.
  std::string manager_address() const { return manager_.leader(); }
  const std::string& machine() const { return machine_; }
  sim::Cluster& cluster() { return *cluster_; }
  const std::vector<std::string>& manager_replicas() const {
    return manager_.replicas();
  }
  /// Lines this session successfully opened (admission rejections and
  /// quits do not decrement; diagnostic).
  long lines_opened() const { return lines_opened_; }

 private:
  friend class Line;

  sim::Cluster* cluster_;
  std::string machine_;
  /// Every Manager exchange of every line goes through it.
  ManagerLink manager_;
  std::atomic<long> lines_opened_{0};
  std::atomic<long> line_seq_{0};  ///< endpoint-label suffix for open_line
};

}  // namespace npss::rpc
