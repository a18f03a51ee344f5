// The remote-procedure host runtime: what the Schooner stub compiler's
// server-side output plus the runtime library amount to. An application
// wraps its procedures with make_procedure_image() and installs the result
// on a machine under a path; the Manager starts it on demand (§3.3).
//
// The host loop:
//   * registers its exports with the Manager (name-cased per the machine's
//     Fortran convention when the source language is Fortran, §4.1),
//   * serves kCall requests — unmarshaling through the machine's native
//     data formats, invoking the handler, marshaling results back,
//   * supports nested calls to other procedures in the same line
//     (ProcCall::call_remote), the Figure 1 control-flow chain,
//   * answers state save/restore messages for migration, and
//   * on kShutdownProc drains and error-answers queued calls, then exits.
//
// The serve path itself is HostEngine, which the TCP host
// (tcp_transport.hpp) runs too: one dispatch switch, one kCall server,
// one worker pool and one drain for both fabrics.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "rpc/calling.hpp"
#include "rpc/io.hpp"
#include "rpc/message.hpp"
#include "sim/cluster.hpp"
#include "util/fair_queue.hpp"
#include "util/mutex.hpp"
#include "util/string_pair.hpp"
#include "util/thread_annotations.hpp"
#include "uts/canonical.hpp"
#include "uts/marshal_plan.hpp"
#include "uts/spec.hpp"

namespace npss::rpc {

class HostEngine;

/// One in-flight invocation, as seen by a procedure handler.
class ProcCall {
 public:
  ProcCall(const uts::Signature& signature, uts::ValueList values,
           HostEngine& host)
      : signature_(&signature), values_(std::move(values)), host_(&host) {}

  const uts::Signature& signature() const { return *signature_; }
  uts::ValueList& values() { return values_; }

  /// Indexed and named access to parameter slots.
  const uts::Value& arg(std::size_t index) const;
  const uts::Value& arg(std::string_view name) const;
  double real(std::string_view name) const { return arg(name).as_real(); }
  std::int64_t integer(std::string_view name) const {
    return arg(name).as_integer();
  }
  std::vector<double> reals(std::string_view name) const {
    return arg(name).as_real_vector();
  }

  /// Store a result (res/var) slot.
  void set(std::string_view name, uts::Value value);
  void set_real(std::string_view name, double value) {
    set(name, uts::Value::real(value));
  }

  /// Account simulated compute time for this invocation (a no-op on a
  /// host without a cluster runtime).
  void compute(double microseconds);

  /// Invoke another remote procedure in this process's line — the nested
  /// sequential call of Figure 1. `import_spec_text` is a full import
  /// declaration; `args` is parallel to its signature.
  uts::ValueList call_remote(const std::string& name,
                             const std::string& import_spec_text,
                             uts::ValueList args);

 private:
  std::size_t index_of(std::string_view name) const;

  const uts::Signature* signature_;
  uts::ValueList values_;
  HostEngine* host_;
};

using ProcHandler = std::function<void(ProcCall&)>;

struct ProcedureDef {
  std::string name;  ///< as written in the export spec
  ProcHandler handler;
};

enum class SourceLanguage : std::uint8_t { kC = 0, kFortran };

struct ProcedureImageOptions {
  SourceLanguage language = SourceLanguage::kFortran;
  /// Fixed simulated compute cost added to every call (reference-CPU us);
  /// handlers can add more via ProcCall::compute.
  double compute_us_per_call = 0.0;
  /// Migration state hooks (the planned UTS state-list extension, §4.2).
  /// A procedure with neither hook is stateless and freely movable.
  std::function<util::Bytes()> save_state;
  std::function<void(std::span<const std::uint8_t>)> restore_state;
  /// Worker pool size for serving kCall (the TCP host's `workers`
  /// argument is the same knob, default 2). 0 (default) serves on the
  /// dispatch loop. With N > 0, calls queue per *line* and N workers
  /// drain the lines round-robin (util::FairQueue), so one line's call
  /// storm queues behind itself instead of starving its neighbors — the
  /// shared-fleet fairness half of DESIGN.md §15. Pooled hosts serve
  /// concurrent calls, so handlers must be thread-safe; nested
  /// ProcCall::call_remote is unavailable in pooled mode (the reply
  /// stream is owned by the dispatch loop).
  int workers = 0;
};

/// One exported procedure as a host serves it.
struct HostedExport {
  uts::ProcDecl decl;
  ProcHandler handler;
  uts::ValueList defaults;  ///< default_value per export parameter
};

/// Everything one (procedure, import text) pair needs per call, compiled
/// on first sight: the parsed import, its compatibility verdict against
/// the export, the import -> export slot map (imports may be a
/// subsequence of the export, footnote 1), and the marshal plans for
/// both directions.
struct PreparedImport {
  const HostedExport* target = nullptr;
  uts::ProcDecl import_decl;
  std::vector<std::size_t> slot_of_import;
  /// Export slots no request value fills: each call starts them at the
  /// export's default.
  std::vector<std::size_t> default_slots;
  std::shared_ptr<const uts::MarshalPlan> request_plan;
  std::shared_ptr<const uts::MarshalPlan> reply_plan;
};

/// The procedures a host serves and its prepared-import cache.
class ExportTable {
 public:
  /// `spec_text` must hold one export declaration per procedure.
  ExportTable(const std::string& spec_text, std::vector<ProcedureDef> procs);

  /// Exports keyed by lower-cased name (Fortran externals may arrive
  /// upper-cased, §4.1).
  const std::map<std::string, HostedExport>& exports() const {
    return exports_;
  }

  /// The prepared state for calls of `name` under `import_text`. Throws
  /// util::LookupError for an unknown procedure and
  /// util::TypeMismatchError for an incompatible import; neither is
  /// cached (they are caller bugs, not a steady-state path). The
  /// reference stays valid for the table's lifetime.
  const PreparedImport& prepare(const std::string& name,
                                const std::string& import_text);

 private:
  std::map<std::string, HostedExport> exports_;
  /// Hosts with worker pools prepare from several threads at once;
  /// compiling an entry takes only the uts.PlanCache below this lock
  /// (lock_hierarchy.md).
  util::Mutex mu_{"rpc.Host.import_cache"};
  /// Keyed by (name as called, import text), both exactly as on the
  /// wire, so a call finds its entry without lower-casing or joining
  /// them; differently-cased names of one export get entries of their own.
  std::map<util::StringPair, PreparedImport, util::StringPairLess> prepared_
      SCHOONER_GUARDED_BY(mu_);
};

/// The serve path of both procedure hosts. A fabric delivers each
/// request to dispatch() and sends the replies through its HostTransport:
/// the cluster image runs the engine over its MessageIo (HostRuntime,
/// host.cpp), the TcpProcedureHost over its bus connections.
class HostEngine {
 public:
  /// `transport` is only used once a request arrives. Starts
  /// `options.workers` pool threads.
  HostEngine(const std::string& spec_text, std::vector<ProcedureDef> procs,
             const arch::ArchDescriptor& arch, HostTransport& transport,
             ProcedureImageOptions options);
  virtual ~HostEngine() { drain(); }
  HostEngine(const HostEngine&) = delete;
  HostEngine& operator=(const HostEngine&) = delete;

  /// Act on one request, on the delivering thread (the dispatch fiber,
  /// the bus loop): a kCall is served now or queued for the pool, every
  /// other kind is answered now. Returns false on kShutdownProc, once the
  /// pool has answered every queued call; `request.msg` is left intact.
  bool dispatch(HostRequest& request);
  /// Let the pool serve every queued call, then stop it. Idempotent; one
  /// thread at a time.
  void drain();
  /// Calls served; a call counts before its reply can leave.
  long calls() const { return calls_.load(); }

  /// The cluster runtime behind ProcCall. Without one (the TCP host),
  /// compute() is a no-op, nested calls fail, and the migration and
  /// shutdown orders are unexpected kinds.
  virtual void compute(double /*microseconds*/) {}
  virtual uts::ValueList call_remote(const std::string& name,
                                     const std::string& import_text,
                                     uts::ValueList args);

 protected:
  virtual bool in_cluster() const { return false; }

  const ProcedureImageOptions options_;
  /// Read by pool threads; its prepared-import cache locks itself.
  ExportTable exports_;

 private:
  /// Serve one kCall and send its reply (or its error reply).
  void serve(HostRequest& request, bool pooled);

  const arch::ArchDescriptor* arch_;
  HostTransport& transport_;
  std::atomic<long> calls_{0};
  /// Per-line FIFO lanes drained round-robin: one line's call storm
  /// queues behind itself, not in front of every other line (§15).
  util::FairQueue<HostRequest> queue_;
  std::vector<std::jthread> pool_;
};

/// Build a program image exporting `procs` per `spec_text` (which must hold
/// one export declaration per procedure). Install the result into a
/// sim::Cluster under a path; the Manager/Server machinery does the rest.
sim::ProgramImage make_procedure_image(std::string spec_text,
                                       std::vector<ProcedureDef> procs,
                                       ProcedureImageOptions options = {});

}  // namespace npss::rpc
