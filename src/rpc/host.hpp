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
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "rpc/calling.hpp"
#include "rpc/io.hpp"
#include "rpc/message.hpp"
#include "sim/cluster.hpp"
#include "util/mutex.hpp"
#include "util/string_pair.hpp"
#include "util/thread_annotations.hpp"
#include "uts/canonical.hpp"
#include "uts/marshal_plan.hpp"
#include "uts/spec.hpp"

namespace npss::rpc {

class HostRuntime;

/// One in-flight invocation, as seen by a procedure handler.
/// `host` may be null for transports without a cluster runtime (the TCP
/// direct-connection host); compute() is then a no-op and nested
/// call_remote() is unavailable.
class ProcCall {
 public:
  ProcCall(const uts::Signature& signature, uts::ValueList values,
           HostRuntime* host)
      : signature_(&signature), values_(std::move(values)), host_(host) {}

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

  /// Account simulated compute time for this invocation.
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
  HostRuntime* host_;
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
  /// Worker pool size for serving kCall. 0 (default) keeps the historical
  /// single-threaded loop. With N > 0, calls queue per *line* and N
  /// workers drain the lines round-robin (util::FairQueue), so one line's
  /// call storm queues behind itself instead of starving its neighbors —
  /// the shared-fleet fairness half of DESIGN.md §15. Pooled hosts serve
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

/// The procedures a host serves and its prepared-import cache, shared by
/// both procedure hosts: the cluster image of make_procedure_image and
/// the TcpProcedureHost. Only the transport around a call differs.
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

/// Serve one call: unmarshal `request` through the prepared plan, scatter
/// it into the export's slots, run the handler, and gather the reply
/// values back into import order for the caller to marshal. `host` is
/// null for transports without a cluster runtime.
uts::ValueList run_prepared(const PreparedImport& prep,
                            const arch::ArchDescriptor& arch,
                            std::span<const std::uint8_t> request,
                            HostRuntime* host);

/// Build a program image exporting `procs` per `spec_text` (which must hold
/// one export declaration per procedure). Install the result into a
/// sim::Cluster under a path; the Manager/Server machinery does the rest.
sim::ProgramImage make_procedure_image(std::string spec_text,
                                       std::vector<ProcedureDef> procs,
                                       ProcedureImageOptions options = {});

}  // namespace npss::rpc
