#include "rpc/host.hpp"

#include <algorithm>
#include <cctype>

#include "obs/trace.hpp"
#include "rpc/calling.hpp"
#include "rpc/manager.hpp"
#include "rpc/metrics.hpp"
#include "util/log.hpp"
#include "util/sha256.hpp"

namespace npss::rpc {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

std::string table_get(const std::vector<std::string>& argv,
                      const std::string& key, const std::string& fallback) {
  for (std::size_t i = 0; i + 1 < argv.size(); i += 2) {
    if (argv[i] == key) return argv[i + 1];
  }
  return fallback;
}

}  // namespace

/// The cluster image: a HostEngine over the process's MessageIo, plus the
/// cluster runtime the TCP host lacks (export registration, simulated
/// compute time, nested calls, migration state and shutdown).
class HostRuntime final : public HostEngine {
 public:
  HostRuntime(sim::ProcessContext& ctx, const std::string& spec_text,
              const std::vector<ProcedureDef>& procs,
              const ProcedureImageOptions& options)
      : HostEngine(spec_text, procs, ctx.self().arch(), io_, options),
        ctx_(ctx),
        io_(ctx.cluster(), ctx.self_ptr()),
        manager_(table_get(ctx.args(), "manager", "")),
        spec_hash_(util::sha256_hex(spec_text)) {
    line_ = std::stoll(table_get(ctx.args(), "line", "-1"));
    shared_ = table_get(ctx.args(), "shared", "0") == "1";
    path_ = table_get(ctx.args(), "path", "?");
  }
  // The pool must stop before the members its handlers reach go.
  ~HostRuntime() override { drain(); }

  void run() {
    register_exports();
    // The dispatch fiber keeps sole ownership of io_.receive(); pool
    // workers only send, so draining the pool cannot wait on another sim
    // process (DESIGN.md §16).
    while (auto in = io_.receive()) {
      HostRequest request{std::move(in->msg), std::move(in->sender)};
      if (!dispatch(request)) {
        drain_and_exit(request.msg.a);
        return;
      }
    }
    drain();
  }

  void compute(double microseconds) override { ctx_.compute(microseconds); }

  uts::ValueList call_remote(const std::string& name,
                             const std::string& import_text,
                             uts::ValueList args) override {
    if (options_.workers > 0) {
      // The dispatch loop owns io_.receive(); a nested call from a worker
      // would race it for the reply stream.
      throw util::ModelError(
          "nested call_remote is unavailable in a pooled host (workers > 0)");
    }
    auto decl_it = nested_decls_.find(import_text);
    if (decl_it == nested_decls_.end()) {
      decl_it = nested_decls_
                    .emplace(import_text, parse_signature_text(import_text))
                    .first;
    }
    const uts::ProcDecl& decl = decl_it->second;
    CallCore core;
    core.transport = &io_;
    core.io = &io_;
    core.manager_link = &manager_;
    core.line = line_;
    core.arch = &ctx_.self().arch();
    core.compute = [this](double us) { compute(us); };
    BindingCache& cache = nested_cache_[name];
    CallResult result = core.invoke(name, decl, import_text, std::move(args),
                                    cache, CallOptions::legacy());
    return std::move(result.values_or_raise());
  }

 private:
  bool in_cluster() const override { return true; }

  void register_exports() {
    const arch::ArchDescriptor& arch = ctx_.self().arch();
    Message msg;
    msg.kind = MessageKind::kExport;
    msg.line = line_;
    msg.a = path_;
    msg.b = ctx_.self().machine().name;
    // Content hash of the spec text this process was built against; lets
    // a strict-mode Manager detect a manifest that predates the spec.
    msg.c = spec_hash_;
    msg.n = shared_ ? 1 : 0;
    for (const auto& [key, entry] : exports_.exports()) {
      // Export under the name the machine's compiler would emit: the
      // Cray's Fortran compiler upper-cases external names (§4.1).
      std::string external = entry.decl.name;
      if (options_.language == SourceLanguage::kFortran) {
        external = arch::fortran_external_name(arch, external);
      }
      msg.table.emplace_back(
          external, signature_text(uts::DeclKind::kExport, external,
                                   entry.decl.signature));
    }
    manager_.request(io_, std::move(msg));
    NPSS_LOG_DEBUG("host", io_.address(), " exported ",
                   exports_.exports().size(),
                   " procedure(s) for line ", line_);
  }

  /// On shutdown, close the mailbox, then answer any queued calls with a
  /// stale-binding error so blocked callers re-bind instead of hanging.
  void drain_and_exit(const std::string& reason) {
    ctx_.self().close();
    while (auto in = io_.try_receive()) {
      if (in->msg.kind == MessageKind::kCall ||
          in->msg.kind == MessageKind::kStateRequest) {
        try {
          io_.send(in->from(),
                   Message::error_reply(in->msg,
                                        util::ErrorCode::kStaleBinding,
                                        "procedure shut down: " + reason));
        } catch (const util::NoRouteError&) {
        }
      }
    }
    NPSS_LOG_DEBUG("host", io_.address(), " exiting: ", reason);
  }

  sim::ProcessContext& ctx_;
  MessageIo io_;
  /// A one-member link to the Manager that started this process.
  ManagerLink manager_;
  // Dispatch-fiber-only: the nested caches are touched only by unpooled
  // hosts.
  LineId line_ = kNoLine;
  bool shared_ = false;
  std::string path_;
  std::string spec_hash_;
  std::map<std::string, BindingCache> nested_cache_;
  std::map<std::string, uts::ProcDecl> nested_decls_;
};

// --- ExportTable -----------------------------------------------------------

ExportTable::ExportTable(const std::string& spec_text,
                         std::vector<ProcedureDef> procs) {
  uts::SpecFile spec = uts::parse_spec(spec_text);
  for (ProcedureDef& def : procs) {
    const uts::ProcDecl& decl = spec.find(def.name);
    if (decl.kind != uts::DeclKind::kExport) {
      throw util::ModelError("declaration for '" + def.name +
                             "' is not an export");
    }
    HostedExport entry{decl, std::move(def.handler), {}};
    entry.defaults.reserve(decl.signature.size());
    for (const uts::Param& p : decl.signature) {
      entry.defaults.push_back(uts::default_value(p.type));
    }
    exports_[lower(def.name)] = std::move(entry);
  }
}

const PreparedImport& ExportTable::prepare(const std::string& name,
                                           const std::string& import_text) {
  // Map nodes are reference-stable, so callers keep the entry past the
  // lock.
  util::MutexLock lock(mu_);
  auto it = prepared_.find(
      std::pair<std::string_view, std::string_view>(name, import_text));
  if (it != prepared_.end()) return it->second;

  auto target = exports_.find(lower(name));
  if (target == exports_.end()) {
    throw util::LookupError("no procedure '" + name + "' in this process");
  }
  PreparedImport prep;
  prep.target = &target->second;
  prep.import_decl = parse_signature_text(import_text);
  const uts::Signature& import_sig = prep.import_decl.signature;
  const uts::Signature& export_sig = prep.target->decl.signature;
  const std::string why =
      uts::signature_compatibility_error(import_sig, export_sig);
  if (!why.empty()) {
    throw util::TypeMismatchError("call to '" + name + "': " + why);
  }
  prep.slot_of_import.resize(import_sig.size());
  std::vector<bool> filled(export_sig.size(), false);
  std::size_t epos = 0;
  for (std::size_t i = 0; i < import_sig.size(); ++i) {
    while (export_sig[epos].name != import_sig[i].name) ++epos;
    filled[epos] =
        uts::param_travels(import_sig[i].mode, uts::Direction::kRequest);
    prep.slot_of_import[i] = epos++;
  }
  for (std::size_t slot = 0; slot < export_sig.size(); ++slot) {
    if (!filled[slot]) prep.default_slots.push_back(slot);
  }
  prep.request_plan = uts::compile_plan(import_sig, uts::Direction::kRequest);
  prep.reply_plan = uts::compile_plan(import_sig, uts::Direction::kReply);
  return prepared_
      .emplace(util::StringPair(name, import_text), std::move(prep))
      .first->second;
}

namespace {

/// Serve one call: unmarshal `request` through the prepared plan, scatter
/// it into the export's slots, run the handler, and gather the reply
/// values back into import order for the caller to marshal.
uts::ValueList run_prepared(const PreparedImport& prep,
                            const arch::ArchDescriptor& arch,
                            std::span<const std::uint8_t> request,
                            HostEngine& host) {
  const uts::Signature& import_sig = prep.import_decl.signature;
  // Request values decode straight into their export slots; only the
  // slots nothing fills copy a default.
  uts::ValueList values(prep.target->decl.signature.size());
  for (std::size_t slot : prep.default_slots) {
    values[slot] = prep.target->defaults[slot];
  }
  prep.request_plan->unmarshal_into(arch, request, values,
                                    prep.slot_of_import);

  ProcCall call(prep.target->decl.signature, std::move(values), host);
  prep.target->handler(call);

  // Each export slot is read once (slot_of_import is strictly
  // increasing), so the reply takes the handler's values by move.
  uts::ValueList reply_values;
  reply_values.reserve(import_sig.size());
  for (std::size_t i = 0; i < import_sig.size(); ++i) {
    reply_values.push_back(std::move(call.values()[prep.slot_of_import[i]]));
  }
  return reply_values;
}

}  // namespace

// --- HostEngine ------------------------------------------------------------

HostEngine::HostEngine(const std::string& spec_text,
                       std::vector<ProcedureDef> procs,
                       const arch::ArchDescriptor& arch,
                       HostTransport& transport,
                       ProcedureImageOptions options)
    : options_(std::move(options)),
      exports_(spec_text, std::move(procs)),
      arch_(&arch),
      transport_(transport) {
  const int workers = std::max(options_.workers, 0);
  pool_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    pool_.emplace_back([this] {
      while (auto request = queue_.pop()) serve(*request, /*pooled=*/true);
    });
  }
}

void HostEngine::drain() {
  queue_.close();
  pool_.clear();  // joins; pop() hands out every queued call first
}

bool HostEngine::dispatch(HostRequest& request) {
  const Message& msg = request.msg;
  if (msg.kind == MessageKind::kCall) {
    // Pooled, the call queues behind its own line's earlier calls.
    if (pool_.empty()) {
      serve(request, /*pooled=*/false);
    } else {
      queue_.push(msg.line, std::move(request));
    }
    return true;
  }
  // Every other kind is answered here, on the delivering thread: a ping
  // ahead of queued calls, so an RTT probe measures the fabric.
  Message rep{.kind = MessageKind::kPong, .seq = msg.seq};
  // Migration and shutdown orders come from a cluster's Manager: a host
  // without a cluster runtime answers them as unexpected, like a stray
  // kError.
  const bool order = msg.kind == MessageKind::kStateRequest ||
                     msg.kind == MessageKind::kStateInstall ||
                     msg.kind == MessageKind::kShutdownProc;
  switch (order && !in_cluster() ? MessageKind::kError : msg.kind) {
    case MessageKind::kPing:
      break;
    case MessageKind::kStateRequest:
      rep.kind = MessageKind::kStateReply;
      if (options_.save_state) rep.blob = options_.save_state();
      break;
    case MessageKind::kStateInstall:
      rep.kind = MessageKind::kStateAck;
      if (options_.restore_state) options_.restore_state(msg.blob);
      break;
    case MessageKind::kShutdownProc:
      drain();
      return false;
    default:
      rep = Message::error_reply(msg, util::ErrorCode::kProtocolError,
                                 "procedure host: unexpected " +
                                     std::string(message_kind_name(msg.kind)));
  }
  transport_.reply(request, rep, /*last=*/false);
  return true;
}

void HostEngine::serve(HostRequest& request, bool pooled) {
  const Message& msg = request.msg;
  // A worker that finds the queue empty sends the last reply of its
  // batch; queued calls mean more replies follow to share its write.
  auto last = [&] { return pooled && queue_.size() == 0; };
  // Adopt the caller's trace so both hops share one trace id; nested
  // remote calls made by the handler become children of this span.
  obs::Span span("rpc.host", "serve " + msg.a, msg.trace);
  span.set_line(msg.line);
  try {
    // Parse/type-check/plan-compile once per distinct import text; the
    // steady-state path runs the compiled plans only.
    const PreparedImport& prep = exports_.prepare(msg.a, msg.b);
    compute(static_cast<double>(msg.blob.size()) * kMarshalUsPerByte);
    if (options_.compute_us_per_call > 0) {
      compute(options_.compute_us_per_call);
    }
    Message rep;
    rep.kind = MessageKind::kReply;
    rep.seq = msg.seq;
    rep.blob = prep.reply_plan->marshal(
        *arch_, run_prepared(prep, *arch_, msg.blob, *this));
    compute(static_cast<double>(rep.blob.size()) * kMarshalUsPerByte);
    rep.trace = span.context();
    // Counted before the reply can leave: a caller that has its reply
    // also sees the count.
    ++calls_;
    if (obs::enabled()) {
      RpcMetrics& m = rpc_metrics();
      m.host_calls.add();
      m.host_bytes_marshaled.add(msg.blob.size() + rep.blob.size());
      m.host_handler_us.record(span.elapsed_us());
    }
    transport_.reply(request, rep, last());
  } catch (const util::Error& e) {
    count(rpc_metrics().host_errors);
    transport_.reply(request, Message::error_reply(msg, e), last());
  }
}

uts::ValueList HostEngine::call_remote(const std::string&, const std::string&,
                                       uts::ValueList) {
  throw util::ModelError(
      "nested remote calls need the Schooner cluster runtime");
}

// --- ProcCall --------------------------------------------------------------

const uts::Value& ProcCall::arg(std::size_t index) const {
  if (index >= values_.size()) {
    throw util::TypeMismatchError("argument index out of range");
  }
  return values_[index];
}

std::size_t ProcCall::index_of(std::string_view name) const {
  for (std::size_t i = 0; i < signature_->size(); ++i) {
    if ((*signature_)[i].name == name) return i;
  }
  throw util::TypeMismatchError("no parameter named '" + std::string(name) +
                                "'");
}

const uts::Value& ProcCall::arg(std::string_view name) const {
  return values_[index_of(name)];
}

void ProcCall::set(std::string_view name, uts::Value value) {
  values_[index_of(name)] = std::move(value);
}

void ProcCall::compute(double microseconds) { host_->compute(microseconds); }

uts::ValueList ProcCall::call_remote(const std::string& name,
                                     const std::string& import_spec_text,
                                     uts::ValueList args) {
  return host_->call_remote(name, import_spec_text, std::move(args));
}

sim::ProgramImage make_procedure_image(std::string spec_text,
                                       std::vector<ProcedureDef> procs,
                                       ProcedureImageOptions options) {
  return [spec_text = std::move(spec_text), procs = std::move(procs),
          options = std::move(options)](sim::ProcessContext& ctx) {
    HostRuntime runtime(ctx, spec_text, procs, options);
    runtime.run();
  };
}

}  // namespace npss::rpc
