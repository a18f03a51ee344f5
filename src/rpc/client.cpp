#include "rpc/client.hpp"

#include <chrono>

#include "rpc/manager.hpp"
#include "rpc/metrics.hpp"
#include "sim/fiber.hpp"
#include "util/log.hpp"

namespace npss::rpc {

// --- Session ---------------------------------------------------------------

Session::Session(sim::Cluster& cluster, std::string machine,
                 std::string manager_address,
                 std::vector<std::string> manager_replicas,
                 int leader_settle_ms)
    : cluster_(&cluster),
      machine_(std::move(machine)),
      manager_(std::move(manager_address), std::move(manager_replicas),
               leader_settle_ms) {}

std::unique_ptr<Line> Session::open_line(LineOptions opts) {
  sim::EndpointPtr endpoint = cluster_->create_endpoint(
      machine_, "schx-line-" + std::to_string(line_seq_.fetch_add(
                    1, std::memory_order_relaxed)));
  auto line = std::unique_ptr<Line>(
      new Line(*this, std::move(endpoint), std::move(opts)));
  lines_opened_.fetch_add(1, std::memory_order_relaxed);
  return line;
}

// --- Line ------------------------------------------------------------------

Line::Line(Session& session, sim::EndpointPtr endpoint, LineOptions opts)
    : session_(&session),
      endpoint_(std::move(endpoint)),
      io_(*session.cluster_, endpoint_),
      name_(std::move(opts.name)),
      budget_(std::make_shared<LineBudget>(opts.budget)) {
  core_.transport = &io_;
  core_.io = &io_;
  core_.manager_link = &session_->manager_;
  core_.arch = &endpoint_->arch();
  core_.compute = [this](double us) {
    endpoint_->clock().advance(static_cast<util::SimTime>(
        us / std::max(endpoint_->arch().cpu_speed, 1e-6)));
  };
  const int attempts = std::max(opts.admission_attempts, 1);
  try {
    for (int attempt = 1;; ++attempt) {
      Message msg;
      msg.kind = MessageKind::kRegisterLine;
      msg.a = name_;
      try {
        Message ack = session_->manager_.request(io_, std::move(msg));
        line_ = ack.line;
        core_.line = line_;
        // The Manager grants a per-line outstanding-call quota in ack.n
        // (0 = unlimited); the smaller of it and the caller's cap wins.
        budget_->restrict_outstanding(static_cast<int>(ack.n));
        return;
      } catch (const util::LineRejectedError&) {
        // Admission gate (SystemOptions::max_lines). Back off gracefully:
        // capacity frees when some other line quits, and a thundering
        // herd of instant re-registrations would keep the Manager busy
        // saying no. Virtual time advances in step so seeded runs stay
        // deterministic.
        if (attempt >= attempts) throw;
        count(rpc_metrics().line_admission_backoffs);
        if (opts.admission_backoff_ms > 0) {
          sim::sleep_for(std::chrono::milliseconds(opts.admission_backoff_ms));
          endpoint_->clock().advance(
              static_cast<util::SimTime>(opts.admission_backoff_ms) * 1000);
        }
      }
    }
  } catch (...) {
    // The line never existed as far as the Manager is concerned; its
    // endpoint would otherwise leak in the cluster.
    try {
      session_->cluster_->retire_endpoint(endpoint_->address());
    } catch (...) {
    }
    throw;
  }
}

Line::~Line() {
  try {
    quit();
  } catch (...) {
    // Destructor teardown is best-effort (the Manager may already be gone).
  }
  try {
    session_->cluster_->retire_endpoint(endpoint_->address());
  } catch (...) {
  }
}

const arch::ArchDescriptor& Line::arch() const { return endpoint_->arch(); }

StartResult Line::contact_schx(const std::string& machine,
                               const std::string& path, bool shared) {
  Message msg;
  msg.kind = MessageKind::kStartRequest;
  msg.line = line_;
  msg.a = machine;
  msg.b = path;
  msg.n = shared ? 1 : 0;
  Message ack = session_->manager_.request(io_, std::move(msg));
  StartResult result;
  result.address = ack.a;
  result.exports = ack.table;
  NPSS_LOG_DEBUG("client", "line ", line_, ": started ", path, " on ",
                 machine, " -> ", ack.a);
  return result;
}

BindingCache& Line::cache_for(const std::string& name,
                              const uts::Signature& signature,
                              const std::string& import_text) {
  BindingCache& cache = caches_[name + "\n" + import_text];
  if (!cache.request_plan) {
    cache.request_plan = uts::compile_plan(signature, uts::Direction::kRequest);
    cache.reply_plan = uts::compile_plan(signature, uts::Direction::kReply);
  }
  return cache;
}

std::unique_ptr<RemoteProc> Line::import_proc(
    const std::string& name, const std::string& import_spec_text) {
  uts::SpecFile file = uts::parse_spec(import_spec_text);
  const uts::ProcDecl& decl = file.find(name);
  if (decl.kind != uts::DeclKind::kImport) {
    throw util::ModelError("declaration for '" + name +
                           "' is not an import");
  }
  std::string text = uts::decl_to_string(decl);
  BindingCache& cache = cache_for(name, decl.signature, text);
  return std::unique_ptr<RemoteProc>(
      new RemoteProc(*this, name, decl, std::move(text), cache));
}

std::string Line::move_proc(const std::string& name,
                            const std::string& machine,
                            const std::string& path, bool transfer_state) {
  Message msg;
  msg.kind = MessageKind::kMove;
  msg.line = line_;
  msg.a = name;
  msg.b = machine;
  msg.c = path;
  msg.n = transfer_state ? 1 : 0;
  Message ack = session_->manager_.request(io_, std::move(msg));
  return ack.a;
}

void Line::quit() {
  if (line_ == kNoLine) return;
  Message msg;
  msg.kind = MessageKind::kQuit;
  msg.line = line_;
  session_->manager_.request(io_, std::move(msg));
  line_ = kNoLine;
}

CallOptions Line::with_budget(const CallOptions& opts) const {
  if (opts.line_budget) return opts;
  CallOptions stamped = opts;
  stamped.line_budget = budget_;
  return stamped;
}

CallResult Line::invoke(RemoteProc& proc, uts::ValueList args,
                        const CallOptions& opts) {
  if (line_ == kNoLine) {
    throw util::ShutdownError("line already quit");
  }
  return core_.invoke(proc.name_, proc.decl_, proc.import_text_,
                      std::move(args), proc.cache_, with_budget(opts));
}

// --- RemoteProc ------------------------------------------------------------

RemoteProc::RemoteProc(Line& owner, std::string name, uts::ProcDecl decl,
                       std::string import_text, BindingCache& cache)
    : owner_(&owner),
      name_(std::move(name)),
      decl_(std::move(decl)),
      import_text_(std::move(import_text)),
      cache_(cache) {}

CallResult RemoteProc::call(uts::ValueList args, const CallOptions& opts) {
  calls_.add();
  return owner_->invoke(*this, std::move(args), opts);
}

PendingCall RemoteProc::call_async(uts::ValueList args,
                                   const CallOptions& opts) {
  if (owner_->line_ == kNoLine) {
    throw util::ShutdownError("line already quit");
  }
  calls_.add();
  return owner_->core_.issue(name_, decl_, import_text_, std::move(args),
                             cache_, owner_->with_budget(opts));
}

util::SimTime RemoteProc::ping() {
  if (owner_->line_ == kNoLine) {
    throw util::ShutdownError("line already quit");
  }
  if (cache_.address.empty()) {
    owner_->core_.bind(name_, import_text_, cache_);
  }
  return owner_->io_.ping(cache_.address);
}

}  // namespace npss::rpc
