#include "npss/remote_backend.hpp"

#include <algorithm>

#include "npss/procedures.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace npss::glue {

using tess::StationArray;
using uts::Value;
using uts::ValueList;

std::string_view adapted_component_name(AdaptedComponent c) {
  switch (c) {
    case AdaptedComponent::kShaft: return "shaft";
    case AdaptedComponent::kDuct: return "duct";
    case AdaptedComponent::kCombustor: return "combustor";
    case AdaptedComponent::kNozzle: return "nozzle";
  }
  return "?";
}

namespace {

Value station_value(const StationArray& a) {
  return Value::real_array({a[0], a[1], a[2], a[3]});
}

StationArray station_from(const Value& v) {
  std::vector<double> r = v.as_real_vector();
  return {r[0], r[1], r[2], r[3]};
}

std::string default_path(AdaptedComponent c) {
  switch (c) {
    case AdaptedComponent::kShaft: return kShaftPath;
    case AdaptedComponent::kDuct: return kDuctPath;
    case AdaptedComponent::kCombustor: return kCombustorPath;
    case AdaptedComponent::kNozzle: return kNozzlePath;
  }
  return "";
}

}  // namespace

RemoteBackend::RemoteBackend(rpc::SchoonerSystem& system,
                             std::string avs_machine)
    : system_(&system), avs_machine_(std::move(avs_machine)) {}

RemoteBackend::~RemoteBackend() {
  try {
    quit();
  } catch (...) {
  }
}

void RemoteBackend::place(AdaptedComponent component, int instance,
                          const Placement& placement) {
  Placement p = placement;
  if (p.path.empty()) p.path = default_path(component);

  if (!session_) session_ = system_->make_session(avs_machine_);
  Instance inst;
  inst.line = session_->open_line(rpc::LineOptions{}.with_name(
      std::string(adapted_component_name(component)) + "[" +
      std::to_string(instance) + "]"));
  inst.line->contact_schx(p.machine, p.path);
  switch (component) {
    case AdaptedComponent::kShaft:
      inst.primary = inst.line->import_proc("shaft", shaft_import_spec());
      inst.secondary =
          inst.line->import_proc("setshaft", shaft_import_spec());
      break;
    case AdaptedComponent::kDuct:
      inst.primary = inst.line->import_proc("duct", duct_import_spec());
      break;
    case AdaptedComponent::kCombustor:
      inst.primary =
          inst.line->import_proc("combustor", combustor_import_spec());
      break;
    case AdaptedComponent::kNozzle:
      inst.primary = inst.line->import_proc("nozzle", nozzle_import_spec());
      break;
  }
  inst.clock_base = inst.line->io().endpoint().clock().now();
  instances_[{component, instance}] = std::move(inst);
}

bool RemoteBackend::remote_call(rpc::RemoteProc& proc,
                                const std::string& label, uts::ValueList args,
                                uts::ValueList* out) {
  rpc::CallResult result = proc.call(std::move(args), options_);
  if (result.failed_over) {
    ++failovers_;
    if (obs::enabled()) {
      obs::Registry::global().counter("npss.remote.failovers").add();
    }
  }
  if (result.ok()) {
    *out = std::move(result.values);
    return true;
  }
  if (!local_fallback_) result.status.raise_if_error();
  ++degraded_calls_;
  degraded_.insert(label);
  NPSS_LOG_WARN("npss.glue", label, " degraded to local compute: ",
                result.status.to_string(), " (", result.attempt_count(),
                " attempt(s))");
  if (obs::enabled()) {
    obs::Registry::global().counter("npss.remote.degraded_calls").add();
  }
  return false;
}

std::vector<std::string> RemoteBackend::degraded_instances() const {
  return {degraded_.begin(), degraded_.end()};
}

RemoteBackend::Instance* RemoteBackend::find(AdaptedComponent c,
                                             int instance) {
  auto it = instances_.find({c, instance});
  return it == instances_.end() ? nullptr : &it->second;
}

tess::ComponentHooks RemoteBackend::hooks() {
  tess::ComponentHooks local = tess::ComponentHooks::local();
  tess::ComponentHooks hooks;

  hooks.duct = [this, local](int instance, const StationArray& in,
                             double dp) {
    Instance* inst = find(AdaptedComponent::kDuct, instance);
    ValueList out;
    if (!inst ||
        !remote_call(*inst->primary, "duct[" + std::to_string(instance) + "]",
                     {station_value(in), Value::real(dp),
                      Value::real_array({0, 0, 0, 0})},
                     &out)) {
      return local.duct(instance, in, dp);
    }
    return station_from(out[2]);
  };

  hooks.combustor = [this, local](int instance, const StationArray& in,
                                  double wf, double eff, double dp) {
    Instance* inst = find(AdaptedComponent::kCombustor, instance);
    ValueList out;
    if (!inst ||
        !remote_call(*inst->primary,
                     "combustor[" + std::to_string(instance) + "]",
                     {station_value(in), Value::real(wf), Value::real(eff),
                      Value::real(dp), Value::real_array({0, 0, 0, 0})},
                     &out)) {
      return local.combustor(instance, in, wf, eff, dp);
    }
    return station_from(out[4]);
  };

  hooks.nozzle = [this, local](int instance, const StationArray& in,
                               double area, double pamb) {
    Instance* inst = find(AdaptedComponent::kNozzle, instance);
    ValueList out;
    if (!inst ||
        !remote_call(*inst->primary,
                     "nozzle[" + std::to_string(instance) + "]",
                     {station_value(in), Value::real(area), Value::real(pamb),
                      Value::real_array({0, 0, 0, 0})},
                     &out)) {
      return local.nozzle(instance, in, area, pamb);
    }
    return station_from(out[3]);
  };

  hooks.setshaft = [this, local](int spool, const StationArray& ecom,
                                 int incom, const StationArray& etur,
                                 int intur) {
    Instance* inst = find(AdaptedComponent::kShaft, spool);
    ValueList out;
    if (!inst ||
        !remote_call(*inst->secondary,
                     "shaft[" + std::to_string(spool) + "]",
                     {station_value(ecom), Value::integer(incom),
                      station_value(etur), Value::integer(intur),
                      Value::real(0)},
                     &out)) {
      return local.setshaft(spool, ecom, incom, etur, intur);
    }
    return out[4].as_real();
  };

  hooks.shaft = [this, local](int spool, const StationArray& ecom, int incom,
                              const StationArray& etur, int intur,
                              double ecorr, double xspool, double xmyi) {
    Instance* inst = find(AdaptedComponent::kShaft, spool);
    ValueList out;
    if (!inst ||
        !remote_call(*inst->primary, "shaft[" + std::to_string(spool) + "]",
                     {station_value(ecom), Value::integer(incom),
                      station_value(etur), Value::integer(intur),
                      Value::real(ecorr), Value::real(xspool),
                      Value::real(xmyi), Value::real(0)},
                     &out)) {
      return local.shaft(spool, ecom, incom, etur, intur, ecorr, xspool,
                         xmyi);
    }
    return out[7].as_real();
  };

  return hooks;
}

rpc::PendingCall RemoteBackend::call_async(AdaptedComponent component,
                                           int instance,
                                           uts::ValueList args) {
  Instance* inst = find(component, instance);
  if (!inst) {
    throw util::LookupError("call_async: " +
                            std::string(adapted_component_name(component)) +
                            "[" + std::to_string(instance) +
                            "] is not placed remotely");
  }
  return inst->primary->call_async(std::move(args), options_);
}

std::string RemoteBackend::move(AdaptedComponent component, int instance,
                                const std::string& machine,
                                const std::string& path,
                                bool transfer_state) {
  Instance* inst = find(component, instance);
  if (!inst) {
    throw util::LookupError("move: " +
                            std::string(adapted_component_name(component)) +
                            "[" + std::to_string(instance) +
                            "] is not placed remotely");
  }
  return inst->line->move_proc(
      std::string(adapted_component_name(component)), machine, path,
      transfer_state);
}

int RemoteBackend::total_stale_retries() const {
  int total = 0;
  for (const auto& [key, inst] : instances_) {
    if (inst.primary) total += inst.primary->stale_retries();
    if (inst.secondary) total += inst.secondary->stale_retries();
  }
  return total;
}

std::map<std::string, int> RemoteBackend::call_counts() const {
  std::map<std::string, int> counts;
  for (const auto& [key, inst] : instances_) {
    std::string label = std::string(adapted_component_name(key.first)) + "[" +
                        std::to_string(key.second) + "]";
    int n = inst.primary ? inst.primary->calls() : 0;
    if (inst.secondary) n += inst.secondary->calls();
    counts[label] = n;
  }
  return counts;
}

int RemoteBackend::total_calls() const {
  int total = 0;
  for (const auto& [label, n] : call_counts()) total += n;
  return total;
}

util::SimTime RemoteBackend::elapsed_virtual_us() const {
  util::SimTime worst = 0;
  for (const auto& [key, inst] : instances_) {
    worst = std::max(worst, inst.line->io().endpoint().clock().now() -
                                inst.clock_base);
  }
  return worst;
}

void RemoteBackend::reset_clocks() {
  for (auto& [key, inst] : instances_) {
    inst.clock_base = inst.line->io().endpoint().clock().now();
  }
}

void RemoteBackend::quit() {
  for (auto& [key, inst] : instances_) {
    if (inst.line) inst.line->quit();
  }
}

}  // namespace npss::glue
