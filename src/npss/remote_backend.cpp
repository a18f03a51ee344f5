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

std::string default_path(AdaptedComponent c) {
  switch (c) {
    case AdaptedComponent::kShaft: return kShaftPath;
    case AdaptedComponent::kDuct: return kDuctPath;
    case AdaptedComponent::kCombustor: return kCombustorPath;
    case AdaptedComponent::kNozzle: return kNozzlePath;
  }
  return "";
}

std::string instance_label(AdaptedComponent c, int instance) {
  return std::string(adapted_component_name(c)) + "[" +
         std::to_string(instance) + "]";
}

const tess::ComponentHooks& local_hooks() {
  static const tess::ComponentHooks hooks = tess::ComponentHooks::local();
  return hooks;
}

}  // namespace

// --- AdaptedClient -----------------------------------------------------------------

AdaptedClient::AdaptedClient(rpc::Session& session, AdaptedComponent component,
                             const std::string& name,
                             const Placement& placement) {
  line_ = session.open_line(rpc::LineOptions{}.with_name(name));
  line_->contact_schx(placement.machine, placement.path.empty()
                                             ? default_path(component)
                                             : placement.path);
  switch (component) {
    case AdaptedComponent::kShaft:
      primary_ = line_->import_proc("shaft", shaft_import_spec());
      secondary_ = line_->import_proc("setshaft", shaft_import_spec());
      break;
    case AdaptedComponent::kDuct:
      primary_ = line_->import_proc("duct", duct_import_spec());
      break;
    case AdaptedComponent::kCombustor:
      primary_ = line_->import_proc("combustor", combustor_import_spec());
      break;
    case AdaptedComponent::kNozzle:
      primary_ = line_->import_proc("nozzle", nozzle_import_spec());
      break;
  }
}

bool AdaptedClient::call(rpc::RemoteProc& proc, ValueList args,
                         ValueList* out) {
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
  NPSS_LOG_WARN("npss.glue", line_->name(), " degraded to local compute: ",
                result.status.to_string(), " (", result.attempt_count(),
                " attempt(s))");
  if (obs::enabled()) {
    obs::Registry::global().counter("npss.remote.degraded_calls").add();
  }
  return false;
}

StationArray AdaptedClient::duct(const StationArray& in, double dp) {
  ValueList out;
  if (placed() && call(*primary_,
                       {station_value(in), Value::real(dp),
                        Value::real_array({0, 0, 0, 0})},
                       &out)) {
    return station_from(out[2]);
  }
  return local_hooks().duct(0, in, dp);
}

StationArray AdaptedClient::combustor(const StationArray& in, double wf,
                                      double eff, double dp) {
  ValueList out;
  if (placed() && call(*primary_,
                       {station_value(in), Value::real(wf), Value::real(eff),
                        Value::real(dp), Value::real_array({0, 0, 0, 0})},
                       &out)) {
    return station_from(out[4]);
  }
  return local_hooks().combustor(0, in, wf, eff, dp);
}

StationArray AdaptedClient::nozzle(const StationArray& in, double area,
                                   double pamb) {
  ValueList out;
  if (placed() && call(*primary_,
                       {station_value(in), Value::real(area),
                        Value::real(pamb), Value::real_array({0, 0, 0, 0})},
                       &out)) {
    return station_from(out[3]);
  }
  return local_hooks().nozzle(0, in, area, pamb);
}

double AdaptedClient::setshaft(const StationArray& ecom, int incom,
                               const StationArray& etur, int intur) {
  ValueList out;
  if (placed() && call(*secondary_,
                       {station_value(ecom), Value::integer(incom),
                        station_value(etur), Value::integer(intur),
                        Value::real(0)},
                       &out)) {
    return out[4].as_real();
  }
  return local_hooks().setshaft(0, ecom, incom, etur, intur);
}

double AdaptedClient::shaft(const StationArray& ecom, int incom,
                            const StationArray& etur, int intur, double ecorr,
                            double xspool, double xmyi) {
  ValueList out;
  if (placed() && call(*primary_,
                       {station_value(ecom), Value::integer(incom),
                        station_value(etur), Value::integer(intur),
                        Value::real(ecorr), Value::real(xspool),
                        Value::real(xmyi), Value::real(0)},
                       &out)) {
    return out[7].as_real();
  }
  return local_hooks().shaft(0, ecom, incom, etur, intur, ecorr, xspool, xmyi);
}

rpc::PendingCall AdaptedClient::call_async(ValueList args) {
  return primary_->call_async(std::move(args), options_);
}

int AdaptedClient::calls() const {
  return (primary_ ? primary_->calls() : 0) +
         (secondary_ ? secondary_->calls() : 0);
}

int AdaptedClient::stale_retries() const {
  return (primary_ ? primary_->stale_retries() : 0) +
         (secondary_ ? secondary_->stale_retries() : 0);
}

void AdaptedClient::quit() {
  if (line_) line_->quit();
}

// --- RemoteBackend -----------------------------------------------------------------

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
  if (!session_) session_ = system_->make_session(avs_machine_);
  AdaptedClient client(*session_, component,
                       instance_label(component, instance), placement);
  client.set_call_options(options_);
  client.set_local_fallback(local_fallback_);
  instances_[{component, instance}] = std::move(client);
  reset_clocks();
}

void RemoteBackend::set_call_options(const rpc::CallOptions& opts) {
  options_ = opts;
  for (auto& [key, client] : instances_) client.set_call_options(opts);
}

void RemoteBackend::set_local_fallback(bool on) {
  local_fallback_ = on;
  for (auto& [key, client] : instances_) client.set_local_fallback(on);
}

std::vector<std::string> RemoteBackend::degraded_instances() const {
  std::vector<std::string> labels;
  for (const auto& [key, client] : instances_) {
    if (client.degraded_calls() > 0) {
      labels.push_back(instance_label(key.first, key.second));
    }
  }
  std::sort(labels.begin(), labels.end());
  return labels;
}


int RemoteBackend::sum(int (AdaptedClient::*count)() const) const {
  int total = 0;
  for (const auto& [key, client] : instances_) total += (client.*count)();
  return total;
}

AdaptedClient* RemoteBackend::find(AdaptedComponent c, int instance) {
  auto it = instances_.find({c, instance});
  return it == instances_.end() ? nullptr : &it->second;
}

AdaptedClient& RemoteBackend::require(AdaptedComponent c, int instance,
                                      const char* what) {
  AdaptedClient* client = find(c, instance);
  if (!client) {
    throw util::LookupError(std::string(what) + ": " +
                            instance_label(c, instance) +
                            " is not placed remotely");
  }
  return *client;
}

template <typename Call>
auto RemoteBackend::on_program_time(AdaptedComponent c, int instance,
                                    Call call) {
  AdaptedClient* placed = find(c, instance);
  if (!placed) return call(local_);
  util::VirtualClock& line_clock = placed->line().io().endpoint().clock();
  line_clock.join(program_us_);
  auto result = call(*placed);
  program_us_ = std::max(program_us_, line_clock.now());
  return result;
}

tess::ComponentHooks RemoteBackend::hooks() {
  using C = AdaptedComponent;
  tess::ComponentHooks hooks;
  hooks.duct = [this](int instance, const StationArray& in, double dp) {
    return on_program_time(C::kDuct, instance, [&](AdaptedClient& client) {
      return client.duct(in, dp);
    });
  };
  hooks.combustor = [this](int instance, const StationArray& in, double wf,
                           double eff, double dp) {
    return on_program_time(C::kCombustor, instance,
                           [&](AdaptedClient& client) {
                             return client.combustor(in, wf, eff, dp);
                           });
  };
  hooks.nozzle = [this](int instance, const StationArray& in, double area,
                        double pamb) {
    return on_program_time(C::kNozzle, instance, [&](AdaptedClient& client) {
      return client.nozzle(in, area, pamb);
    });
  };
  hooks.setshaft = [this](int spool, const StationArray& ecom, int incom,
                          const StationArray& etur, int intur) {
    return on_program_time(C::kShaft, spool, [&](AdaptedClient& client) {
      return client.setshaft(ecom, incom, etur, intur);
    });
  };
  hooks.shaft = [this](int spool, const StationArray& ecom, int incom,
                       const StationArray& etur, int intur, double ecorr,
                       double xspool, double xmyi) {
    return on_program_time(C::kShaft, spool, [&](AdaptedClient& client) {
      return client.shaft(ecom, incom, etur, intur, ecorr, xspool, xmyi);
    });
  };
  return hooks;
}

rpc::PendingCall RemoteBackend::call_async(AdaptedComponent component,
                                           int instance,
                                           uts::ValueList args) {
  return require(component, instance, "call_async")
      .call_async(std::move(args));
}

std::string RemoteBackend::move(AdaptedComponent component, int instance,
                                const std::string& machine,
                                const std::string& path,
                                bool transfer_state) {
  return require(component, instance, "move")
      .line()
      .move_proc(std::string(adapted_component_name(component)), machine,
                 path, transfer_state);
}

std::map<std::string, int> RemoteBackend::call_counts() const {
  std::map<std::string, int> counts;
  for (const auto& [key, client] : instances_) {
    counts[instance_label(key.first, key.second)] = client.calls();
  }
  return counts;
}

void RemoteBackend::reset_clocks() {
  for (auto& [key, client] : instances_) {
    program_us_ =
        std::max(program_us_, client.line().io().endpoint().clock().now());
  }
  base_us_ = program_us_;
}

void RemoteBackend::quit() {
  for (auto& [key, client] : instances_) client.quit();
}

}  // namespace npss::glue
