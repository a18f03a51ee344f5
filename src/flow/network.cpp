#include "flow/network.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/log.hpp"
#include "util/status.hpp"

namespace npss::flow {

using util::GraphError;

namespace {

/// Run one module's compute, timed into the scheduler's registry slots.
/// Aggregated (no per-execution spans): solver loops evaluate the network
/// thousands of times per run.
void compute_instrumented(Module& module) {
  if (!obs::enabled()) {
    module.compute();
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  module.compute();
  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  obs::Registry& reg = obs::Registry::global();
  reg.counter("flow.scheduler.executions").add();
  reg.histogram("flow.scheduler.module_evaluate_us").record(us);
}

}  // namespace

Network::~Network() {
  try {
    clear();
  } catch (...) {
  }
}

Module& Network::add(const std::string& instance_name,
                     std::unique_ptr<Module> module) {
  if (nodes_.contains(instance_name)) {
    throw GraphError("module instance '" + instance_name +
                     "' already in network");
  }
  module->instance_name_ = instance_name;
  module->network_ = this;
  ModuleSpec spec(*module);
  module->spec(spec);
  Module& ref = *module;
  nodes_[instance_name] = Node{std::move(module), false};
  insertion_order_.push_back(instance_name);
  invalidate_topology();
  return ref;
}

Module& Network::add(const std::string& instance_name,
                     const std::string& type_name) {
  return add(instance_name, ModuleFactory::instance().make(type_name));
}

void Network::connect(const std::string& src, const std::string& src_port,
                      const std::string& dst, const std::string& dst_port) {
  Module& src_mod = module(src);
  Module& dst_mod = module(dst);
  OutputPort* out = src_mod.find_output(src_port);
  if (!out) {
    throw GraphError("module '" + src + "' has no output '" + src_port + "'");
  }
  InputPort* in = dst_mod.find_input(dst_port);
  if (!in) {
    throw GraphError("module '" + dst + "' has no input '" + dst_port + "'");
  }
  if (in->connected()) {
    throw GraphError("input '" + dst + "." + dst_port +
                     "' already has a source");
  }
  if (out->type != in->type) {
    throw GraphError("type mismatch connecting " + src + "." + src_port +
                     " (" + out->type.to_string() + ") to " + dst + "." +
                     dst_port + " (" + in->type.to_string() + ")");
  }
  if (src == dst || reachable(dst, src)) {
    throw GraphError("connection " + src + " -> " + dst +
                     " would create a cycle");
  }
  in->source_module = src;
  in->source_port = src_port;
  connections_.push_back(Connection{src, src_port, dst, dst_port});
  invalidate_topology();
}

void Network::disconnect(const std::string& dst, const std::string& dst_port) {
  Module& dst_mod = module(dst);
  InputPort* in = dst_mod.find_input(dst_port);
  if (!in || !in->connected()) {
    throw GraphError("input '" + dst + "." + dst_port + "' is not connected");
  }
  in->source_module.clear();
  in->source_port.clear();
  std::erase_if(connections_, [&](const Connection& c) {
    return c.dst_module == dst && c.dst_port == dst_port;
  });
  // Edge removal changes longest-path depths, so the wavefront levels the
  // scheduler executes must be rebuilt before the next evaluate().
  invalidate_topology();
}

void Network::remove(const std::string& instance_name) {
  auto it = nodes_.find(instance_name);
  if (it == nodes_.end()) {
    throw GraphError("no module instance '" + instance_name + "'");
  }
  it->second.module->destroy();
  // Drop connections touching the module and clear downstream sources.
  for (const Connection& c : connections_) {
    if (c.src_module == instance_name) {
      if (auto dst = nodes_.find(c.dst_module); dst != nodes_.end()) {
        if (InputPort* in = dst->second.module->find_input(c.dst_port)) {
          in->source_module.clear();
          in->source_port.clear();
        }
      }
    }
  }
  std::erase_if(connections_, [&](const Connection& c) {
    return c.src_module == instance_name || c.dst_module == instance_name;
  });
  nodes_.erase(it);
  std::erase(insertion_order_, instance_name);
  invalidate_topology();
}

void Network::clear() {
  // Destroy in reverse insertion order (downstream modules usually joined
  // later), mirroring AVS clearing a network.
  for (auto it = insertion_order_.rbegin(); it != insertion_order_.rend();
       ++it) {
    auto node = nodes_.find(*it);
    if (node != nodes_.end()) node->second.module->destroy();
  }
  nodes_.clear();
  insertion_order_.clear();
  connections_.clear();
  invalidate_topology();
}

Module& Network::module(const std::string& instance_name) {
  auto it = nodes_.find(instance_name);
  if (it == nodes_.end()) {
    throw GraphError("no module instance '" + instance_name + "'");
  }
  return *it->second.module;
}

const Module& Network::module(const std::string& instance_name) const {
  return const_cast<Network*>(this)->module(instance_name);
}

bool Network::has(const std::string& instance_name) const {
  return nodes_.contains(instance_name);
}

bool Network::reachable(const std::string& from, const std::string& to) const {
  if (from == to) return true;
  std::vector<std::string> stack{from};
  std::set<std::string> seen;
  while (!stack.empty()) {
    std::string cur = std::move(stack.back());
    stack.pop_back();
    if (!seen.insert(cur).second) continue;
    for (const Connection& c : connections_) {
      if (c.src_module != cur) continue;
      if (c.dst_module == to) return true;
      stack.push_back(c.dst_module);
    }
  }
  return false;
}

void Network::ensure_topology() const {
  if (topo_valid_) return;
  std::map<std::string, int> indegree;
  for (const std::string& name : insertion_order_) indegree[name] = 0;
  for (const Connection& c : connections_) ++indegree[c.dst_module];
  // Kahn's algorithm, seeded in insertion order for stable scheduling.
  std::vector<std::string> ready;
  for (const std::string& name : insertion_order_) {
    if (indegree[name] == 0) ready.push_back(name);
  }
  std::vector<std::string> order;
  order.reserve(insertion_order_.size());
  std::size_t next = 0;
  while (next < ready.size()) {
    std::string cur = ready[next++];
    order.push_back(cur);
    for (const Connection& c : connections_) {
      if (c.src_module == cur && --indegree[c.dst_module] == 0) {
        ready.push_back(c.dst_module);
      }
    }
  }
  if (order.size() != insertion_order_.size()) {
    throw GraphError("network contains a cycle");
  }

  // Wavefront levels: a module's level is its longest path from a source,
  // so same-level modules cannot be connected (directly or transitively).
  std::map<std::string, std::size_t> depth;
  std::size_t max_depth = 0;
  for (const std::string& name : order) {
    std::size_t d = 0;
    for (const Connection& c : connections_) {
      if (c.dst_module == name) d = std::max(d, depth[c.src_module] + 1);
    }
    depth[name] = d;
    max_depth = std::max(max_depth, d);
  }
  std::vector<std::vector<std::string>> levels(order.empty() ? 0
                                                             : max_depth + 1);
  for (const std::string& name : order) levels[depth[name]].push_back(name);

  topo_cache_ = std::move(order);
  level_cache_ = std::move(levels);
  topo_valid_ = true;
}

const std::vector<std::string>& Network::topo_order() const {
  ensure_topology();
  return topo_cache_;
}

const std::vector<std::vector<std::string>>& Network::wavefronts() const {
  ensure_topology();
  return level_cache_;
}

std::vector<std::string> Network::module_names() const { return topo_order(); }

void Network::propagate(Module& module) {
  for (const Connection& c : connections_) {
    if (c.src_module != module.instance_name()) continue;
    OutputPort* out = module.find_output(c.src_port);
    if (!out || !out->value) continue;
    Node& dst = nodes_.at(c.dst_module);
    InputPort* in = dst.module->find_input(c.dst_port);
    in->value = *out->value;
    dst.fresh_input = true;
  }
}

void Network::run_level(const std::vector<std::string>& level,
                        bool only_changed, int& executed) {
  // One module at a time, in level order, on the caller's thread. A failed
  // module's outputs are NOT propagated: downstream keeps the previous
  // values (the degraded-but-running behavior).
  std::size_t width = 0;
  for (const std::string& name : level) {
    Node& node = nodes_.at(name);
    Module& module = *node.module;
    if (only_changed && !node.fresh_input && !module.widgets_changed()) {
      continue;
    }
    ++width;
    std::string error;
    if (!continue_on_error_) {
      compute_instrumented(module);
    } else {
      try {
        compute_instrumented(module);
      } catch (const std::exception& e) {
        error = e.what();
        if (error.empty()) error = "unknown error";
      }
    }
    module.clear_widget_changes();
    node.fresh_input = false;
    if (!error.empty()) {
      module_errors_.emplace_back(module.instance_name(), error);
      NPSS_LOG_WARN("flow", "module '", module.instance_name(),
                    "' failed, continuing without it: ", error);
      if (obs::enabled()) {
        obs::Registry::global().counter("flow.scheduler.module_errors").add();
      }
      continue;
    }
    ++executions_;
    ++executed;
    propagate(module);
  }
  if (width > 0 && obs::enabled()) {
    obs::Registry::global()
        .histogram("flow.scheduler.wavefront_width")
        .record(static_cast<double>(width));
  }
}

int Network::evaluate() {
  ensure_topology();
  int executed = 0;
  for (std::size_t l = 0; l < level_cache_.size(); ++l) {
    run_level(level_cache_[l], /*only_changed=*/false, executed);
  }
  return executed;
}

int Network::run_changed() {
  ensure_topology();
  int executed = 0;
  for (std::size_t l = 0; l < level_cache_.size(); ++l) {
    run_level(level_cache_[l], /*only_changed=*/true, executed);
  }
  return executed;
}

std::string Network::save_to_text() const {
  std::ostringstream os;
  os << "# flow network\n";
  for (const std::string& name : insertion_order_) {
    const Module& mod = *nodes_.at(name).module;
    os << "module " << name << " " << mod.type_name() << "\n";
    for (const std::string& wname : mod.widget_names()) {
      const Widget& w = mod.widget(wname);
      std::string text;
      if (w.value().is_string()) {
        text = w.text();
      } else if (w.value().is_integer()) {
        text = std::to_string(w.integer());
      } else {
        std::ostringstream vs;
        vs.precision(17);
        vs << w.real();
        text = vs.str();
      }
      os << "widget " << name << " " << wname << " " << text << "\n";
    }
  }
  for (const Connection& c : connections_) {
    os << "connect " << c.src_module << " " << c.src_port << " "
       << c.dst_module << " " << c.dst_port << "\n";
  }
  return os.str();
}

void Network::load_from_text(const std::string& text) {
  if (!nodes_.empty()) {
    throw GraphError("load_from_text requires an empty network");
  }
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string verb;
    ls >> verb;
    if (verb == "module") {
      std::string instance, type;
      ls >> instance >> type;
      add(instance, type);
    } else if (verb == "widget") {
      std::string instance, widget_name;
      ls >> instance >> widget_name;
      std::string value;
      std::getline(ls, value);
      if (!value.empty() && value[0] == ' ') value.erase(0, 1);
      module(instance).widget(widget_name).set_from_text(value);
    } else if (verb == "connect") {
      std::string src, src_port, dst, dst_port;
      ls >> src >> src_port >> dst >> dst_port;
      connect(src, src_port, dst, dst_port);
    } else if (verb == "loop") {
      // Solver-loop declarations are flow_lint metadata (a declared loop
      // legalizes a cycle for the static pass); the executive itself
      // schedules only the DAG, so the line is ignored here.
    } else {
      throw GraphError("network file line " + std::to_string(lineno) +
                       ": unknown verb '" + verb + "'");
    }
  }
}

}  // namespace npss::flow
