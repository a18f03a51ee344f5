#include "check/flowlint.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "check/check.hpp"
#include "flow/module.hpp"
#include "util/status.hpp"

namespace npss::check {

namespace {

using uts::SourceLoc;

struct Instance {
  const ModuleTypeInfo* info = nullptr;
  int line = 0;
};

struct Edge {
  std::string src, src_port, dst, dst_port;
  int line = 0;
};

const uts::Type* port_type(
    const std::vector<std::pair<std::string, uts::Type>>& ports,
    const std::string& name) {
  for (const auto& [pname, type] : ports) {
    if (pname == name) return &type;
  }
  return nullptr;
}

}  // namespace

void ModuleCatalog::add(ModuleTypeInfo info) {
  std::string key = info.type_name;
  types_[std::move(key)] = std::move(info);
}

bool ModuleCatalog::knows(const std::string& type_name) const {
  return types_.contains(type_name);
}

const ModuleTypeInfo& ModuleCatalog::info(const std::string& type_name) const {
  auto it = types_.find(type_name);
  if (it == types_.end()) {
    throw util::LookupError("no module type '" + type_name + "' in catalog");
  }
  return it->second;
}

std::vector<std::string> ModuleCatalog::type_names() const {
  std::vector<std::string> out;
  out.reserve(types_.size());
  for (const auto& [name, info] : types_) out.push_back(name);
  return out;
}

ModuleCatalog ModuleCatalog::from_factory() {
  ModuleCatalog catalog;
  for (const std::string& type : flow::ModuleFactory::instance().type_names()) {
    std::unique_ptr<flow::Module> module =
        flow::ModuleFactory::instance().make(type);
    flow::ModuleSpec spec(*module);
    module->spec(spec);
    ModuleTypeInfo info;
    info.type_name = type;
    for (const flow::InputPort& p : module->inputs()) {
      info.inputs.emplace_back(p.name, p.type);
    }
    for (const flow::OutputPort& p : module->outputs()) {
      info.outputs.emplace_back(p.name, p.type);
    }
    info.widgets = module->widget_names();
    catalog.add(std::move(info));
  }
  return catalog;
}

int FlowLintResult::error_count() const {
  int n = 0;
  for (const Diagnostic& d : diags) {
    if (d.severity == Severity::kError) ++n;
  }
  return n;
}

int FlowLintResult::warning_count() const {
  int n = 0;
  for (const Diagnostic& d : diags) {
    if (d.severity == Severity::kWarning) ++n;
  }
  return n;
}

FlowLintResult lint_network_text(const std::string& file,
                                 std::string_view text,
                                 const ModuleCatalog& catalog) {
  FlowLintResult result;
  auto diag = [&](const char* code, Severity severity, int line,
                  std::string message, std::string type_path = "") {
    result.diags.push_back(Diagnostic{code, severity, file,
                                      SourceLoc{line, 1}, std::move(message),
                                      std::move(type_path)});
  };

  std::map<std::string, Instance> instances;
  std::vector<std::string> order;
  std::vector<Edge> edges;              ///< edges with both ports resolved
  std::map<std::string, int> input_src; ///< "mod.port" -> line of its source
  std::map<std::string, std::set<std::string>> loops_of;  ///< module -> loops

  std::istringstream is{std::string(text)};
  std::string raw;
  int lineno = 0;
  while (std::getline(is, raw)) {
    ++lineno;
    if (raw.empty() || raw[0] == '#') continue;
    std::istringstream ls(raw);
    std::string verb;
    ls >> verb;
    if (verb.empty()) continue;

    if (verb == "module") {
      std::string instance, type;
      ls >> instance >> type;
      if (instance.empty() || type.empty()) {
        diag("UTS400", Severity::kError, lineno,
             "malformed module line: expected 'module <instance> <type>'");
        continue;
      }
      if (instances.contains(instance)) {
        diag("UTS401", Severity::kError, lineno,
             "duplicate module instance '" + instance + "' (first declared "
             "at line " + std::to_string(instances[instance].line) + ")");
        continue;
      }
      if (!catalog.knows(type)) {
        diag("UTS401", Severity::kError, lineno,
             "unknown module type '" + type + "' for instance '" + instance +
                 "'");
        // Track the instance anyway (typeless) so later references don't
        // cascade into spurious UTS402s.
        instances[instance] = Instance{nullptr, lineno};
        order.push_back(instance);
        continue;
      }
      instances[instance] = Instance{&catalog.info(type), lineno};
      order.push_back(instance);
    } else if (verb == "widget") {
      std::string instance, widget_name;
      ls >> instance >> widget_name;
      if (instance.empty() || widget_name.empty()) {
        diag("UTS400", Severity::kError, lineno,
             "malformed widget line: expected 'widget <instance> <name> "
             "<value>'");
        continue;
      }
      auto it = instances.find(instance);
      if (it == instances.end()) {
        diag("UTS402", Severity::kError, lineno,
             "widget for unknown module instance '" + instance + "'");
        continue;
      }
      const ModuleTypeInfo* info = it->second.info;
      if (info && std::find(info->widgets.begin(), info->widgets.end(),
                            widget_name) == info->widgets.end()) {
        diag("UTS400", Severity::kError, lineno,
             "module '" + instance + "' (type " + info->type_name +
                 ") has no widget '" + widget_name + "'");
      }
    } else if (verb == "connect") {
      std::string src, src_port, dst, dst_port;
      ls >> src >> src_port >> dst >> dst_port;
      if (src.empty() || src_port.empty() || dst.empty() || dst_port.empty()) {
        diag("UTS400", Severity::kError, lineno,
             "malformed connect line: expected 'connect <src> <out-port> "
             "<dst> <in-port>'");
        continue;
      }
      auto src_it = instances.find(src);
      auto dst_it = instances.find(dst);
      bool resolved = true;
      if (src_it == instances.end()) {
        diag("UTS402", Severity::kError, lineno,
             "connection from unknown module instance '" + src + "'");
        resolved = false;
      }
      if (dst_it == instances.end()) {
        diag("UTS402", Severity::kError, lineno,
             "connection to unknown module instance '" + dst + "'");
        resolved = false;
      }
      const uts::Type* out_type = nullptr;
      const uts::Type* in_type = nullptr;
      if (resolved && src_it->second.info) {
        out_type = port_type(src_it->second.info->outputs, src_port);
        if (!out_type) {
          diag("UTS402", Severity::kError, lineno,
               "module '" + src + "' (type " +
                   src_it->second.info->type_name + ") has no output port '" +
                   src_port + "'");
          resolved = false;
        }
      }
      if (resolved && dst_it != instances.end() && dst_it->second.info) {
        in_type = port_type(dst_it->second.info->inputs, dst_port);
        if (!in_type) {
          diag("UTS402", Severity::kError, lineno,
               "module '" + dst + "' (type " +
                   dst_it->second.info->type_name + ") has no input port '" +
                   dst_port + "'");
          resolved = false;
        }
      }
      if (!resolved) continue;
      if (out_type && in_type && *out_type != *in_type) {
        diag("UTS403", Severity::kError, lineno,
             "type mismatch connecting " + src + "." + src_port + " (" +
                 out_type->to_string() + ") to " + dst + "." + dst_port +
                 " (" + in_type->to_string() + ")",
             dst + "." + dst_port);
      }
      const std::string slot = dst + "." + dst_port;
      auto [slot_it, fresh] = input_src.emplace(slot, lineno);
      if (!fresh) {
        diag("UTS404", Severity::kError, lineno,
             "input '" + slot + "' already has a source (connected at line " +
                 std::to_string(slot_it->second) + ")");
        continue;
      }
      edges.push_back(Edge{src, src_port, dst, dst_port, lineno});
    } else if (verb == "loop") {
      std::string loop_name;
      ls >> loop_name;
      if (loop_name.empty()) {
        diag("UTS400", Severity::kError, lineno,
             "malformed loop line: expected 'loop <name> <module>...'");
        continue;
      }
      std::string member;
      int members = 0;
      while (ls >> member) {
        ++members;
        if (!instances.contains(member)) {
          diag("UTS402", Severity::kError, lineno,
               "solver loop '" + loop_name + "' references unknown module "
               "instance '" + member + "'");
          continue;
        }
        loops_of[member].insert(loop_name);
      }
      if (members == 0) {
        diag("UTS400", Severity::kError, lineno,
             "solver loop '" + loop_name + "' declares no members");
      }
    } else {
      diag("UTS400", Severity::kError, lineno,
           "unknown verb '" + verb + "'");
    }
  }

  // --- Graph analysis over the resolved edges ---------------------------
  // Kahn's algorithm; whatever cannot be ordered sits on a cycle.
  std::map<std::string, int> indegree;
  for (const std::string& name : order) indegree[name] = 0;
  for (const Edge& e : edges) ++indegree[e.dst];
  std::vector<std::string> ready;
  for (const std::string& name : order) {
    if (indegree[name] == 0) ready.push_back(name);
  }
  std::size_t next = 0;
  std::set<std::string> sorted;
  std::vector<std::string> topo;
  while (next < ready.size()) {
    const std::string cur = ready[next++];
    sorted.insert(cur);
    topo.push_back(cur);
    for (const Edge& e : edges) {
      if (e.src == cur && --indegree[e.dst] == 0) ready.push_back(e.dst);
    }
  }

  std::vector<std::string> cyclic;
  for (const std::string& name : order) {
    if (!sorted.contains(name)) cyclic.push_back(name);
  }
  if (!cyclic.empty()) {
    // Cyclic modules not covered by any declared solver loop, and cyclic
    // edges whose endpoints do not share a loop, are undeclared cycles.
    std::vector<std::string> undeclared;
    for (const std::string& name : cyclic) {
      if (!loops_of.contains(name)) undeclared.push_back(name);
    }
    if (!undeclared.empty()) {
      std::string names;
      for (std::size_t i = 0; i < undeclared.size(); ++i) {
        if (i) names += ", ";
        names += undeclared[i];
      }
      diag("UTS405", Severity::kError, 0,
           "cycle outside a declared solver loop involving: " + names);
    } else {
      for (const Edge& e : edges) {
        if (sorted.contains(e.src) || sorted.contains(e.dst)) continue;
        const std::set<std::string>& src_loops = loops_of[e.src];
        const std::set<std::string>& dst_loops = loops_of[e.dst];
        const bool shared = std::any_of(
            src_loops.begin(), src_loops.end(),
            [&](const std::string& l) { return dst_loops.contains(l); });
        if (!shared) {
          diag("UTS405", Severity::kError, e.line,
               "cyclic edge " + e.src + " -> " + e.dst +
                   " crosses solver loops: its modules share no declared "
                   "loop");
        }
      }
    }
  }

  // UTS406: a module with ports, none of them wired, in a network that
  // does have connections, will be scheduled but can neither feed nor
  // observe the rest of the graph.
  if (!edges.empty()) {
    std::set<std::string> wired;
    for (const Edge& e : edges) {
      wired.insert(e.src);
      wired.insert(e.dst);
    }
    for (const std::string& name : order) {
      const Instance& inst = instances[name];
      if (!inst.info) continue;
      const bool has_ports =
          !inst.info->inputs.empty() || !inst.info->outputs.empty();
      if (has_ports && !wired.contains(name)) {
        diag("UTS406", Severity::kWarning, inst.line,
             "module '" + name + "' (type " + inst.info->type_name +
                 ") has ports but no connections: it is unreachable from "
                 "the dataflow");
      }
    }
  }

  // Wavefront prediction — only meaningful on a DAG (the executive refuses
  // cyclic networks outright).
  if (cyclic.empty() && !order.empty()) {
    std::map<std::string, std::size_t> depth;
    std::size_t max_depth = 0;
    for (const std::string& name : topo) {
      std::size_t d = 0;
      for (const Edge& e : edges) {
        if (e.dst == name) d = std::max(d, depth[e.src] + 1);
      }
      depth[name] = d;
      max_depth = std::max(max_depth, d);
    }
    std::vector<std::vector<std::string>> levels(max_depth + 1);
    for (const std::string& name : topo) levels[depth[name]].push_back(name);
    result.wavefront_widths.reserve(levels.size());
    for (std::size_t l = 0; l < levels.size(); ++l) {
      result.wavefront_widths.push_back(levels[l].size());
      diag("UTS408", Severity::kNote, 0,
           "level " + std::to_string(l) + ": predicted wavefront width " +
               std::to_string(levels[l].size()));
    }
  }

  return result;
}

std::string flow_lint_to_json(
    const std::vector<std::pair<std::string, FlowLintResult>>& results) {
  std::ostringstream os;
  os << "{\n  \"tool_version\": \"" << json_escape(tool_version())
     << "\",\n  \"files\": [";
  bool first_file = true;
  for (const auto& [file, result] : results) {
    if (!first_file) os << ",";
    first_file = false;
    os << "\n    {\"file\": \"" << json_escape(file)
       << "\", \"errors\": " << result.error_count()
       << ", \"warnings\": " << result.warning_count() << ", \"ok\": "
       << (result.ok() ? "true" : "false") << ",\n     \"wavefront_widths\": [";
    for (std::size_t i = 0; i < result.wavefront_widths.size(); ++i) {
      if (i) os << ", ";
      os << result.wavefront_widths[i];
    }
    os << "],\n     \"diagnostics\": [";
    bool first = true;
    for (const Diagnostic& d : result.diags) {
      if (!first) os << ",";
      first = false;
      os << "\n      {\"code\": \"" << json_escape(d.code)
         << "\", \"severity\": \"" << severity_name(d.severity)
         << "\", \"line\": " << d.loc.line << ", \"message\": \""
         << json_escape(d.message) << "\"";
      if (!d.type_path.empty()) {
        os << ", \"type_path\": \"" << json_escape(d.type_path) << "\"";
      }
      os << "}";
    }
    os << "\n     ]}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

}  // namespace npss::check
