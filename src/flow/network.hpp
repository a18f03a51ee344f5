// The Network — the flow executive's equivalent of the AVS Network Editor
// workspace (§2.4): modules are added (dragged in), wired into a dataflow
// graph, saved to and reloaded from a text form, and executed by a
// scheduler that fires a module when its widgets or inputs change and
// propagates values downstream, modeling the airflow through the engine.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "flow/module.hpp"

namespace npss::flow {

struct Connection {
  std::string src_module, src_port;
  std::string dst_module, dst_port;
};

class Network {
 public:
  Network() = default;
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- Editing (the Network Editor surface) ------------------------------
  /// Add a module instance; runs its spec(). The instance name must be
  /// unique in the network.
  Module& add(const std::string& instance_name,
              std::unique_ptr<Module> module);

  /// Add by registered type name.
  Module& add(const std::string& instance_name, const std::string& type_name);

  /// Wire src.out -> dst.in. Types must match; the edge must not create a
  /// cycle (AVS networks are dataflow DAGs). One input has one source.
  void connect(const std::string& src, const std::string& src_port,
               const std::string& dst, const std::string& dst_port);

  void disconnect(const std::string& dst, const std::string& dst_port);

  /// Remove a module: runs destroy() (where adapted modules issue
  /// sch_i_quit) and drops its connections.
  void remove(const std::string& instance_name);

  /// Remove every module (network cleared).
  void clear();

  // --- Access -------------------------------------------------------------
  Module& module(const std::string& instance_name);
  const Module& module(const std::string& instance_name) const;
  bool has(const std::string& instance_name) const;
  std::vector<std::string> module_names() const;  ///< topological order
  const std::vector<Connection>& connections() const { return connections_; }

  // --- Execution ------------------------------------------------------------
  /// Execute every module once, upstream-first, propagating port values.
  /// Returns the number of modules executed.
  ///
  /// Scheduling is by wavefront: modules are grouped into dependency
  /// levels (longest path from a source) computed from the cached topo
  /// order, and each level's modules run one at a time, in level order,
  /// on the caller's thread. Overlap with remote machines comes from the
  /// modules themselves (call_async), not from the executive.
  int evaluate();

  /// Execute only modules whose widgets changed or that receive fresh
  /// values from an upstream execution, plus their downstream cone.
  int run_changed();

  /// Executions performed so far (scheduler metric).
  long executions() const { return executions_; }

  // --- Error handling -------------------------------------------------------
  /// Graceful degradation (default off, matching the historical abort
  /// semantics): when on, a module whose compute() throws no longer
  /// aborts the sweep — the error is recorded in module_errors(), the
  /// module's outputs are not propagated (downstream keeps the previous
  /// values), and the rest of the wavefront runs normally. Built for
  /// remote-backed modules riding the fault-tolerant call path.
  void set_continue_on_error(bool on) { continue_on_error_ = on; }
  bool continue_on_error() const { return continue_on_error_; }

  /// (module instance, error message) pairs recorded since the last
  /// clear_module_errors(), in the order the failures were observed.
  const std::vector<std::pair<std::string, std::string>>& module_errors()
      const {
    return module_errors_;
  }
  void clear_module_errors() { module_errors_.clear(); }

  /// The dependency levels the wavefront scheduler executes (topo order
  /// within each level); recomputed lazily after edits.
  const std::vector<std::vector<std::string>>& wavefronts() const;

  // --- Persistence ------------------------------------------------------------
  /// Stable text form: modules, widget values, connections.
  std::string save_to_text() const;

  /// Rebuild from text (via the ModuleFactory). The network must be empty.
  void load_from_text(const std::string& text);

 private:
  struct Node {
    std::unique_ptr<Module> module;
    bool fresh_input = false;
  };

  /// Cached topological order; recomputed only after an edit
  /// (add/connect/disconnect/remove/clear) invalidated it.
  const std::vector<std::string>& topo_order() const;
  void invalidate_topology() { topo_valid_ = false; }
  void ensure_topology() const;
  void run_level(const std::vector<std::string>& level, bool only_changed,
                 int& executed);
  void propagate(Module& module);
  bool reachable(const std::string& from, const std::string& to) const;

  std::map<std::string, Node> nodes_;
  std::vector<std::string> insertion_order_;
  std::vector<Connection> connections_;
  long executions_ = 0;
  bool continue_on_error_ = false;
  std::vector<std::pair<std::string, std::string>> module_errors_;
  mutable bool topo_valid_ = false;
  mutable std::vector<std::string> topo_cache_;
  mutable std::vector<std::vector<std::string>> level_cache_;
};

}  // namespace npss::flow
