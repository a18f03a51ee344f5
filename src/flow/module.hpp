// The module abstraction of the flow executive, mirroring the AVS module
// lifecycle the paper adapts (§3.3): a `spec` function declaring data
// streams and widgets, a `compute` function run whenever the module is
// scheduled, and a `destroy` function run when the module is removed from
// a network (where the adapted TESS modules call sch_i_quit).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "flow/widget.hpp"
#include "uts/types.hpp"
#include "uts/value.hpp"

namespace npss::flow {

class Module;

/// Builder handed to Module::spec() for declaring ports and widgets.
class ModuleSpec {
 public:
  explicit ModuleSpec(Module& module) : module_(&module) {}

  void input(const std::string& name, uts::Type type);
  void output(const std::string& name, uts::Type type);

  void dial(const std::string& name, double initial, double min, double max);
  void typein_real(const std::string& name, double initial);
  void typein_integer(const std::string& name, std::int64_t initial);
  void typein_string(const std::string& name, std::string initial);
  void radio_buttons(const std::string& name,
                     std::vector<std::string> choices,
                     const std::string& initial);
  void browser(const std::string& name, std::string initial_path);
  void toggle(const std::string& name, bool initial);

 private:
  Module* module_;
};

struct InputPort {
  std::string name;
  uts::Type type;
  std::optional<uts::Value> value;   ///< last value delivered
  std::string source_module;         ///< upstream connection (if any)
  std::string source_port;
  bool connected() const { return !source_module.empty(); }
};

struct OutputPort {
  std::string name;
  uts::Type type;
  std::optional<uts::Value> value;  ///< last computed value
};

class Network;

class Module {
 public:
  virtual ~Module() = default;

  /// The module's type name (stable key for the factory registry and the
  /// saved-network format).
  virtual std::string type_name() const = 0;

  /// Declare ports and widgets. Called once when the module enters a
  /// network.
  virtual void spec(ModuleSpec& spec) = 0;

  /// The module body, run each time the scheduler fires the module.
  virtual void compute() = 0;

  /// Teardown when removed from the network / the network is cleared.
  virtual void destroy() {}

  // --- runtime access (valid after the module joined a network) ---------
  const std::string& instance_name() const { return instance_name_; }
  Network* network() { return network_; }

  Widget& widget(const std::string& name);
  const Widget& widget(const std::string& name) const;
  bool has_widget(const std::string& name) const;
  std::vector<std::string> widget_names() const;

  /// Input value access from compute(). Throws util::GraphError when the
  /// port has never received a value.
  const uts::Value& in(const std::string& name) const;
  bool has_in(const std::string& name) const;
  double in_real(const std::string& name) const { return in(name).as_real(); }

  /// Output from compute().
  void out(const std::string& name, uts::Value value);
  void out_real(const std::string& name, double v) {
    out(name, uts::Value::real(v));
  }

  const std::vector<InputPort>& inputs() const { return inputs_; }
  const std::vector<OutputPort>& outputs() const { return outputs_; }

  /// True if any widget changed since the last compute.
  bool widgets_changed() const;
  void clear_widget_changes();

 private:
  friend class ModuleSpec;
  friend class Network;

  InputPort* find_input(const std::string& name);
  OutputPort* find_output(const std::string& name);

  std::string instance_name_;
  Network* network_ = nullptr;
  std::vector<InputPort> inputs_;
  std::vector<OutputPort> outputs_;
  std::vector<std::unique_ptr<Widget>> widgets_;
};

/// Factory registry so saved networks can be reloaded by module type name.
class ModuleFactory {
 public:
  using Maker = std::function<std::unique_ptr<Module>()>;

  static ModuleFactory& instance();

  void register_type(const std::string& type_name, Maker maker);
  bool knows(const std::string& type_name) const;
  std::unique_ptr<Module> make(const std::string& type_name) const;
  std::vector<std::string> type_names() const;

 private:
  std::map<std::string, Maker> makers_;
};

}  // namespace npss::flow
