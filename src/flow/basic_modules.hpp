// Small general-purpose modules: a constant source, a value monitor (the
// stand-in for AVS's visualization sinks — §2.3's "ability to handle
// multiple graphics packages" becomes a pluggable sink), and a CSV trace
// writer used by the examples to dump transient histories.
#pragma once

#include <functional>
#include <sstream>
#include <vector>

#include "flow/module.hpp"

namespace npss::flow {

/// Emits the value of its "value" widget on its "out" port.
class ConstantModule final : public Module {
 public:
  std::string type_name() const override { return "constant"; }
  void spec(ModuleSpec& spec) override {
    spec.typein_real("value", 0.0);
    spec.output("out", uts::Type::real_double());
  }
  void compute() override { out_real("out", widget("value").real()); }
};

/// Records every value arriving on "in"; the visualization stand-in.
class MonitorModule final : public Module {
 public:
  std::string type_name() const override { return "monitor"; }
  void spec(ModuleSpec& spec) override {
    spec.input("in", uts::Type::real_double());
  }
  void compute() override {
    if (has_in("in")) history_.push_back(in_real("in"));
  }
  const std::vector<double>& history() const { return history_; }
  double last() const { return history_.empty() ? 0.0 : history_.back(); }
  void reset() { history_.clear(); }

 private:
  std::vector<double> history_;
};

/// Collects named real channels row-by-row and renders CSV text.
class CsvTraceModule final : public Module {
 public:
  explicit CsvTraceModule(std::vector<std::string> channels)
      : channels_(std::move(channels)) {}
  CsvTraceModule() : CsvTraceModule({"in"}) {}

  std::string type_name() const override { return "csv-trace"; }
  void spec(ModuleSpec& spec) override {
    for (const std::string& c : channels_) {
      spec.input(c, uts::Type::real_double());
    }
  }
  void compute() override {
    std::vector<double> row;
    row.reserve(channels_.size());
    for (const std::string& c : channels_) {
      row.push_back(has_in(c) ? in_real(c) : 0.0);
    }
    rows_.push_back(std::move(row));
  }

  std::string csv() const {
    std::ostringstream os;
    for (std::size_t i = 0; i < channels_.size(); ++i) {
      os << (i ? "," : "") << channels_[i];
    }
    os << "\n";
    for (const auto& row : rows_) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        os << (i ? "," : "") << row[i];
      }
      os << "\n";
    }
    return os.str();
  }
  std::size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> channels_;
  std::vector<std::vector<double>> rows_;
};

/// An ASCII strip chart — the stand-in for an AVS graph viewer (§2.3's
/// "handle multiple graphics packages": any sink can be swapped in, this
/// one renders to text). Records values from "in" and renders a
/// fixed-height chart over the recorded span.
class StripChartModule final : public Module {
 public:
  std::string type_name() const override { return "strip-chart"; }
  void spec(ModuleSpec& spec) override {
    spec.typein_integer("height", 10);
    spec.typein_integer("width", 64);
    spec.input("in", uts::Type::real_double());
  }
  void compute() override {
    if (has_in("in")) samples_.push_back(in_real("in"));
  }

  const std::vector<double>& samples() const { return samples_; }
  void reset() { samples_.clear(); }

  /// Render the chart ('#' marks, axis labels for min/max).
  std::string render() const;

 private:
  std::vector<double> samples_;
};

/// Registers the basic module types with the ModuleFactory (idempotent).
void register_basic_modules();

}  // namespace npss::flow
