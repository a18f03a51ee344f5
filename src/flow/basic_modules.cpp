#include "flow/basic_modules.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>

namespace npss::flow {

std::string StripChartModule::render() const {
  const int height =
      std::max<int>(2, static_cast<int>(widget("height").integer()));
  const int width =
      std::max<int>(8, static_cast<int>(widget("width").integer()));
  std::ostringstream os;
  if (samples_.empty()) {
    os << "(no samples)\n";
    return os.str();
  }
  const auto [lo_it, hi_it] =
      std::minmax_element(samples_.begin(), samples_.end());
  double lo = *lo_it, hi = *hi_it;
  if (hi - lo < 1e-12) hi = lo + 1.0;

  // Downsample (or stretch) the history onto `width` columns.
  std::vector<double> cols(width);
  for (int c = 0; c < width; ++c) {
    const std::size_t idx = std::min(
        samples_.size() - 1,
        static_cast<std::size_t>(static_cast<double>(c) * samples_.size() /
                                 width));
    cols[c] = samples_[idx];
  }

  for (int row = height - 1; row >= 0; --row) {
    const double band = (hi - lo) / height;
    const double threshold = lo + band * (row + 0.5);
    if (row == height - 1) {
      os << std::setw(12) << std::setprecision(5) << hi << " |";
    } else if (row == 0) {
      os << std::setw(12) << std::setprecision(5) << lo << " |";
    } else {
      os << std::string(12, ' ') << " |";
    }
    for (int c = 0; c < width; ++c) {
      os << (std::abs(cols[c] - threshold) <= band / 2 ? '#' : ' ');
    }
    os << "\n";
  }
  os << std::string(13, ' ') << '+' << std::string(width, '-') << "\n";
  return os.str();
}

void register_basic_modules() {
  static bool done = [] {
    ModuleFactory& f = ModuleFactory::instance();
    f.register_type("constant", [] { return std::make_unique<ConstantModule>(); });
    f.register_type("monitor", [] { return std::make_unique<MonitorModule>(); });
    f.register_type("csv-trace", [] { return std::make_unique<CsvTraceModule>(); });
    f.register_type("strip-chart",
                    [] { return std::make_unique<StripChartModule>(); });
    return true;
  }();
  (void)done;
}

}  // namespace npss::flow
