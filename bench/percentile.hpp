// The benches' one percentile definition: nearest rank, as perfbench and
// the run reports read their p50/p90/p99.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace npss::bench {

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least a fraction `q` of the sample at or below it. 0 when empty.
inline double percentile(const std::vector<double>& sorted, double q) {
  const std::size_t n = sorted.size();
  if (n == 0) return 0.0;
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return sorted[std::clamp<std::size_t>(rank, 1, n) - 1];
}

}  // namespace npss::bench
