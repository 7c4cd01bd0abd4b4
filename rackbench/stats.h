// Order statistics for the rack benchmark. Percentiles use the nearest-rank
// definition (the smallest sample with at least q·n samples at or below
// it), so every reported percentile is a value that was measured.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace lemur::rackbench {

/// 1-based nearest rank of quantile q in [0, 1] over n samples.
inline std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0) return 0;
  // The epsilon keeps q·n that is integral in exact arithmetic (0.95·200)
  // from rounding up a rank through binary floating point.
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(rank, 1.0)),
                                 1, n);
}

/// Samples ranked strictly above the q-th percentile's sample.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n - nearest_rank(n, q);
}

/// Nearest-rank percentile; 0 for an empty sample.
template <typename T>
double percentile(std::vector<T> samples, double q) {
  if (samples.empty()) return 0;
  const std::size_t k = nearest_rank(samples.size(), q) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return static_cast<double>(samples[k]);
}

/// Middle sample, or the mean of the two middle samples; 0 when empty.
inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

/// a / b, or 0 when b is 0 (ratios of idle counters).
inline double ratio(double a, double b) { return b != 0 ? a / b : 0; }

}  // namespace lemur::rackbench
