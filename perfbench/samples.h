// Exact order statistics over raw latency samples.
//
// Every percentile the benchmark reports is read off the sorted samples
// themselves (nearest rank), never off a bucketed histogram, and travels
// with the number of samples it was taken from.
#ifndef TOPL_PERFBENCH_SAMPLES_H_
#define TOPL_PERFBENCH_SAMPLES_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// One percentile of a sample set: its value and the sample count.
struct Percentile {
  double value = 0.0;
  std::size_t n = 0;
};

/// Nearest-rank percentile `p` (in (0, 100]) of ascending `sorted` samples;
/// {0, 0} when empty.
inline Percentile PercentileOfSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return {};
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index =
      std::min(sorted.size() - 1,
               static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  return {sorted[index], sorted.size()};
}

/// Nearest-rank percentile `p` of unsorted `samples`.
inline Percentile PercentileOf(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return PercentileOfSorted(samples, p);
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it (50 when even the median has fewer).
inline double HighestSupportedPercentile(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

}  // namespace perfbench

#endif  // TOPL_PERFBENCH_SAMPLES_H_
