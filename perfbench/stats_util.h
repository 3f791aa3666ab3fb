// Order statistics the benchmark reports: the median, the quartiles, and
// the tail-percentile rule for latency samples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of an ascending-sorted sample, q in [0, 1].
/// Returns 0 for an empty sample.
double SortedQuantile(const std::vector<double>& sorted, double q);

/// Median of an unsorted sample (the sample is copied and sorted).
double Median(std::vector<double> values);

/// A latency distribution summarised by the tail rule: the median, and the
/// highest percentile of the ladder 99.99 / 99.9 / 99 / 90 / 50 that has at
/// least `kMinTailSamples` samples strictly beyond it.
struct TailSummary {
  static constexpr size_t kMinTailSamples = 10;

  size_t samples = 0;
  double p50 = 0;
  double p99 = 0;            // Valid only when supports_p99.
  bool supports_p99 = false;
  double tail_percentile = 0;  // E.g. 99.9.
  double tail_value = 0;
  size_t beyond_tail = 0;      // Samples strictly above the tail rank.
};

/// Summarises `values` (unsorted; copied).
TailSummary SummarizeTail(std::vector<double> values);

/// Number of samples strictly beyond the nearest-rank p-th percentile
/// (p in percent) of a sample of size n.
size_t SamplesBeyondPercentile(size_t n, double p);

/// 64-bit FNV-1a, chained through `seed`: the digest the benchmark uses
/// for outputs and query results.
uint64_t Fnv1a(const void* data, size_t size,
               uint64_t seed = 0xcbf29ce484222325ULL);

}  // namespace perfbench
