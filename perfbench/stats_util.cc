#include "stats_util.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// Index of the nearest-rank p-th percentile (p in percent) of n samples.
size_t RankIndex(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(index, n - 1);
}

}  // namespace

double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  return sorted[RankIndex(sorted.size(), q * 100.0)];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return SortedQuantile(values, 0.5);
}

size_t SamplesBeyondPercentile(size_t n, double p) {
  if (n == 0) {
    return 0;
  }
  return n - 1 - RankIndex(n, p);
}

TailSummary SummarizeTail(std::vector<double> values) {
  TailSummary summary;
  summary.samples = values.size();
  if (values.empty()) {
    return summary;
  }
  std::sort(values.begin(), values.end());
  summary.p50 = SortedQuantile(values, 0.5);
  summary.supports_p99 = SamplesBeyondPercentile(values.size(), 99.0) >=
                         TailSummary::kMinTailSamples;
  summary.p99 = summary.supports_p99 ? SortedQuantile(values, 0.99) : 0;
  for (double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    const size_t beyond = SamplesBeyondPercentile(values.size(), p);
    if (beyond >= TailSummary::kMinTailSamples || p == 50.0) {
      summary.tail_percentile = p;
      summary.tail_value = SortedQuantile(values, p / 100.0);
      summary.beyond_tail = beyond;
      break;
    }
  }
  return summary;
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = seed;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace perfbench
