// The benchmark's serving stage: a Zipf query mix generated from the seed
// before timing, a closed loop of client threads against StatsService, and
// a check of every answer against the reference table.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/stats.h"
#include "serve/stats_service.h"
#include "stats_util.h"
#include "text/corpus.h"
#include "trace.h"

namespace perfbench {

enum QueryType : uint8_t { kCount = 0, kTopK = 1, kPerplexity = 2 };
inline constexpr int kQueryTypes = 3;
inline constexpr size_t kTopKResults = 10;

struct Query {
  QueryType type;
  uint32_t index;  // Into the pool of its type.
};

/// The distinct queries a mix draws from, with their expected answers
/// taken from the reference table.
struct QueryPools {
  std::vector<ngram::TermSequence> count_keys;  // Stored and absent keys.
  std::vector<uint64_t> count_expected;         // 0 for absent keys.
  std::vector<ngram::TermSequence> prefixes;  // Top-k prefixes, >= 1 term.
  std::vector<uint64_t> topk_expected;        // TopKDigest of the answer.
  std::vector<ngram::TermSequence> sentences;
  std::vector<double> ppl_expected;
  /// Per client thread: its query stream, in order.
  std::vector<std::vector<Query>> streams;
};

/// Builds the pools and `threads` streams of `per_thread` queries from
/// `seed`: 80% Count (10% of them absent keys), 15% TopKCompletions with
/// k = 10, 5% SentencePerplexity. Count keys and top-k prefixes are drawn
/// Zipf(1.0) over stored n-grams ranked by frequency; prefixes come from
/// stored n-grams of at least two terms. `reference` must be canonically
/// sorted.
QueryPools MakeQueryPools(const ngram::NgramStatistics& reference,
                          const ngram::Corpus& corpus, uint64_t seed,
                          int threads, size_t per_thread);

/// Digest of a top-k answer (terms and counts, in order).
uint64_t TopKDigest(const std::vector<ngram::serve::Completion>& answer);

/// What closed-loop passes over the streams measured.
struct MixResult {
  double elapsed_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // Errors plus wrong answers.
  uint64_t failed_by_type[kQueryTypes] = {};
  std::vector<double> latency_us[kQueryTypes];
  std::vector<Span> spans;  // Traced passes only; one span per query.

  /// Adds the queries, failures, latencies, spans and time of `slice`.
  void Merge(MixResult slice);
};

/// Runs one client thread per stream, client t against `services[t]`, each
/// from its position in `cursors` (the number of queries it has run; a
/// stream starts over when it ends), until `seconds` have passed and each
/// query type has `min_samples` samples (or 3 x `seconds` pass), then
/// checks every answer.
MixResult RunMix(
    const std::vector<const ngram::serve::StatsService*>& services,
    const QueryPools& pools, std::vector<size_t>* cursors, double seconds,
    size_t min_samples, bool traced);

/// ShardedStatsStore::Count latencies (us) for the Count queries of the
/// streams, replayed for `seconds` by one thread per stream, thread t on
/// the store of `services[t]`.
std::vector<double> RunStoreCounts(
    const std::vector<const ngram::serve::StatsService*>& services,
    const QueryPools& pools, double seconds);

/// Records the top-k range scans visit, divided by the completions they
/// return, over the top-k queries each stream has run (its cursor).
double TopKScannedPerResult(const ngram::serve::ShardedStatsStore& store,
                            const QueryPools& pools,
                            const std::vector<size_t>& cursors);

}  // namespace perfbench
