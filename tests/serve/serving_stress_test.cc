// Concurrent-reader stress: 16 threads drive a mixed Count / top-k /
// perplexity workload against one StatsService while the block cache
// churns at a tiny capacity, verifying every answer against
// single-threaded expectations. A second test adds Reload() swapping
// between shard layouts mid-flight: answers must stay correct because
// both layouts serve the same statistics and in-flight queries finish on
// the snapshot they started with.
//
// This suite is the serving half of the ThreadSanitizer CI step (with
// ThreadPoolTest.* and JobTest.*): the lock-freedom claim of the read
// path is only believable under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/brute_force.h"
#include "serve/serving_builder.h"
#include "serve/stats_service.h"
#include "testing/test_util.h"
#include "util/random.h"
#include "util/temp_dir.h"

namespace ngram::serve {
namespace {

constexpr int kThreads = 16;
constexpr int kOpsPerThread = 400;

struct Expectations {
  std::vector<std::pair<TermSequence, uint64_t>> counts;
  std::map<TermSequence, std::vector<Completion>> topk;
  std::vector<TermSequence> sentences;
  std::vector<double> sentence_perplexities;
};

Corpus StressCorpus() {
  return ngram::testing::RandomCorpus(77, 40, 10, 4, 14);
}

NgramStatistics StressStats() {
  NgramStatistics stats = BruteForceCounts(StressCorpus(), 2, 4);
  stats.SortCanonical();
  return stats;
}

/// Single-threaded ground truth, computed once against the service itself
/// before any concurrency starts (the serving layer's correctness against
/// the table is established by serving_equivalence_test).
Expectations Precompute(const StatsService& service,
                        const NgramStatistics& stats, const Corpus& corpus) {
  Expectations expect;
  expect.counts.assign(stats.entries.begin(), stats.entries.end());
  for (const auto& [seq, cf] : stats.entries) {
    TermSequence prefix(seq.begin(), seq.end() - 1);
    if (expect.topk.count(prefix) == 0) {
      auto completions = service.TopKCompletions(prefix, 5);
      EXPECT_TRUE(completions.ok()) << completions.status().ToString();
      expect.topk[prefix] = *completions;
    }
  }
  for (const auto& doc : corpus.docs) {
    for (const auto& sentence : doc.sentences) {
      if (expect.sentences.size() >= 16) {
        break;
      }
      expect.sentences.push_back(sentence);
      auto perplexity = service.SentencePerplexity(sentence);
      EXPECT_TRUE(perplexity.ok()) << perplexity.status().ToString();
      expect.sentence_perplexities.push_back(*perplexity);
    }
  }
  return expect;
}

/// Runs the mixed workload on `threads` threads; every mismatch or error
/// increments `failures`. Returns total operations executed.
uint64_t HammerService(const StatsService& service,
                       const Expectations& expect, int threads,
                       int ops_per_thread, std::atomic<uint64_t>* failures) {
  std::vector<std::thread> workers;
  workers.reserve(threads);
  std::atomic<uint64_t> ops{0};
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(900 + t);
      for (int i = 0; i < ops_per_thread; ++i) {
        const double mix = rng.NextDouble();
        if (mix < 0.60) {
          const auto& [seq, cf] =
              expect.counts[rng.Uniform(expect.counts.size())];
          auto count = service.Count(seq);
          if (!count.ok() || *count != cf) {
            failures->fetch_add(1);
          }
        } else if (mix < 0.90) {
          auto it = expect.topk.begin();
          std::advance(it, rng.Uniform(expect.topk.size()));
          auto completions = service.TopKCompletions(it->first, 5);
          if (!completions.ok() || *completions != it->second) {
            failures->fetch_add(1);
          }
        } else {
          const size_t s = rng.Uniform(expect.sentences.size());
          auto perplexity =
              service.SentencePerplexity(expect.sentences[s]);
          if (!perplexity.ok() ||
              *perplexity != expect.sentence_perplexities[s]) {
            failures->fetch_add(1);
          }
        }
        ops.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  return ops.load();
}

TEST(ServingStressTest, SixteenThreadsTinyCacheAgreeWithExpectations) {
  const Corpus corpus = StressCorpus();
  const NgramStatistics stats = StressStats();
  auto dir = TempDir::Create("serving-stress");
  ASSERT_TRUE(dir.ok());
  BuildServingOptions build;
  build.num_shards = 5;
  build.block_bytes = 256;  // Many blocks...
  ASSERT_TRUE(BuildServingShards(stats, dir->path().string(), build).ok());

  ServingOptions serving;
  // ...through a cache holding ~2 of them (blocks are cached as their
  // compressed payloads, ~200 bytes each here).
  serving.cache_bytes = 512;
  auto service = StatsService::Open(dir->path().string(), serving);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  const Expectations expect = Precompute(**service, stats, corpus);
  ASSERT_FALSE(expect.counts.empty());
  ASSERT_FALSE(expect.sentences.empty());

  std::atomic<uint64_t> failures{0};
  const uint64_t ops =
      HammerService(**service, expect, kThreads, kOpsPerThread, &failures);
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(ops, static_cast<uint64_t>(kThreads) * kOpsPerThread);

  // The tiny cache really churned (and its counters kept up atomically).
  const kv::BlockCacheStats cache = (*service)->CacheStats();
  EXPECT_GT(cache.evictions, 0u);
  EXPECT_EQ(cache.misses, cache.inserts);  // Every miss decoded + inserted.
  EXPECT_LE(cache.charged_bytes, size_t{512} + 4096);

  // A second service over the same directory has checked no completion
  // block yet: the threads race on every block's first-use check.
  auto fresh = StatsService::Open(dir->path().string(), serving);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  HammerService(**fresh, expect, kThreads, kOpsPerThread, &failures);
  EXPECT_EQ(failures.load(), 0u);
}

TEST(ServingStressTest, ReloadSwapsLayoutsUnderReaders) {
  const Corpus corpus = StressCorpus();
  const NgramStatistics stats = StressStats();
  // Two directories, same statistics, different shard layouts.
  auto dir_a = TempDir::Create("serving-reload-a");
  auto dir_b = TempDir::Create("serving-reload-b");
  ASSERT_TRUE(dir_a.ok() && dir_b.ok());
  BuildServingOptions build;
  build.block_bytes = 256;
  build.num_shards = 1;
  ASSERT_TRUE(
      BuildServingShards(stats, dir_a->path().string(), build).ok());
  build.num_shards = 7;
  ASSERT_TRUE(
      BuildServingShards(stats, dir_b->path().string(), build).ok());

  ServingOptions serving;
  serving.cache_bytes = 2048;
  auto service = StatsService::Open(dir_a->path().string(), serving);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const Expectations expect = Precompute(**service, stats, corpus);

  std::atomic<uint64_t> failures{0};
  std::atomic<bool> stop{false};
  std::thread reloader([&] {
    const std::string dirs[] = {dir_b->path().string(),
                                dir_a->path().string()};
    for (int i = 0; !stop.load(std::memory_order_acquire); ++i) {
      Status st = (*service)->Reload(dirs[i % 2]);
      if (!st.ok()) {
        failures.fetch_add(1);
      }
      std::this_thread::yield();
    }
  });
  HammerService(**service, expect, kThreads, kOpsPerThread, &failures);
  stop.store(true, std::memory_order_release);
  reloader.join();
  EXPECT_EQ(failures.load(), 0u);
}

}  // namespace
}  // namespace ngram::serve
