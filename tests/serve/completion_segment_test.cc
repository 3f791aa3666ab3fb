// The completion segment: TopKCompletions answers with one lookup of a
// ranked continuation list the builder wrote.
//   * answers equal a brute-force ranking of the table for every method's
//     output, maximal and closed included (their orphan prefixes have
//     stored extensions but are not stored themselves), over 1, 4 and 7
//     shards, small blocks and restart intervals, the empty prefix,
//     absent prefixes, k = 0 and k above the list length;
//   * a flipped bit in a completion block is Corruption naming the
//     completion file on every attempt, while other blocks still answer;
//   * a manifest of the older format (magic "NGSM") fails Open with
//     Corruption;
//   * an empty table builds an empty completion segment that serves.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/maximality.h"
#include "core/runner.h"
#include "encoding/sequence.h"
#include "encoding/varint.h"
#include "serve/manifest.h"
#include "serve/serving_builder.h"
#include "serve/stats_service.h"
#include "testing/test_util.h"
#include "util/crc32.h"
#include "util/temp_dir.h"

namespace ngram::serve {
namespace {

using Ranked = std::map<TermSequence, std::vector<Completion>>;

/// Every prefix with a stored one-term extension, mapped to all of its
/// extensions ranked by count descending, then term ascending.
Ranked BruteForceRanking(const NgramStatistics& stats) {
  Ranked ranked;
  for (const auto& [seq, cf] : stats.entries) {
    ranked[TermSequence(seq.begin(), seq.end() - 1)].push_back(
        Completion{seq.back(), cf});
  }
  for (auto& [prefix, list] : ranked) {
    std::sort(list.begin(), list.end(),
              [](const Completion& a, const Completion& b) {
                return a.count != b.count ? a.count > b.count
                                          : a.term < b.term;
              });
  }
  return ranked;
}

/// Checks TopKCompletions against `ranked` for every ranked prefix, the
/// empty prefix, absent prefixes, and k in {0, 1, 3, above the length}.
void ExpectTopKMatches(const StatsService& service, const Ranked& ranked,
                       const NgramStatistics& stats) {
  std::set<TermSequence> prefixes = {TermSequence{}, TermSequence{999983}};
  for (const auto& [seq, cf] : stats.entries) {
    prefixes.insert(seq);  // A longest n-gram has no extension.
    TermSequence absent(seq.begin(), seq.end() - 1);
    absent.push_back(999983);
    prefixes.insert(absent);
  }
  for (const auto& [prefix, list] : ranked) {
    prefixes.insert(prefix);
  }
  for (const TermSequence& prefix : prefixes) {
    const auto it = ranked.find(prefix);
    const std::vector<Completion> all =
        it == ranked.end() ? std::vector<Completion>() : it->second;
    for (const size_t k : {size_t{0}, size_t{1}, size_t{3},
                           all.size() + 5}) {
      auto top = service.TopKCompletions(prefix, k);
      ASSERT_TRUE(top.ok()) << top.status().ToString();
      const std::vector<Completion> expected(
          all.begin(), all.begin() + std::min(k, all.size()));
      ASSERT_EQ(*top, expected) << SequenceToDebugString(prefix) << " k="
                                << k;
    }
  }
}

struct Output {
  const char* name;
  std::function<Result<NgramRun>(const CorpusContext&)> run;
};

std::vector<Output> Outputs() {
  auto method = [](Method m) {
    return [m](const CorpusContext& ctx) {
      return ComputeNgramStatistics(ctx, testing::TestOptions(m, 2, 4));
    };
  };
  auto variant = [](Result<NgramRun> (*run)(const CorpusContext&,
                                            const NgramJobOptions&)) {
    return [run](const CorpusContext& ctx) {
      return run(ctx, testing::TestOptions(Method::kSuffixSigma, 2, 4));
    };
  };
  return {{"naive", method(Method::kNaive)},
          {"apriori-scan", method(Method::kAprioriScan)},
          {"apriori-index", method(Method::kAprioriIndex)},
          {"suffix-sigma", method(Method::kSuffixSigma)},
          {"maximal", variant(&RunSuffixSigmaMaximal)},
          {"closed", variant(&RunSuffixSigmaClosed)}};
}

TEST(CompletionSegmentTest, TopKMatchesBruteForceForEveryOutput) {
  const Corpus corpus = testing::RandomCorpus(21, 40, 9, 4, 14);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  for (const Output& output : Outputs()) {
    SCOPED_TRACE(output.name);
    auto run = output.run(ctx);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    NgramStatistics stats = std::move(run->stats);
    stats.SortCanonical();
    ASSERT_FALSE(stats.empty());
    const Ranked ranked = BruteForceRanking(stats);
    if (std::string(output.name) == "maximal") {
      // Orphan prefixes: ranked, but not stored.
      std::set<TermSequence> stored;
      for (const auto& [seq, cf] : stats.entries) {
        stored.insert(seq);
      }
      size_t orphans = 0;
      for (const auto& [prefix, list] : ranked) {
        orphans += !prefix.empty() && stored.count(prefix) == 0 ? 1 : 0;
      }
      ASSERT_GT(orphans, 0u);
    }
    for (const uint32_t shards : {1u, 4u, 7u}) {
      for (const auto& [block_bytes, restart_interval] :
           {std::pair<size_t, uint32_t>{48, 1},
            std::pair<size_t, uint32_t>{200, 2},
            std::pair<size_t, uint32_t>{mr::kDefaultBlockBytes,
                                        mr::kDefaultRestartInterval}}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) + " block=" +
                     std::to_string(block_bytes) + " restart=" +
                     std::to_string(restart_interval));
        auto dir = TempDir::Create("completion-segment");
        ASSERT_TRUE(dir.ok());
        BuildServingOptions build;
        build.num_shards = shards;
        build.block_bytes = block_bytes;
        build.restart_interval = restart_interval;
        ASSERT_TRUE(
            BuildServingShards(stats, dir->path().string(), build).ok());
        auto service = StatsService::Open(dir->path().string());
        ASSERT_TRUE(service.ok()) << service.status().ToString();
        const Manifest& manifest = (*service)->store()->manifest();
        ASSERT_EQ(manifest.completions.num_records, ranked.size());
        if (block_bytes < 100) {
          ASSERT_GT(manifest.completions.blocks.size(), 3u);
        }
        ExpectTopKMatches(**service, ranked, stats);
      }
    }
  }
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CompletionSegmentTest, FlippedBitIsCorruptionOnEveryAttempt) {
  const Corpus corpus = testing::RandomCorpus(4, 40, 9, 4, 14);
  NgramStatistics stats;
  {
    auto run = ComputeNgramStatistics(
        BuildCorpusContext(corpus),
        testing::TestOptions(Method::kSuffixSigma, 2, 4));
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    stats = std::move(run->stats);
    stats.SortCanonical();
  }
  const Ranked ranked = BruteForceRanking(stats);
  auto dir = TempDir::Create("completion-bitflip");
  ASSERT_TRUE(dir.ok());
  const std::string root = dir->path().string();
  BuildServingOptions build;
  build.num_shards = 2;
  build.block_bytes = 64;
  ASSERT_TRUE(BuildServingShards(stats, root, build).ok());
  Manifest manifest;
  ASSERT_TRUE(ReadManifest(root, &manifest).ok());
  const ShardEntry& segment = manifest.completions;
  ASSERT_GE(segment.blocks.size(), 3u);

  // Flip one bit in the middle of the second completion block.
  const size_t victim = 1;
  const BlockEntry& block = segment.blocks[victim];
  const std::string path = root + "/" + segment.file_name;
  std::string bytes = ReadFileBytes(path);
  bytes[block.offset + block.length / 2] ^= 0x10;
  WriteFileBytes(path, bytes);

  // Prefixes keyed into the victim block, and into every other block.
  std::vector<TermSequence> damaged;
  std::vector<TermSequence> healthy;
  for (const auto& [prefix, list] : ranked) {
    std::string key;
    SequenceCodec::Encode(prefix, &key);
    const bool in_victim =
        key >= block.first_key &&
        (victim + 1 == segment.blocks.size() ||
         key < segment.blocks[victim + 1].first_key);
    (in_victim ? damaged : healthy).push_back(prefix);
  }
  ASSERT_FALSE(damaged.empty());
  ASSERT_FALSE(healthy.empty());

  for (const size_t cache_bytes : {size_t{0}, SIZE_MAX}) {
    ServingOptions serving;
    serving.cache_bytes = cache_bytes;
    auto service = StatsService::Open(root, serving);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    for (int attempt = 0; attempt < 3; ++attempt) {
      for (const TermSequence& prefix : damaged) {
        auto top = (*service)->TopKCompletions(prefix, 10);
        ASSERT_FALSE(top.ok()) << SequenceToDebugString(prefix);
        EXPECT_TRUE(top.status().IsCorruption()) << top.status().ToString();
        EXPECT_NE(top.status().ToString().find(path), std::string::npos)
            << top.status().ToString();
      }
      for (const TermSequence& prefix : healthy) {
        auto top = (*service)->TopKCompletions(prefix, 10);
        ASSERT_TRUE(top.ok()) << top.status().ToString();
        const std::vector<Completion>& all = ranked.at(prefix);
        EXPECT_EQ(*top, std::vector<Completion>(
                            all.begin(),
                            all.begin() + std::min<size_t>(10, all.size())));
      }
    }
    // Completion blocks bypass the cache entirely.
    EXPECT_EQ((*service)->CacheStats().inserts, 0u);
  }
}

TEST(CompletionSegmentTest, OlderManifestFormatFailsOpen) {
  auto dir = TempDir::Create("completion-old-manifest");
  ASSERT_TRUE(dir.ok());
  // A manifest as the format before the completion segment wrote it: an
  // empty store (no shards), magic "NGSM".
  std::string payload;
  for (int field = 0; field < 5; ++field) {
    PutVarint64(&payload, 0);
  }
  std::string file = "NGSM" + payload;
  PutFixed32(&file, Crc32(0, payload.data(), payload.size()));
  WriteFileBytes(dir->File(kManifestFileName), file);

  auto store = ShardedStatsStore::Open(dir->path().string());
  ASSERT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsCorruption()) << store.status().ToString();
  EXPECT_NE(store.status().ToString().find("older format"),
            std::string::npos)
      << store.status().ToString();
}

TEST(CompletionSegmentTest, EmptyTableServesEmptyLists) {
  auto dir = TempDir::Create("completion-empty");
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(BuildServingShards(NgramStatistics(), dir->path().string()).ok());
  auto service = StatsService::Open(dir->path().string());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_TRUE((*service)->store()->manifest().completions.blocks.empty());
  for (const TermSequence& prefix : {TermSequence{}, TermSequence{1}}) {
    auto top = (*service)->TopKCompletions(prefix, 10);
    ASSERT_TRUE(top.ok()) << top.status().ToString();
    EXPECT_TRUE(top->empty());
  }
}

}  // namespace
}  // namespace ngram::serve
