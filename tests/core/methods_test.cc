// Per-method behaviour on the paper's running example, plus the
// method-specific cost properties the paper derives analytically.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/apriori_index.h"
#include "core/apriori_scan.h"
#include "core/naive.h"
#include "core/runner.h"
#include "core/suffix_sigma.h"
#include "corpus/running_example.h"
#include "testing/recording_env.h"
#include "testing/test_util.h"
#include "util/temp_dir.h"

namespace ngram {
namespace {

using testing::TestOptions;

NgramStatistics ExpectedRunningExample() {
  NgramStatistics expected;
  for (const auto& [seq, cf] : RunningExampleExpectedCounts()) {
    expected.Add(seq, cf);
  }
  expected.SortCanonical();
  return expected;
}

/// Files and directories left under `dir`.
std::vector<std::string> Leftovers(const std::filesystem::path& dir) {
  std::vector<std::string> leftovers;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    leftovers.push_back(entry.path().string());
  }
  return leftovers;
}

bool AnyPathContains(const std::vector<std::string>& paths,
                     const std::string& fragment) {
  for (const std::string& path : paths) {
    if (path.find(fragment) != std::string::npos) {
      return true;
    }
  }
  return false;
}

class RunningExampleMethodTest : public ::testing::TestWithParam<Method> {};

TEST_P(RunningExampleMethodTest, ProducesPaperOutput) {
  const CorpusContext ctx = BuildCorpusContext(RunningExampleCorpus());
  const NgramJobOptions options = TestOptions(GetParam(), 3, 3);
  auto run = ComputeNgramStatistics(ctx, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  NgramStatistics expected = ExpectedRunningExample();
  EXPECT_TRUE(run->stats.SameAs(expected))
      << ::testing::PrintToString(run->stats.DiffAgainst(expected));
}

INSTANTIATE_TEST_SUITE_P(AllMethods, RunningExampleMethodTest,
                         ::testing::Values(Method::kNaive,
                                           Method::kAprioriScan,
                                           Method::kAprioriIndex,
                                           Method::kSuffixSigma),
                         [](const auto& info) {
                           std::string name = MethodName(info.param);
                           for (auto& ch : name) {
                             if (ch == '-') {
                               ch = '_';
                             }
                           }
                           return name;
                         });

TEST(NaiveMethodTest, RecordCountEqualsSumOfEmittedNgrams) {
  // Without combiner and without splits, NAIVE emits one record per n-gram
  // occurrence: sum_{|s|<=sigma} cf(s). For the running example with
  // sigma=3: 15 unigrams + 12 bigrams + 9 trigrams = 36.
  const CorpusContext ctx = BuildCorpusContext(RunningExampleCorpus());
  NgramJobOptions options = TestOptions(Method::kNaive, 3, 3);
  options.use_combiner = false;
  options.document_splits = false;
  auto run = RunNaive(ctx, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->metrics.map_output_records(), 36u);
  EXPECT_EQ(run->metrics.num_jobs(), 1);
}

TEST(SuffixSigmaMethodTest, RecordCountEqualsTermOccurrences) {
  // The paper's analysis: exactly one record per term occurrence (15 for
  // the running example, splits disabled).
  const CorpusContext ctx = BuildCorpusContext(RunningExampleCorpus());
  NgramJobOptions options = TestOptions(Method::kSuffixSigma, 3, 3);
  options.document_splits = false;
  auto run = RunSuffixSigma(ctx, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->metrics.map_output_records(), 15u);
  EXPECT_EQ(run->metrics.num_jobs(), 1);
}

TEST(SuffixSigmaMethodTest, TransfersFewerBytesThanNaive) {
  const Corpus corpus = testing::RandomCorpus(8, 60, 8, 4, 14);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  NgramJobOptions options = TestOptions(Method::kSuffixSigma, 2, 5);
  options.document_splits = false;
  NgramJobOptions naive_options = options;
  naive_options.method = Method::kNaive;
  naive_options.use_combiner = false;
  auto suffix = RunSuffixSigma(ctx, options);
  auto naive = RunNaive(ctx, naive_options);
  ASSERT_TRUE(suffix.ok());
  ASSERT_TRUE(naive.ok());
  EXPECT_LT(suffix->metrics.map_output_records(),
            naive->metrics.map_output_records());
  EXPECT_LT(suffix->metrics.map_output_bytes(),
            naive->metrics.map_output_bytes());
}

TEST(AprioriScanMethodTest, OneJobPerLengthUntilEmpty) {
  const CorpusContext ctx = BuildCorpusContext(RunningExampleCorpus());
  // tau=3, sigma=5: lengths 1..3 are frequent, length 4 job comes back
  // empty -> 4 jobs.
  NgramJobOptions options = TestOptions(Method::kAprioriScan, 3, 5);
  auto run = RunAprioriScan(ctx, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->metrics.num_jobs(), 4);
}

TEST(AprioriScanMethodTest, StopsAtSigmaEvenIfMoreFrequent) {
  const CorpusContext ctx = BuildCorpusContext(RunningExampleCorpus());
  NgramJobOptions options = TestOptions(Method::kAprioriScan, 3, 2);
  auto run = RunAprioriScan(ctx, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->metrics.num_jobs(), 2);
  EXPECT_EQ(run->stats.MaxLength(), 2u);
}

TEST(AprioriScanMethodTest, PruningEmitsFewerRecordsThanNaive) {
  const Corpus corpus = testing::RandomCorpus(9, 60, 8, 4, 14);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  NgramJobOptions options = TestOptions(Method::kAprioriScan, 5, 4);
  options.use_combiner = false;
  options.document_splits = false;
  NgramJobOptions naive_options = options;
  naive_options.method = Method::kNaive;
  auto scan = RunAprioriScan(ctx, options);
  auto naive = RunNaive(ctx, naive_options);
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(naive.ok());
  // S_NP subset of S: APRIORI-SCAN can never shuffle more records.
  EXPECT_LE(scan->metrics.map_output_records(),
            naive->metrics.map_output_records());
}

TEST(AprioriScanMethodTest, DictionaryCountersRecorded) {
  const CorpusContext ctx = BuildCorpusContext(RunningExampleCorpus());
  NgramJobOptions options = TestOptions(Method::kAprioriScan, 3, 3);
  auto run = RunAprioriScan(ctx, options);
  ASSERT_TRUE(run.ok());
  ASSERT_GE(run->metrics.jobs.size(), 2u);
  // Job k=2 used the dictionary of 3 frequent unigrams.
  EXPECT_EQ(run->metrics.jobs[1].Counter(kDictionaryEntries), 3u);
  EXPECT_GT(run->metrics.jobs[1].Counter(kDictionaryBytes), 0u);
}

TEST(AprioriIndexMethodTest, ProducesPositionalIndex) {
  const CorpusContext ctx = BuildCorpusContext(RunningExampleCorpus());
  NgramJobOptions options = TestOptions(Method::kAprioriIndex, 3, 3);
  options.apriori_index_k = 2;
  auto result = RunAprioriIndexWithIndex(ctx, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Find <a x b> in the index: paper says d1:[0], d2:[1], d3:[2].
  const TermSequence axb = {kTermA, kTermX, kTermB};
  const PostingList* found = nullptr;
  for (const auto& [seq, list] : result->index.rows) {
    if (seq == axb) {
      found = &list;
    }
  }
  ASSERT_NE(found, nullptr);
  ASSERT_EQ(found->postings.size(), 3u);
  EXPECT_EQ(found->postings[0].doc_id, 1u);
  EXPECT_EQ(found->postings[0].positions, (std::vector<uint32_t>{0}));
  EXPECT_EQ(found->postings[1].doc_id, 2u);
  EXPECT_EQ(found->postings[1].positions, (std::vector<uint32_t>{1}));
  EXPECT_EQ(found->postings[2].doc_id, 3u);
  EXPECT_EQ(found->postings[2].positions, (std::vector<uint32_t>{2}));
}

TEST(AprioriIndexMethodTest, KBoundaryVariantsAgree) {
  const Corpus corpus = testing::RandomCorpus(10, 40, 6, 3, 10);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  NgramStatistics reference;
  for (uint32_t k : {1u, 2u, 3u, 4u, 6u}) {
    NgramJobOptions options = TestOptions(Method::kAprioriIndex, 3, 5);
    options.apriori_index_k = k;
    auto run = RunAprioriIndex(ctx, options);
    ASSERT_TRUE(run.ok()) << "K=" << k << ": " << run.status().ToString();
    if (k == 1) {
      reference = std::move(run->stats);
      reference.SortCanonical();
    } else {
      EXPECT_TRUE(run->stats.SameAs(reference)) << "K=" << k;
    }
  }
}

TEST(AprioriIndexMethodTest, TinyReducerBudgetSpillsAndStaysCorrect) {
  const Corpus corpus = testing::RandomCorpus(11, 40, 5, 3, 10);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  NgramJobOptions options = TestOptions(Method::kAprioriIndex, 2, 5);
  options.apriori_index_k = 2;
  options.reducer_memory_budget_bytes = 128;  // Force posting-buffer spills.
  auto spilled = RunAprioriIndex(ctx, options);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  options.reducer_memory_budget_bytes = 256 << 20;
  auto in_memory = RunAprioriIndex(ctx, options);
  ASSERT_TRUE(in_memory.ok());
  EXPECT_TRUE(spilled->stats.SameAs(in_memory->stats));
}

TEST(AprioriIndexMethodTest, SpillingRunLeavesWorkDirEmpty) {
  const Corpus corpus = testing::RandomCorpus(11, 40, 5, 3, 10);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  auto work_dir = TempDir::Create("apriori-index-workdir");
  ASSERT_TRUE(work_dir.ok());
  NgramJobOptions options = TestOptions(Method::kAprioriIndex, 2, 5);
  options.apriori_index_k = 2;
  options.reducer_memory_budget_bytes = 128;  // Force posting-buffer spills.
  options.work_dir = work_dir->path().string();
  testing::RecordingEnv env;
  options.io_env = &env;
  auto run = RunAprioriIndex(ctx, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_FALSE(run->stats.empty());
  EXPECT_TRUE(AnyPathContains(env.written(), "/join-r"));
  const std::vector<std::string> leftovers = Leftovers(work_dir->path());
  EXPECT_TRUE(leftovers.empty())
      << leftovers.size() << " leftover(s), first: " << leftovers.front();
}

TEST(AprioriIndexMethodTest, JoinSpillBitFlipIsCaughtAndRetried) {
  const Corpus corpus = testing::RandomCorpus(11, 40, 5, 3, 10);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  auto work_dir = TempDir::Create("apriori-index-workdir");
  ASSERT_TRUE(work_dir.ok());
  NgramJobOptions options = TestOptions(Method::kAprioriIndex, 2, 5);
  options.apriori_index_k = 2;
  options.work_dir = work_dir->path().string();
  auto in_memory = RunAprioriIndex(ctx, options);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();

  options.reducer_memory_budget_bytes = 128;  // Force posting-buffer spills.
  {
    // The join's spill files are written through the job's IoEnv, and a
    // flipped bit in one is caught by its block CRC, naming the file.
    testing::RecordingEnv env(/*flip_fragment=*/"/join-r");
    options.io_env = &env;
    auto run = RunAprioriIndex(ctx, options);
    ASSERT_FALSE(env.flipped_path().empty());
    ASSERT_FALSE(run.ok());
    EXPECT_TRUE(run.status().IsCorruption()) << run.status().ToString();
    const std::string flipped = env.flipped_path();
    const std::string committed = flipped.substr(0, flipped.size() - 4);
    EXPECT_EQ(flipped.substr(committed.size()), ".tmp");
    EXPECT_NE(run.status().message().find(committed), std::string::npos)
        << run.status().ToString();
    EXPECT_TRUE(Leftovers(work_dir->path()).empty());
  }
  {
    // A retried reduce attempt rewrites its own spill files.
    testing::RecordingEnv env(/*flip_fragment=*/"/join-r");
    options.io_env = &env;
    options.max_task_attempts = 3;
    auto run = RunAprioriIndex(ctx, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_FALSE(env.flipped_path().empty());
    EXPECT_TRUE(run->stats.SameAs(in_memory->stats));
    EXPECT_TRUE(Leftovers(work_dir->path()).empty());
  }
}

TEST(AprioriScanMethodTest, SpillingRunLeavesWorkDirEmpty) {
  const Corpus corpus = testing::RandomCorpus(5, 800, 60, 4, 12);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  NgramJobOptions options = TestOptions(Method::kAprioriScan, 2, 5);
  auto in_memory = RunAprioriScan(ctx, options);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();

  auto work_dir = TempDir::Create("apriori-scan-workdir");
  ASSERT_TRUE(work_dir.ok());
  testing::RecordingEnv env;
  options.io_env = &env;
  options.work_dir = work_dir->path().string();
  options.reducer_memory_budget_bytes = 1;  // Spill every dictionary.
  auto spilled = RunAprioriScan(ctx, options);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  EXPECT_TRUE(AnyPathContains(env.written(), "/apriori-scan-dict-k"));
  EXPECT_TRUE(spilled->stats.SameAs(in_memory->stats));
  const std::vector<std::string> leftovers = Leftovers(work_dir->path());
  EXPECT_TRUE(leftovers.empty())
      << leftovers.size() << " leftover(s), first: " << leftovers.front();
}

TEST(AprioriScanMethodTest, SpillsWithoutWorkDirAndLeavesNothing) {
  const Corpus corpus = testing::RandomCorpus(5, 800, 60, 4, 12);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  NgramJobOptions options = TestOptions(Method::kAprioriScan, 2, 5);
  auto in_memory = RunAprioriScan(ctx, options);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();

  ASSERT_TRUE(options.work_dir.empty());
  testing::RecordingEnv env;
  options.io_env = &env;
  options.reducer_memory_budget_bytes = 1;  // Spill every dictionary.
  auto spilled = RunAprioriScan(ctx, options);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  EXPECT_TRUE(spilled->stats.SameAs(in_memory->stats));
  // The budget held with no work_dir: the dictionaries spilled, into a
  // private directory that is gone with everything in it.
  size_t dict_files = 0;
  for (const std::string& path : env.written()) {
    if (path.find("/apriori-scan-dict-k") == std::string::npos) {
      continue;
    }
    ++dict_files;
    EXPECT_FALSE(std::filesystem::exists(path)) << path;
    EXPECT_FALSE(std::filesystem::exists(
        std::filesystem::path(path).parent_path()))
        << path;
  }
  EXPECT_GT(dict_files, 0u);
}

TEST(MethodsTest, EmptyCorpusYieldsEmptyStats) {
  const Corpus corpus;
  const CorpusContext ctx = BuildCorpusContext(corpus);
  for (Method method :
       {Method::kNaive, Method::kAprioriScan, Method::kAprioriIndex,
        Method::kSuffixSigma}) {
    auto run = ComputeNgramStatistics(ctx, TestOptions(method, 1, 3));
    ASSERT_TRUE(run.ok()) << MethodName(method);
    EXPECT_TRUE(run->stats.empty()) << MethodName(method);
  }
}

TEST(MethodsTest, TauAboveAllFrequenciesYieldsEmpty) {
  const CorpusContext ctx = BuildCorpusContext(RunningExampleCorpus());
  for (Method method :
       {Method::kNaive, Method::kAprioriScan, Method::kAprioriIndex,
        Method::kSuffixSigma}) {
    auto run = ComputeNgramStatistics(ctx, TestOptions(method, 100, 3));
    ASSERT_TRUE(run.ok()) << MethodName(method);
    EXPECT_TRUE(run->stats.empty()) << MethodName(method);
  }
}

TEST(MethodsTest, SigmaOneGivesUnigramsOnly) {
  const CorpusContext ctx = BuildCorpusContext(RunningExampleCorpus());
  for (Method method :
       {Method::kNaive, Method::kAprioriScan, Method::kAprioriIndex,
        Method::kSuffixSigma}) {
    auto run = ComputeNgramStatistics(ctx, TestOptions(method, 3, 1));
    ASSERT_TRUE(run.ok()) << MethodName(method);
    EXPECT_EQ(run->stats.size(), 3u) << MethodName(method);
    EXPECT_EQ(run->stats.MaxLength(), 1u) << MethodName(method);
  }
}

}  // namespace
}  // namespace ngram
