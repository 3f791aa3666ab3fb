// Property tests: every method must produce exactly the brute-force result
// for any (corpus, tau, sigma) — including sigma = 0 (unbounded), document
// splitting on/off, combiner on/off, and document-frequency mode.
#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/maximality.h"
#include "core/runner.h"
#include "testing/test_util.h"

namespace ngram {
namespace {

struct EquivalenceCase {
  Method method;
  uint64_t tau;
  uint32_t sigma;
  uint64_t seed;
  bool document_splits;
};

std::string CaseName(const ::testing::TestParamInfo<EquivalenceCase>& info) {
  const auto& c = info.param;
  std::string name = MethodName(c.method);
  name += "_tau" + std::to_string(c.tau);
  name += "_sigma" + std::to_string(c.sigma);
  name += "_seed" + std::to_string(c.seed);
  name += c.document_splits ? "_splits" : "_nosplits";
  for (auto& ch : name) {
    if (ch == '-') {
      ch = '_';
    }
  }
  return name;
}

class EquivalenceTest : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(EquivalenceTest, MatchesBruteForce) {
  const EquivalenceCase& c = GetParam();
  const Corpus corpus = testing::RandomCorpus(c.seed, 25, 6, 3, 12);
  const CorpusContext ctx = BuildCorpusContext(corpus);

  NgramJobOptions options = testing::TestOptions(c.method, c.tau, c.sigma);
  options.document_splits = c.document_splits;
  auto run = ComputeNgramStatistics(ctx, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  NgramStatistics expected = BruteForceCounts(corpus, c.tau, c.sigma);
  run->stats.SortCanonical();
  EXPECT_TRUE(run->stats.SameAs(expected))
      << ::testing::PrintToString(run->stats.DiffAgainst(expected));
}

std::vector<EquivalenceCase> MakeCases() {
  std::vector<EquivalenceCase> cases;
  const Method methods[] = {Method::kNaive, Method::kAprioriScan,
                            Method::kAprioriIndex, Method::kSuffixSigma};
  for (Method method : methods) {
    for (uint64_t tau : {1, 2, 5}) {
      for (uint32_t sigma : {1u, 3u, 5u, 0u}) {
        cases.push_back({method, tau, sigma, /*seed=*/41, true});
      }
    }
    // Splitting disabled, second seed.
    cases.push_back({method, 3, 4, 42, false});
    cases.push_back({method, 2, 0, 43, false});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EquivalenceTest,
                         ::testing::ValuesIn(MakeCases()), CaseName);

// ------------------------------------------------------ document freq --

class DocFrequencyTest : public ::testing::TestWithParam<Method> {};

TEST_P(DocFrequencyTest, MatchesBruteForceDocumentFrequencies) {
  const Corpus corpus = testing::RandomCorpus(55, 20, 5, 3, 10);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  NgramJobOptions options = testing::TestOptions(GetParam(), 2, 3);
  options.frequency_mode = FrequencyMode::kDocument;
  // Document splitting keys off *collection* unigram frequencies; keep the
  // run faithful to the df problem by disabling it.
  options.document_splits = false;
  options.use_combiner = false;
  auto run = ComputeNgramStatistics(ctx, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  NgramStatistics expected = BruteForceDocumentFrequencies(corpus, 2, 3);
  EXPECT_TRUE(run->stats.SameAs(expected))
      << ::testing::PrintToString(run->stats.DiffAgainst(expected));
}

INSTANTIATE_TEST_SUITE_P(AllMethods, DocFrequencyTest,
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

// ----------------------------------------------- pairwise cross-checks --

TEST(EquivalenceTest, AllMethodsAgreeOnLargerCorpus) {
  const Corpus corpus = testing::RandomCorpus(77, 120, 10, 4, 16);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  NgramStatistics reference;
  bool have_reference = false;
  for (Method method :
       {Method::kNaive, Method::kAprioriScan, Method::kAprioriIndex,
        Method::kSuffixSigma}) {
    auto run =
        ComputeNgramStatistics(ctx, testing::TestOptions(method, 4, 6));
    ASSERT_TRUE(run.ok()) << MethodName(method);
    run->stats.SortCanonical();
    if (!have_reference) {
      reference = std::move(run->stats);
      have_reference = true;
      EXPECT_GT(reference.size(), 0u);
    } else {
      EXPECT_TRUE(run->stats.SameAs(reference)) << MethodName(method);
    }
  }
}

TEST(EquivalenceTest, SpillPathsDoNotChangeResults) {
  const Corpus corpus = testing::RandomCorpus(88, 60, 6, 3, 12);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  for (Method method : {Method::kNaive, Method::kSuffixSigma}) {
    NgramJobOptions big = testing::TestOptions(method, 2, 4);
    big.sort_buffer_bytes = 64 << 20;
    NgramJobOptions tiny = testing::TestOptions(method, 2, 4);
    tiny.sort_buffer_bytes = 2048;  // Many spills.
    auto a = ComputeNgramStatistics(ctx, big);
    auto b = ComputeNgramStatistics(ctx, tiny);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_GT(b->metrics.TotalCounter(mr::kSpillFiles), 0u);
    EXPECT_TRUE(a->stats.SameAs(b->stats)) << MethodName(method);
  }
}

TEST(EquivalenceTest, SlotCountDoesNotChangeResults) {
  const Corpus corpus = testing::RandomCorpus(99, 40, 6, 3, 12);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  NgramStatistics reference;
  bool have_reference = false;
  for (uint32_t slots : {1u, 2u, 4u}) {
    NgramJobOptions options =
        testing::TestOptions(Method::kSuffixSigma, 2, 5);
    options.map_slots = slots;
    options.reduce_slots = slots;
    options.num_reducers = slots * 2;
    auto run = ComputeNgramStatistics(ctx, options);
    ASSERT_TRUE(run.ok());
    run->stats.SortCanonical();
    if (!have_reference) {
      reference = std::move(run->stats);
      have_reference = true;
    } else {
      EXPECT_TRUE(run->stats.SameAs(reference)) << "slots=" << slots;
    }
  }
}

TEST(EquivalenceTest, CombinerOnOffAgree) {
  const Corpus corpus = testing::RandomCorpus(101, 50, 6, 3, 12);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  for (Method method : {Method::kNaive, Method::kAprioriScan}) {
    NgramJobOptions with = testing::TestOptions(method, 3, 4);
    with.use_combiner = true;
    NgramJobOptions without = testing::TestOptions(method, 3, 4);
    without.use_combiner = false;
    auto a = ComputeNgramStatistics(ctx, with);
    auto b = ComputeNgramStatistics(ctx, without);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(a->stats.SameAs(b->stats)) << MethodName(method);
    // The combiner reduces reduce-side input records.
    EXPECT_LE(a->metrics.TotalCounter(mr::kReduceInputRecords),
              b->metrics.TotalCounter(mr::kReduceInputRecords));
  }
}

TEST(EquivalenceTest, CompressionOnOffAgreeAcrossMethodsAndMergeFactors) {
  // compress_runs changes only the at-rest run representation; every
  // method must produce identical statistics with it on or off, across
  // bounded, small-bound, and unbounded merge fan-in, with spill-heavy
  // sort buffers so the compressed paths (spills, map-side final merges,
  // reduce-side intermediate passes) all actually run.
  const Corpus corpus = testing::RandomCorpus(99, 60, 6, 3, 12);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  for (Method method :
       {Method::kNaive, Method::kAprioriScan, Method::kAprioriIndex,
        Method::kSuffixSigma}) {
    for (uint32_t merge_factor : {2u, 16u, 0u}) {
      NgramJobOptions on = testing::TestOptions(method, 2, 4);
      on.sort_buffer_bytes = 2048;
      on.merge_factor = merge_factor;
      on.compress_runs = true;
      NgramJobOptions off = on;
      off.compress_runs = false;
      auto a = ComputeNgramStatistics(ctx, on);
      auto b = ComputeNgramStatistics(ctx, off);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_GT(a->metrics.TotalCounter(mr::kSpillFiles), 0u);
      EXPECT_TRUE(a->stats.SameAs(b->stats))
          << MethodName(method) << " merge_factor=" << merge_factor;
    }
  }
}

TEST(EquivalenceTest, CompressionOnOffAgreeForMaximalAndClosed) {
  const Corpus corpus = testing::RandomCorpus(111, 50, 6, 3, 12);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  using Variant = Result<NgramRun> (*)(const CorpusContext&,
                                       const NgramJobOptions&);
  for (Variant variant : {static_cast<Variant>(&RunSuffixSigmaMaximal),
                          static_cast<Variant>(&RunSuffixSigmaClosed)}) {
    NgramJobOptions on = testing::TestOptions(Method::kSuffixSigma, 2, 4);
    on.sort_buffer_bytes = 2048;
    on.compress_runs = true;
    NgramJobOptions off = on;
    off.compress_runs = false;
    auto a = variant(ctx, on);
    auto b = variant(ctx, off);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    a->stats.SortCanonical();
    b->stats.SortCanonical();
    EXPECT_TRUE(a->stats.SameAs(b->stats));
  }
}

TEST(EquivalenceTest, CompressedRunsShrinkSuffixSigmaSpills) {
  // The acceptance-shaped claim: on spill-heavy SUFFIX-sigma runs —
  // rev-lex-sorted truncated suffixes whose neighbors share long byte
  // prefixes — the block format writes measurably fewer at-rest bytes
  // than the raw framing it replaces.
  const Corpus corpus = testing::RandomCorpus(123, 120, 10, 4, 16);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  NgramJobOptions options = testing::TestOptions(Method::kSuffixSigma, 2, 5);
  options.sort_buffer_bytes = 2048;  // Many spills.
  auto run = ComputeNgramStatistics(ctx, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const uint64_t raw = run->metrics.TotalCounter(mr::kRunBytesRaw);
  const uint64_t written = run->metrics.TotalCounter(mr::kRunBytesWritten);
  ASSERT_GT(raw, 0u);
  EXPECT_LT(written, raw);
}

}  // namespace
}  // namespace ngram
