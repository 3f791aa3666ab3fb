// Method-level chaos sweep: every paper method (plus the maximal/closed
// variants) on a small corpus, with a sort buffer and a reducer memory
// budget small enough that shuffle runs, APRIORI-INDEX posting buffers and
// the APRIORI-SCAN dictionary all spill, under fixed FaultPlan seeds. Each
// run either yields the fault-free statistics or fails with a clean
// work_dir — the dichotomy tests/mapreduce/chaos_test.cc checks for
// generic jobs, here extended to the reducer-private spill files.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "core/maximality.h"
#include "core/runner.h"
#include "mapreduce/io_env.h"
#include "testing/recording_env.h"
#include "testing/test_util.h"
#include "util/temp_dir.h"

namespace ngram {
namespace {

using RunFn = std::function<Result<NgramRun>(const CorpusContext&,
                                             const NgramJobOptions&)>;

struct Variant {
  std::string name;
  Method method;
  RunFn run;
};

std::vector<Variant> Variants() {
  const RunFn compute = [](const CorpusContext& ctx,
                           const NgramJobOptions& options) {
    return ComputeNgramStatistics(ctx, options);
  };
  return {
      {"naive", Method::kNaive, compute},
      {"apriori-scan", Method::kAprioriScan, compute},
      {"apriori-index", Method::kAprioriIndex, compute},
      {"suffix-sigma", Method::kSuffixSigma, compute},
      {"maximal", Method::kSuffixSigma, RunSuffixSigmaMaximal},
      {"closed", Method::kSuffixSigma, RunSuffixSigmaClosed},
  };
}

NgramJobOptions ChaosOptions(Method method) {
  NgramJobOptions options = testing::TestOptions(method, 2, 4);
  options.map_slots = 1;  // One slot each: op indices replay exactly.
  options.reduce_slots = 1;
  options.num_reducers = 2;
  options.sort_buffer_bytes = 16 * 1024;
  options.reducer_memory_budget_bytes = 1;  // Every reducer spill fires.
  options.apriori_index_k = 2;              // Joins for k = 3, 4.
  options.max_task_attempts = 3;
  return options;
}

size_t FilesIn(const std::filesystem::path& dir) {
  size_t n = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    (void)entry;
    ++n;
  }
  return n;
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

constexpr uint64_t kSeedsPerVariant = 24;

TEST(MethodChaosTest, SweptSeedsUpholdTheDichotomy) {
  const CorpusContext ctx =
      BuildCorpusContext(testing::RandomCorpus(5, 800, 60, 4, 12));
  const std::vector<Variant> variants = Variants();
  for (size_t v = 0; v < variants.size(); ++v) {
    const Variant& variant = variants[v];
    NgramJobOptions options = ChaosOptions(variant.method);

    // Fault-free baseline, which must reach the spill paths under test.
    auto baseline_dir = TempDir::Create("method-chaos-baseline");
    ASSERT_TRUE(baseline_dir.ok());
    testing::RecordingEnv recorder;
    options.io_env = &recorder;
    options.work_dir = baseline_dir->path().string();
    auto baseline = variant.run(ctx, options);
    ASSERT_TRUE(baseline.ok()) << variant.name << ": "
                               << baseline.status().ToString();
    ASSERT_FALSE(baseline->stats.empty()) << variant.name;
    EXPECT_TRUE(AnyPathContains(recorder.written(), "/map-"))
        << variant.name << " wrote no shuffle spill";
    if (variant.method == Method::kAprioriIndex) {
      EXPECT_TRUE(AnyPathContains(recorder.written(), "/join-r"))
          << "no posting-buffer spill";
    }
    if (variant.method == Method::kAprioriScan) {
      EXPECT_TRUE(AnyPathContains(recorder.written(), "/apriori-scan-dict-k"))
          << "no dictionary spill";
    }

    for (uint64_t i = 0; i < kSeedsPerVariant; ++i) {
      const uint64_t seed = v * 100019 + i;
      const mr::FaultPlan plan = mr::FaultPlan::FromSeed(seed);
      mr::FaultEnv env(mr::IoEnv::Default(), plan);
      auto dir = TempDir::Create("method-chaos");
      ASSERT_TRUE(dir.ok());
      options.io_env = &env;
      options.work_dir = dir->path().string();
      auto result = variant.run(ctx, options);

      const std::string label = variant.name + " seed=" +
                                std::to_string(seed) +
                                " plan=" + plan.ToString();
      if (result.ok()) {
        EXPECT_TRUE(result->stats.SameAs(baseline->stats)) << label;
      } else {
        EXPECT_TRUE(env.fault_fired())
            << label << ": failed without the fault firing: "
            << result.status().ToString();
      }
      EXPECT_EQ(FilesIn(dir->path()), 0u)
          << label << " status="
          << (result.ok() ? std::string("OK") : result.status().ToString());
      if (!env.fault_fired()) {
        EXPECT_TRUE(result.ok()) << label;
      }
    }
  }
}

}  // namespace
}  // namespace ngram
