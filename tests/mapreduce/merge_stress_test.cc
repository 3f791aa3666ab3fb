// Bounded-fan-in external merge at scale: many-spill stress, byte-identical
// determinism across merge factors, fd-pressure under a lowered RLIMIT_NOFILE,
// CRC verification of checksummed runs on the reduce-side read path, and the
// reduce-side merge plan (PrepareReduceMerge sizes its first intermediate
// pass remainder-first over the smallest consecutive window).
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/job.h"
#include "mapreduce/merge.h"
#include "mapreduce/runfile.h"
#include "util/temp_dir.h"

namespace ngram::mr {
namespace {

/// Emits `fan_out` records per input row with keys shared across rows and
/// tasks (key space of 23) and values unique per (row, j) — so any
/// reordering of equal keys anywhere in the merge shows up in the output
/// bytes.
class FanOutMapper final
    : public Mapper<uint64_t, std::string, std::string, std::string> {
 public:
  explicit FanOutMapper(uint32_t fan_out) : fan_out_(fan_out) {}

  Status Map(const uint64_t& id, const std::string& row,
             Context* ctx) override {
    for (uint32_t j = 0; j < fan_out_; ++j) {
      NGRAM_RETURN_NOT_OK(
          ctx->Emit("key" + std::to_string((id * 31 + j) % 23),
                    row + ":" + std::to_string(j)));
    }
    return Status::OK();
  }

 private:
  const uint32_t fan_out_;
};

/// Re-emits every record of every group verbatim: the job output is the
/// exact merged record stream, which makes byte comparison sensitive to
/// any ordering or content deviation.
class IdentityReducer final : public RawReducer<std::string, std::string> {
 public:
  Status Reduce(GroupValueIterator* group, Context* ctx) override {
    while (group->NextValue()) {
      NGRAM_RETURN_NOT_OK(ctx->EmitRaw(group->key(), group->value()));
    }
    return Status::OK();
  }
};

class CountingMapper final
    : public Mapper<uint64_t, std::string, std::string, uint64_t> {
 public:
  Status Map(const uint64_t& id, const std::string& word,
             Context* ctx) override {
    return ctx->Emit(word, 1);
  }
};

class SumReducer final
    : public Reducer<std::string, uint64_t, std::string, uint64_t> {
 public:
  Status Reduce(const std::string& key, Values* values,
                Context* ctx) override {
    uint64_t total = 0, v = 0;
    while (values->Next(&v)) {
      total += v;
    }
    return ctx->Emit(key, total);
  }
};

MemoryTable<uint64_t, std::string> StressInput(uint64_t rows) {
  MemoryTable<uint64_t, std::string> input;
  for (uint64_t i = 0; i < rows; ++i) {
    input.Add(i, "row-" + std::to_string(i) + "-payloadpayloadpayload");
  }
  return input;
}

/// Serializes a RecordTable's framed records (the byte-identity probe).
std::string TableBytes(const RecordTable& table) {
  std::string bytes;
  auto reader = table.NewReader();
  while (reader->Next()) {
    AppendRecord(&bytes, reader->key(), reader->value());
  }
  EXPECT_TRUE(reader->status().ok());
  return bytes;
}

Result<JobMetrics> RunStressJob(const JobConfig& config, uint64_t rows,
                                uint32_t fan_out, RecordTable* output) {
  return RunJob<FanOutMapper, IdentityReducer>(
      config, StressInput(rows),
      [fan_out] { return std::make_unique<FanOutMapper>(fan_out); },
      [] { return std::make_unique<IdentityReducer>(); }, output);
}

TEST(MergeStressTest, ManySpillRunsMergeCorrectly) {
  JobConfig config;
  config.sort_buffer_bytes = 1024;  // ~10 records per run.
  config.num_map_tasks = 4;
  config.num_reducers = 3;
  config.merge_factor = 8;
  RecordTable output;
  auto metrics = RunStressJob(config, 300, 8, &output);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_GE(metrics->Counter(kSpillFiles), 100u);
  EXPECT_GT(metrics->Counter(kMergePasses), 0u);
  EXPECT_GT(metrics->Counter(kIntermediateMergeBytes), 0u);
  EXPECT_EQ(output.num_records(), 300u * 8u);

  // Same job without any spilling at all must produce the same bytes.
  JobConfig roomy = config;
  roomy.sort_buffer_bytes = 64ULL << 20;
  RecordTable roomy_output;
  ASSERT_TRUE(RunStressJob(roomy, 300, 8, &roomy_output).ok());
  EXPECT_EQ(TableBytes(output), TableBytes(roomy_output));
}

TEST(MergeStressTest, ByteIdenticalAcrossMergeFactors) {
  // merge_factor 0 (unbounded) is the pre-bounded-merge baseline; every
  // bounded configuration must reproduce its output byte for byte, both
  // with map-side final merges (few tasks, many runs each) and with
  // reduce-side multi-pass merges (many tasks).
  for (uint32_t num_map_tasks : {3u, 24u}) {
    std::string reference;
    for (uint32_t merge_factor : {0u, 2u, 3u, 16u}) {
      JobConfig config;
      config.sort_buffer_bytes = 1024;
      config.num_map_tasks = num_map_tasks;
      config.num_reducers = 3;
      config.merge_factor = merge_factor;
      RecordTable output;
      auto metrics = RunStressJob(config, 120, 6, &output);
      ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
      const std::string bytes = TableBytes(output);
      if (reference.empty()) {
        reference = bytes;
      } else {
        EXPECT_EQ(bytes, reference)
            << "merge_factor=" << merge_factor
            << " num_map_tasks=" << num_map_tasks;
      }
    }
    ASSERT_FALSE(reference.empty());
  }
}

TEST(MergeStressTest, NoSpillJobNeverReSpills) {
  // merge_factor bounds fds and read buffers; in-memory zero-copy runs
  // cost neither. A job whose map tasks all stay within the sort buffer
  // must keep its fully in-memory reduce path even when the task count
  // exceeds merge_factor — no intermediate passes, no disk I/O.
  JobConfig config;
  config.num_map_tasks = 24;
  config.num_reducers = 2;
  config.merge_factor = 4;  // Far below the 24 in-memory sources.
  RecordTable output;
  auto metrics = RunStressJob(config, 120, 6, &output);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->Counter(kSpillFiles), 0u);
  EXPECT_EQ(metrics->Counter(kMergePasses), 0u);
  EXPECT_EQ(metrics->Counter(kIntermediateMergeBytes), 0u);
  EXPECT_EQ(output.num_records(), 120u * 6u);
}

TEST(MergeStressTest, MixedMemoryAndFileSourcesStayByteIdentical) {
  // Some tasks spill (oversized payloads), others finish in memory, so
  // the reduce-side source list interleaves file-backed and in-memory
  // runs. Grouping only the fd-costing sources must still reproduce the
  // unbounded output byte for byte.
  MemoryTable<uint64_t, std::string> input;
  for (uint64_t i = 0; i < 120; ++i) {
    // Every few rows, a payload larger than the sort buffer: the task
    // that gets it spills; tasks with only small rows stay in memory.
    const bool big = i % 5 == 0;
    input.Add(i, (big ? std::string(3000, 'x') : "small") + ":" +
                     std::to_string(i));
  }
  std::string reference;
  for (uint32_t merge_factor : {0u, 2u, 3u}) {
    JobConfig config;
    config.sort_buffer_bytes = 2048;
    config.num_map_tasks = 30;
    config.num_reducers = 2;
    config.merge_factor = merge_factor;
    RecordTable output;
    auto metrics = RunJob<FanOutMapper, IdentityReducer>(
        config, input, [] { return std::make_unique<FanOutMapper>(3); },
        [] { return std::make_unique<IdentityReducer>(); }, &output);
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    if (merge_factor == 0) {
      // Spills happened; and since only 24 rows are big, at least 6 of
      // the 30 tasks saw none and finished with an in-memory run — the
      // source list is genuinely mixed.
      EXPECT_GT(metrics->Counter(kSpillFiles), 0u);
    }
    const std::string bytes = TableBytes(output);
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "merge_factor=" << merge_factor;
    }
  }
}

TEST(MergeStressTest, CombinerRunsAcrossRunsInMapSideFinalMerge) {
  MemoryTable<uint64_t, std::string> input;
  for (uint64_t i = 0; i < 400; ++i) {
    input.Add(i, "word" + std::to_string(i % 5));
  }
  JobConfig config;
  config.sort_buffer_bytes = 512;  // Many runs per task.
  config.num_map_tasks = 2;
  config.num_reducers = 2;
  config.merge_factor = 4;
  MemoryTable<std::string, uint64_t> output;
  auto metrics = RunJob<CountingMapper, SumReducer>(
      config, input, [] { return std::make_unique<CountingMapper>(); },
      [] { return std::make_unique<SumReducer>(); }, &output, SumCombiner());
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  std::map<std::string, uint64_t> counts(output.rows.begin(),
                                         output.rows.end());
  std::map<std::string, uint64_t> expected;
  for (uint64_t i = 0; i < 400; ++i) {
    ++expected["word" + std::to_string(i % 5)];
  }
  EXPECT_EQ(counts, expected);
  EXPECT_GT(metrics->Counter(kMergePasses), 0u);
  // The map-side final merge re-combined across runs: each map task hands
  // the reduce phase at most (distinct keys) records — far fewer than the
  // per-run combined records the spills held.
  EXPECT_LE(metrics->Counter(kReduceInputRecords),
            5u * config.num_map_tasks);
}

TEST(MergeStressTest, CompletesUnderLowFdLimit) {
  // >= 256 spill runs must not translate into >= 256 simultaneously open
  // fds: with the bound, open files per reduce task stay O(merge_factor).
  // Runs with compress_runs at its default (on), so the fd-pressure path
  // is exercised over block-format runs; the raw-format variant below
  // keeps the original coverage. CI runs both under `ulimit -n 64`.
  struct rlimit saved;
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);
  struct rlimit lowered = saved;
  lowered.rlim_cur = 64;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &lowered), 0);

  JobConfig config;
  config.sort_buffer_bytes = 1024;
  config.num_map_tasks = 32;
  config.map_slots = 2;
  config.reduce_slots = 2;
  config.num_reducers = 2;
  config.merge_factor = 4;
  RecordTable output;
  auto metrics = RunStressJob(config, 640, 10, &output);

  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_GE(metrics->Counter(kSpillFiles), 256u);
  EXPECT_EQ(output.num_records(), 640u * 10u);

  // And the output still matches the unbounded baseline, run with the
  // saved fd limit restored. When the ambient limit is itself low (CI
  // runs this binary under `ulimit -n 64`), the unbounded run dies on
  // fd exhaustion — the exact blow-up the bound fixes — and the byte
  // identity is already covered by ByteIdenticalAcrossMergeFactors.
  JobConfig unbounded = config;
  unbounded.merge_factor = 0;
  RecordTable baseline;
  auto baseline_metrics = RunStressJob(unbounded, 640, 10, &baseline);
  if (baseline_metrics.ok()) {
    EXPECT_EQ(TableBytes(output), TableBytes(baseline));
  } else {
    EXPECT_TRUE(baseline_metrics.status().IsIOError())
        << baseline_metrics.status().ToString();
  }
}

TEST(MergeStressTest, CompletesUnderLowFdLimitRawRuns) {
  // Same fd-pressure scenario over raw-format runs (compress_runs off).
  struct rlimit saved;
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);
  struct rlimit lowered = saved;
  lowered.rlim_cur = 64;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &lowered), 0);

  JobConfig config;
  config.sort_buffer_bytes = 1024;
  config.num_map_tasks = 32;
  config.map_slots = 2;
  config.reduce_slots = 2;
  config.num_reducers = 2;
  config.merge_factor = 4;
  config.compress_runs = false;
  RecordTable output;
  auto metrics = RunStressJob(config, 640, 10, &output);

  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_GE(metrics->Counter(kSpillFiles), 256u);
  EXPECT_EQ(output.num_records(), 640u * 10u);
}

// --------------------------------------------------- CRC verification --

/// CountingMapper that, during the last map task's Cleanup, flips the
/// last byte of the lexicographically first run file in `work_dir`
/// (map_slots=1 serializes tasks, so task 0's runs are committed by
/// then — the victim is always one of its files).
class FlipOnCleanupMapper final
    : public Mapper<uint64_t, std::string, std::string, uint64_t> {
 public:
  explicit FlipOnCleanupMapper(std::string work_dir)
      : work_dir_(std::move(work_dir)) {}

  Status Map(const uint64_t& id, const std::string& word,
             Context* ctx) override {
    return ctx->Emit(word, 1);
  }

  Status Cleanup(Context* ctx) override {
    if (ctx->task_id() != 1) {
      return Status::OK();
    }
    std::string victim;
    for (const auto& entry :
         std::filesystem::directory_iterator(work_dir_)) {
      const std::string path = entry.path().string();
      if (victim.empty() || path < victim) {
        victim = path;
      }
    }
    EXPECT_FALSE(victim.empty());
    std::fstream file(victim,
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(0, std::ios::end);
    const auto size = file.tellg();
    file.seekp(size - std::streamoff(1));
    file.put('\0');  // varint 1 -> varint 0.
    return Status::OK();  // Corrupt silently; the attempt itself succeeds.
  }

 private:
  const std::string work_dir_;
};

/// Runs a spill-heavy word count in `work_dir` with one committed run
/// file silently damaged mid-job (see FlipOnCleanupMapper). With raw runs
/// the flipped byte is the final record's varint value 1 -> 0: framing
/// stays valid, the count silently changes. With compressed runs the
/// same flip lands in the last block's CRC trailer (or payload), which
/// per-block verification catches unconditionally.
Result<JobMetrics> RunWithBitFlip(bool compress, bool checksum,
                                  const std::string& work_dir,
                                  std::map<std::string, uint64_t>* counts) {
  MemoryTable<uint64_t, std::string> input;
  for (uint64_t i = 0; i < 200; ++i) {
    input.Add(i, "word" + std::to_string(i % 3));
  }
  JobConfig config;
  config.work_dir = work_dir;
  config.sort_buffer_bytes = 512;
  config.num_map_tasks = 2;
  config.map_slots = 1;
  config.num_reducers = 1;
  config.merge_factor = 0;  // Keep original spill files around for the flip.
  config.compress_runs = compress;
  config.checksum_spills = checksum;
  MemoryTable<std::string, uint64_t> output;
  auto metrics = RunJob<FlipOnCleanupMapper, SumReducer>(
      config, input,
      [&work_dir] { return std::make_unique<FlipOnCleanupMapper>(work_dir); },
      [] { return std::make_unique<SumReducer>(); }, &output);
  counts->clear();
  for (const auto& [k, v] : output.rows) {
    (*counts)[k] = v;
  }
  return metrics;
}

TEST(MergeStressTest, ChecksumCatchesBitFlipOtherwiseSilent) {
  // Control: raw runs without checksum_spills — the flipped value byte
  // passes every structural check and the job "succeeds" with a wrong
  // count, exactly the silent corruption the knob exists to catch.
  {
    auto dir = TempDir::Create("crc-off");
    ASSERT_TRUE(dir.ok());
    std::map<std::string, uint64_t> counts;
    auto metrics = RunWithBitFlip(/*compress=*/false, /*checksum=*/false,
                                  dir->path().string(), &counts);
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    uint64_t total = 0;
    for (const auto& [k, v] : counts) {
      total += v;
    }
    EXPECT_EQ(total, 199u);  // One unit count was zeroed out.
  }
  // With checksums, the reduce-side verification refuses the damaged run
  // and the job fails with Corruption through the retry machinery.
  {
    auto dir = TempDir::Create("crc-on");
    ASSERT_TRUE(dir.ok());
    std::map<std::string, uint64_t> counts;
    auto metrics = RunWithBitFlip(/*compress=*/false, /*checksum=*/true,
                                  dir->path().string(), &counts);
    ASSERT_FALSE(metrics.ok());
    EXPECT_TRUE(metrics.status().IsCorruption())
        << metrics.status().ToString();
  }
}

TEST(MergeStressTest, CompressedRunsCatchBitFlipWithoutChecksumKnob) {
  // Block-format runs carry per-block CRCs verified as blocks are
  // decoded: the same flip the raw control above swallows fails with
  // Corruption even with checksum_spills off — integrity is inherent to
  // the format, not a separate pass.
  auto dir = TempDir::Create("block-crc");
  ASSERT_TRUE(dir.ok());
  std::map<std::string, uint64_t> counts;
  auto metrics = RunWithBitFlip(/*compress=*/true, /*checksum=*/false,
                                dir->path().string(), &counts);
  ASSERT_FALSE(metrics.ok());
  EXPECT_TRUE(metrics.status().IsCorruption()) << metrics.status().ToString();
}

TEST(MergeStressTest, ByteIdenticalWithAndWithoutCompression) {
  // compress_runs changes only the at-rest representation: the record
  // stream a reducer sees — and therefore the job output — must be
  // byte-identical for every merge factor, including multi-pass merges
  // whose intermediates are themselves compressed.
  for (uint32_t merge_factor : {0u, 2u, 16u}) {
    std::string reference;
    for (bool compress : {false, true}) {
      JobConfig config;
      config.sort_buffer_bytes = 1024;
      config.num_map_tasks = 8;
      config.num_reducers = 3;
      config.merge_factor = merge_factor;
      config.compress_runs = compress;
      RecordTable output;
      auto metrics = RunStressJob(config, 200, 6, &output);
      ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
      EXPECT_GT(metrics->Counter(kSpillFiles), 0u);
      if (compress) {
        // This workload's 4-byte keys share almost no prefix and its 1 KiB
        // runs pay block framing per handful of records, so at-rest bytes
        // may exceed raw slightly — bound the overhead; the compression
        // *win* on realistic sorted keys is asserted in
        // SortBufferTest.CompressedSpillsShrinkAndCountRunBytes and
        // EquivalenceTest.CompressedRunsShrinkSuffixSigmaSpills.
        EXPECT_GT(metrics->Counter(kRunBytesWritten), 0u);
        EXPECT_LT(metrics->Counter(kRunBytesWritten),
                  metrics->Counter(kRunBytesRaw) * 115 / 100);
      } else {
        EXPECT_EQ(metrics->Counter(kRunBytesWritten),
                  metrics->Counter(kRunBytesRaw));
      }
      const std::string bytes = TableBytes(output);
      if (reference.empty()) {
        reference = bytes;
      } else {
        EXPECT_EQ(bytes, reference)
            << "compress=" << compress << " merge_factor=" << merge_factor;
      }
    }
    ASSERT_FALSE(reference.empty());
  }
}

TEST(MergeStressTest, PerPhaseMergeCountersSplitTheTotals) {
  // Few tasks spilling many runs each → map-side final merges; many
  // tasks → reduce-side passes. The phase breakouts must sum to the
  // job-level totals in both regimes.
  for (uint32_t num_map_tasks : {2u, 24u}) {
    JobConfig config;
    config.sort_buffer_bytes = 1024;
    config.num_map_tasks = num_map_tasks;
    config.num_reducers = 2;
    config.merge_factor = 4;
    RecordTable output;
    auto metrics = RunStressJob(config, 240, 6, &output);
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    EXPECT_GT(metrics->Counter(kMergePasses), 0u);
    EXPECT_EQ(metrics->Counter(kMapMergePasses) +
                  metrics->Counter(kReduceMergePasses),
              metrics->Counter(kMergePasses));
    EXPECT_EQ(metrics->Counter(kMapIntermediateMergeBytes) +
                  metrics->Counter(kReduceIntermediateMergeBytes),
              metrics->Counter(kIntermediateMergeBytes));
    if (num_map_tasks == 2) {
      // 2 tasks x ~40 runs with merge_factor 4: the map side must merge.
      EXPECT_GT(metrics->Counter(kMapMergePasses), 0u);
    } else {
      // 24 file-backed sources into one reduce partition: reduce passes.
      EXPECT_GT(metrics->Counter(kReduceMergePasses), 0u);
    }

    // The per-round pipeline view (what the multi-job runner logs)
    // carries the breakdown and the at-rest byte split.
    RunMetrics run_metrics;
    run_metrics.Add(*metrics);
    const PipelineMetrics pipeline = run_metrics.pipeline();
    ASSERT_EQ(pipeline.num_rounds(), 1);
    const PipelineMetrics::Round& round = pipeline.rounds[0];
    EXPECT_EQ(round.spill_files, metrics->Counter(kSpillFiles));
    EXPECT_EQ(round.map_merge_passes, metrics->Counter(kMapMergePasses));
    EXPECT_EQ(round.reduce_merge_bytes,
              metrics->Counter(kReduceIntermediateMergeBytes));
    EXPECT_EQ(round.run_bytes_raw, metrics->Counter(kRunBytesRaw));
    EXPECT_EQ(round.run_bytes_written, metrics->Counter(kRunBytesWritten));
    const std::string log_line = pipeline.ToString();
    EXPECT_NE(log_line.find("spilled"), std::string::npos) << log_line;
    EXPECT_NE(log_line.find("re-spill map"), std::string::npos) << log_line;
  }
}

TEST(MergeStressTest, ChecksummedMultiPassMergeVerifiesEveryStage) {
  // Checksums on + bounded fan-in: map runs, map-side merged runs, and
  // reduce-side intermediate outputs all go through CRC verification.
  // Raw format explicitly — whole-run CRCs are inert for block-format
  // runs (which verify per block instead), and this test exists to keep
  // the raw path (RunCrcVerifier, input/intermediate verifies) covered.
  JobConfig config;
  config.sort_buffer_bytes = 1024;
  config.num_map_tasks = 24;
  config.num_reducers = 2;
  config.merge_factor = 3;
  config.compress_runs = false;
  config.checksum_spills = true;
  RecordTable output;
  auto metrics = RunStressJob(config, 240, 6, &output);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_GT(metrics->Counter(kMergePasses), 0u);

  JobConfig plain = config;
  plain.checksum_spills = false;
  RecordTable plain_output;
  ASSERT_TRUE(RunStressJob(plain, 240, 6, &plain_output).ok());
  EXPECT_EQ(TableBytes(output), TableBytes(plain_output));
}

// ------------------------------------------------ merge-plan unit tests

/// Writes one single-partition block-format run of `records` to `path`.
SpillRun WriteRun(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& records) {
  RunWriterOptions options;
  auto writer = NewRunWriter(path, options);
  EXPECT_TRUE(writer->Open().ok());
  for (const auto& [k, v] : records) {
    EXPECT_TRUE(writer->Append(k, v).ok());
  }
  EXPECT_TRUE(writer->FinishSegment().ok());
  EXPECT_TRUE(writer->Close().ok());
  SpillRun run;
  run.file_path = path;
  run.segments = {{0, writer->bytes_written(),
                   static_cast<uint64_t>(records.size())}};
  run.block_format = writer->block_format();
  return run;
}

/// Drains `result`'s final-pass sources through the reducer-feeding
/// merger into raw frames (the exact record stream a reducer would see).
std::string DrainPlan(ReduceMergeResult* result) {
  KWayMerger merger(std::move(result->sources),
                    BytewiseComparator::Instance());
  std::string bytes;
  while (merger.Next()) {
    AppendRecord(&bytes, merger.key(), merger.value());
  }
  EXPECT_TRUE(merger.status().ok());
  return bytes;
}

struct PlanFixture {
  std::vector<SpillRun> runs;
  std::vector<const SpillRun*> pointers;
  Counters counters;
  TaskCounters tc{&counters};
  RunCrcVerifier verifier;

  ExternalMergeOptions Options(const std::string& work_dir,
                               uint32_t merge_factor) {
    ExternalMergeOptions options;
    options.merge_factor = merge_factor;
    options.work_dir = work_dir;
    options.name_prefix = "plan-test";
    options.verifier = &verifier;
    options.counters = &tc;
    return options;
  }

  void Finish() { tc.Flush(); }
};

/// `num_runs` runs with overlapping keys and (run, index)-tagged values;
/// runs in `tiny` get a single short record, the rest `bulk_records`
/// long ones.
void BuildRuns(PlanFixture* fix, const std::string& dir, size_t num_runs,
               const std::vector<size_t>& tiny, size_t bulk_records) {
  for (size_t r = 0; r < num_runs; ++r) {
    std::vector<std::pair<std::string, std::string>> records;
    const bool is_tiny =
        std::find(tiny.begin(), tiny.end(), r) != tiny.end();
    const size_t n = is_tiny ? 1 : bulk_records;
    for (size_t i = 0; i < n; ++i) {
      records.emplace_back(
          "key" + std::to_string((r * 7 + i) % 11),
          "run" + std::to_string(r) + ":" + std::to_string(i) +
              (is_tiny ? "" : std::string(40, 'x')));
    }
    std::sort(records.begin(), records.end());
    fix->runs.push_back(
        WriteRun(dir + "/run-" + std::to_string(r) + ".run", records));
  }
  for (const SpillRun& run : fix->runs) {
    fix->pointers.push_back(&run);
  }
}

TEST(ReduceMergePlanTest, FirstPassMergesTheSmallestRemainderWindow) {
  // 18 fd sources at factor 16: one pass of (18 - 16 - 1) % 15 + 2 = 3
  // consecutive sources brings the count to 16. Among the sixteen
  // candidate windows of size 3, the one covering the three tiny runs
  // (indices 7..9) has by far the fewest at-rest bytes — the plan must
  // pick it, so the intermediate output is tiny too.
  auto dir = TempDir::Create("plan-smallest");
  ASSERT_TRUE(dir.ok());
  PlanFixture fix;
  BuildRuns(&fix, dir->path().string(), 18, {7, 8, 9}, 60);

  ReduceMergeResult result;
  ASSERT_TRUE(PrepareReduceMerge(fix.Options(dir->path().string(), 16),
                                 fix.pointers, 0, &result)
                  .ok());
  EXPECT_EQ(result.sources.size(), 16u);
  ASSERT_EQ(result.intermediate_files.size(), 1u);
  const std::string merged = DrainPlan(&result);
  RemoveFiles(result.intermediate_files);
  fix.Finish();
  EXPECT_EQ(fix.counters.Get(kReduceMergePasses), 1u);
  // A window containing even one bulk run would re-spill > 2 KiB; the
  // tiny window re-spills three short records.
  const uint64_t bytes = fix.counters.Get(kReduceIntermediateMergeBytes);
  EXPECT_GT(bytes, 0u);
  EXPECT_LT(bytes, 500u);

  // And the bounded plan's record stream is byte-identical to the
  // unbounded single-pass merge of the same sources.
  ReduceMergeResult unbounded;
  ASSERT_TRUE(PrepareReduceMerge(fix.Options(dir->path().string(), 0),
                                 fix.pointers, 0, &unbounded)
                  .ok());
  EXPECT_TRUE(unbounded.intermediate_files.empty());
  EXPECT_EQ(DrainPlan(&unbounded), merged);
}

TEST(ReduceMergePlanTest, RemainderFirstSizingKeepsLaterPassesFull) {
  // 20 equal fd sources at factor 16: remainder-first means ONE pass of
  // (20 - 16 - 1) % 15 + 2 = 5 sources (a naive full-width sweep would
  // merge 16 of the 20 — re-spilling three times the bytes). All runs are
  // the same size, so the byte charge bounds the window the plan chose.
  auto dir = TempDir::Create("plan-remainder");
  ASSERT_TRUE(dir.ok());
  PlanFixture fix;
  BuildRuns(&fix, dir->path().string(), 20, {}, 40);
  const uint64_t run_bytes = fix.runs[0].segments[0].length;

  ReduceMergeResult result;
  ASSERT_TRUE(PrepareReduceMerge(fix.Options(dir->path().string(), 16),
                                 fix.pointers, 0, &result)
                  .ok());
  EXPECT_EQ(result.sources.size(), 16u);
  EXPECT_EQ(result.intermediate_files.size(), 1u);
  const std::string merged = DrainPlan(&result);
  RemoveFiles(result.intermediate_files);
  fix.Finish();
  EXPECT_EQ(fix.counters.Get(kReduceMergePasses), 1u);
  const uint64_t bytes = fix.counters.Get(kReduceIntermediateMergeBytes);
  // ~5 runs' worth re-encoded (front-coding makes the output a bit
  // smaller or larger than the inputs; bound it well clear of 16 runs).
  EXPECT_GT(bytes, 2 * run_bytes);
  EXPECT_LT(bytes, 8 * run_bytes);

  ReduceMergeResult unbounded;
  ASSERT_TRUE(PrepareReduceMerge(fix.Options(dir->path().string(), 0),
                                 fix.pointers, 0, &unbounded)
                  .ok());
  EXPECT_EQ(DrainPlan(&unbounded), merged);
}

TEST(ReduceMergePlanTest, MultiPassPlansStayByteIdentical) {
  // Deep recursion: 20 sources at factor 2 forces a long chain of
  // two-way intermediate passes; the final stream must still match the
  // unbounded merge exactly (tie-break preserved through every level).
  auto dir = TempDir::Create("plan-deep");
  ASSERT_TRUE(dir.ok());
  PlanFixture fix;
  BuildRuns(&fix, dir->path().string(), 20, {3, 11}, 15);

  ReduceMergeResult bounded;
  ASSERT_TRUE(PrepareReduceMerge(fix.Options(dir->path().string(), 2),
                                 fix.pointers, 0, &bounded)
                  .ok());
  EXPECT_LE(bounded.sources.size(), 2u);
  const std::string merged = DrainPlan(&bounded);
  RemoveFiles(bounded.intermediate_files);
  fix.Finish();
  EXPECT_EQ(fix.counters.Get(kReduceMergePasses), 18u);  // 20 -> 2, -1 each.

  ReduceMergeResult unbounded;
  ASSERT_TRUE(PrepareReduceMerge(fix.Options(dir->path().string(), 0),
                                 fix.pointers, 0, &unbounded)
                  .ok());
  EXPECT_EQ(DrainPlan(&unbounded), merged);
}

}  // namespace
}  // namespace ngram::mr
