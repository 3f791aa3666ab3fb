// Seeded chaos harness: deterministic fault injection over a spill-heavy
// two-round pipeline, asserting the crash-consistency dichotomy — every
// chaos run either completes with output and counters byte-identical to
// the fault-free run, or fails with a clean Status and a clean work_dir.
// No third outcome: no silent corruption, no orphaned files, no crash.
//
// Determinism: single-slot sweeps place every I/O operation at the same
// global index run-to-run, so a (seed, config) pair replays exactly; a
// smaller multi-slot section checks the dichotomy itself is
// interleaving-independent.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mapreduce/dataset.h"
#include "mapreduce/io_env.h"
#include "mapreduce/job.h"
#include "net/fault_transport.h"
#include "net/inproc_transport.h"
#include "util/temp_dir.h"

namespace ngram::mr {
namespace {

// ------------------------------------------------------- pipeline under test

/// Emits `fan_out` records per row with keys shared across rows and tasks
/// (key space of 23): spill-heavy under a tiny sort buffer, and sensitive
/// to any reordering anywhere in the merge.
class FanOutMapper final
    : public Mapper<uint64_t, std::string, std::string, std::string> {
 public:
  Status Map(const uint64_t& id, const std::string& row,
             Context* ctx) override {
    for (uint32_t j = 0; j < 4; ++j) {
      NGRAM_RETURN_NOT_OK(
          ctx->Emit("key" + std::to_string((id * 31 + j) % 23),
                    row + ":" + std::to_string(j)));
    }
    return Status::OK();
  }
};

/// Re-emits every record verbatim: round 1's output is the exact merged
/// record stream.
class IdentityReducer final : public RawReducer<std::string, std::string> {
 public:
  Status Reduce(GroupValueIterator* group, Context* ctx) override {
    while (group->NextValue()) {
      NGRAM_RETURN_NOT_OK(ctx->EmitRaw(group->key(), group->value()));
    }
    return Status::OK();
  }
};

/// Round 2: count round 1's records per key.
class CountMapper final
    : public Mapper<std::string, std::string, std::string, uint64_t> {
 public:
  Status Map(const std::string& key, const std::string& value,
             Context* ctx) override {
    return ctx->Emit(key, 1);
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

RecordTable ChaosInput() {
  MemoryTable<uint64_t, std::string> input;
  for (uint64_t i = 0; i < 120; ++i) {
    input.Add(i, "row-" + std::to_string(i) + "-payloadpayload");
  }
  return EncodeTable(input);
}

std::string TableBytes(const RecordTable& table) {
  std::string bytes;
  auto reader = table.NewReader();
  while (reader->Next()) {
    AppendRecord(&bytes, reader->key(), reader->value());
  }
  EXPECT_TRUE(reader->status().ok());
  return bytes;
}

/// Counters whose values legitimately differ from a fault-free run: they
/// record the recovery work itself, or wall time (kBarrierWaitMs measures
/// milliseconds, not data). Everything else must match exactly.
std::map<std::string, uint64_t> StripRecoveryCounters(
    std::map<std::string, uint64_t> counters) {
  counters.erase(kTaskRetries);
  counters.erase(kMapReexecutions);
  counters.erase(kCorruptRunsRecovered);
  counters.erase(kBarrierWaitMs);
  return counters;
}

struct PipelineResult {
  Status status = Status::OK();
  std::string output_bytes;
  std::map<std::string, uint64_t> counters;  // Summed over both rounds.
};

/// Runs the two-round pipeline (fan-out/identity, then count/sum) with
/// every byte of run-file I/O routed through `env`.
PipelineResult RunPipeline(const JobConfig& base, IoEnv* env,
                           const std::string& work_dir) {
  PipelineResult result;
  JobConfig config = base;
  config.io_env = env;
  config.work_dir = work_dir;

  config.name = "chaos-r1";
  RecordTable middle;
  auto round1 = RunJob<FanOutMapper, IdentityReducer>(
      config, ChaosInput(), [] { return std::make_unique<FanOutMapper>(); },
      [] { return std::make_unique<IdentityReducer>(); }, &middle);
  if (!round1.ok()) {
    result.status = round1.status();
    return result;
  }

  config.name = "chaos-r2";
  RecordTable output;
  auto round2 = RunJob<CountMapper, SumReducer>(
      config, middle, [] { return std::make_unique<CountMapper>(); },
      [] { return std::make_unique<SumReducer>(); }, &output);
  if (!round2.ok()) {
    result.status = round2.status();
    return result;
  }

  result.output_bytes = TableBytes(output);
  for (const auto& metrics : {*round1, *round2}) {
    for (const auto& [name, value] : metrics.counters) {
      result.counters[name] += value;
    }
  }
  return result;
}

size_t FilesIn(const std::string& dir) {
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++n;
  }
  return n;
}

/// Spill-heavy base config. checksum_spills is forced on whenever
/// compress_runs is off: raw runs carry no inherent CRC, so an
/// unchecksummed raw run would let a bit flip through *silently* — the
/// exact outcome the dichotomy forbids. (Block-format runs verify per
/// block unconditionally.)
JobConfig ChaosConfig(bool compress, uint32_t merge_factor) {
  JobConfig config;
  config.sort_buffer_bytes = 512;
  config.num_map_tasks = 3;
  config.num_reducers = 2;
  config.map_slots = 1;
  config.reduce_slots = 1;
  config.merge_factor = merge_factor;
  config.compress_runs = compress;
  config.checksum_spills = !compress;
  config.max_task_attempts = 3;
  return config;
}

// ------------------------------------------------------------ seed sweep

struct SweepConfig {
  bool compress;
  uint32_t merge_factor;
};

constexpr SweepConfig kSweepConfigs[] = {
    {true, 2},  {true, 16},  {true, 0},
    {false, 2}, {false, 16}, {false, 0},
};
constexpr uint64_t kSeedsPerConfig = 60;  // 360 seeds total.

TEST(ChaosTest, SweptSeedsUpholdTheDichotomy) {
  for (size_t c = 0; c < std::size(kSweepConfigs); ++c) {
    const SweepConfig& sweep = kSweepConfigs[c];
    const JobConfig config = ChaosConfig(sweep.compress, sweep.merge_factor);

    auto baseline_dir = TempDir::Create("chaos-baseline");
    ASSERT_TRUE(baseline_dir.ok());
    const PipelineResult baseline =
        RunPipeline(config, nullptr, baseline_dir->path().string());
    ASSERT_TRUE(baseline.status.ok()) << baseline.status.ToString();
    const auto baseline_counters = StripRecoveryCounters(baseline.counters);

    for (uint64_t i = 0; i < kSeedsPerConfig; ++i) {
      const uint64_t seed = c * 100003 + i;
      const FaultPlan plan = FaultPlan::FromSeed(seed);
      FaultEnv env(IoEnv::Default(), plan);
      auto dir = TempDir::Create("chaos");
      ASSERT_TRUE(dir.ok());
      const std::string work_dir = dir->path().string();
      const PipelineResult result = RunPipeline(config, &env, work_dir);

      const std::string label =
          "seed=" + std::to_string(seed) + " plan=" + plan.ToString() +
          " compress=" + std::to_string(sweep.compress) +
          " merge_factor=" + std::to_string(sweep.merge_factor);
      if (result.status.ok()) {
        // Completion arm: byte-identical output and counters.
        EXPECT_EQ(result.output_bytes, baseline.output_bytes) << label;
        EXPECT_EQ(StripRecoveryCounters(result.counters), baseline_counters)
            << label;
      } else {
        // Failure arm: a clean Status (by construction) ...
        EXPECT_TRUE(env.fault_fired())
            << label << ": failed without the fault firing: "
            << result.status.ToString();
      }
      // ... and, either way, a clean work_dir: no orphaned runs, temp
      // files, or intermediates.
      EXPECT_EQ(FilesIn(work_dir), 0u) << label << " status="
                                       << result.status.ToString();
      // A plan whose op index the run never reached must be a clean
      // completion (the degenerate dichotomy arm).
      if (!env.fault_fired()) {
        EXPECT_TRUE(result.status.ok()) << label;
      }
    }
  }
}

TEST(ChaosTest, DichotomyHoldsUnderConcurrency) {
  // Multi-slot: op placement is racy, so runs are not comparable
  // seed-to-seed — but the dichotomy itself must hold under any
  // interleaving.
  JobConfig config = ChaosConfig(/*compress=*/true, /*merge_factor=*/2);
  config.map_slots = 2;
  config.reduce_slots = 2;

  auto baseline_dir = TempDir::Create("chaos-mt-baseline");
  ASSERT_TRUE(baseline_dir.ok());
  const PipelineResult baseline =
      RunPipeline(config, nullptr, baseline_dir->path().string());
  ASSERT_TRUE(baseline.status.ok());
  const auto baseline_counters = StripRecoveryCounters(baseline.counters);

  for (uint64_t seed = 9000; seed < 9040; ++seed) {
    FaultEnv env(IoEnv::Default(), FaultPlan::FromSeed(seed));
    auto dir = TempDir::Create("chaos-mt");
    ASSERT_TRUE(dir.ok());
    const std::string work_dir = dir->path().string();
    const PipelineResult result = RunPipeline(config, &env, work_dir);
    const std::string label = "seed=" + std::to_string(seed) + " plan=" +
                              env.plan().ToString();
    if (result.status.ok()) {
      EXPECT_EQ(result.output_bytes, baseline.output_bytes) << label;
      EXPECT_EQ(StripRecoveryCounters(result.counters), baseline_counters)
          << label;
    }
    EXPECT_EQ(FilesIn(work_dir), 0u) << label;
  }
}

// --------------------------------------------- per-injection-point faults

/// With op=1 every fault kind fires at its first opportunity, and with
/// max_task_attempts=3 each one is recoverable: write/short-write/commit/
/// rename faults fail the writing attempt (retried from scratch), read
/// faults fail the reading attempt, and the silent bit flip is caught by
/// run integrity checks and repaired by producer re-execution. The
/// pipeline must finish byte-identical to the fault-free run — data
/// counters included — at every injection point.
TEST(ChaosTest, EveryInjectionPointRecoversToIdenticalOutput) {
  const JobConfig config = ChaosConfig(/*compress=*/true,
                                       /*merge_factor=*/0);
  auto baseline_dir = TempDir::Create("chaos-points-baseline");
  ASSERT_TRUE(baseline_dir.ok());
  const PipelineResult baseline =
      RunPipeline(config, nullptr, baseline_dir->path().string());
  ASSERT_TRUE(baseline.status.ok());
  const auto baseline_counters = StripRecoveryCounters(baseline.counters);

  const FaultPlan::Kind kinds[] = {
      FaultPlan::Kind::kReadError,   FaultPlan::Kind::kWriteError,
      FaultPlan::Kind::kShortWrite,  FaultPlan::Kind::kBitFlip,
      FaultPlan::Kind::kCommitError, FaultPlan::Kind::kRenameError,
  };
  for (const FaultPlan::Kind kind : kinds) {
    FaultPlan plan;
    plan.kind = kind;
    plan.op = 1;
    plan.bit = 5;
    FaultEnv env(IoEnv::Default(), plan);
    auto dir = TempDir::Create("chaos-points");
    ASSERT_TRUE(dir.ok());
    const std::string work_dir = dir->path().string();
    const PipelineResult result = RunPipeline(config, &env, work_dir);
    const std::string label = std::string("kind=") +
                              FaultPlan::KindName(kind);
    ASSERT_TRUE(result.status.ok())
        << label << ": " << result.status.ToString();
    EXPECT_TRUE(env.fault_fired()) << label;
    EXPECT_EQ(result.output_bytes, baseline.output_bytes) << label;
    EXPECT_EQ(StripRecoveryCounters(result.counters), baseline_counters)
        << label;
    EXPECT_EQ(FilesIn(work_dir), 0u) << label;
    EXPECT_GT(result.counters.count(kTaskRetries) +
                  result.counters.count(kMapReexecutions),
              0u)
        << label << ": fault fired but no recovery was recorded";
  }
}

/// The acceptance scenario: a bit-flipped committed map run, discovered
/// by a reducer (merge_factor=0 keeps the map side from reading its own
/// runs first), triggers re-execution of the producing map task and the
/// job still completes correctly.
TEST(ChaosTest, BitFlippedMapRunTriggersProducerReexecution) {
  JobConfig config = ChaosConfig(/*compress=*/true, /*merge_factor=*/0);
  config.max_task_attempts = 2;

  auto baseline_dir = TempDir::Create("flip-baseline");
  ASSERT_TRUE(baseline_dir.ok());
  const PipelineResult baseline =
      RunPipeline(config, nullptr, baseline_dir->path().string());
  ASSERT_TRUE(baseline.status.ok());

  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kBitFlip;
  plan.op = 1;  // First written buffer: map task 0's first committed run.
  plan.bit = 17;
  FaultEnv env(IoEnv::Default(), plan);
  auto dir = TempDir::Create("flip");
  ASSERT_TRUE(dir.ok());
  const std::string work_dir = dir->path().string();
  const PipelineResult result = RunPipeline(config, &env, work_dir);

  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(env.fault_fired());
  EXPECT_GE(result.counters.at(kMapReexecutions), 1u);
  EXPECT_GE(result.counters.at(kCorruptRunsRecovered), 1u);
  EXPECT_EQ(result.output_bytes, baseline.output_bytes);
  EXPECT_EQ(StripRecoveryCounters(result.counters),
            StripRecoveryCounters(baseline.counters));
  EXPECT_EQ(FilesIn(work_dir), 0u);
}

/// Same scenario with the re-execution budget exhausted (attempts=1): the
/// corruption is unrecoverable and must surface as a clean Corruption
/// failure with a clean work_dir — not a wrong answer.
TEST(ChaosTest, ExhaustedReexecutionBudgetFailsCleanly) {
  JobConfig config = ChaosConfig(/*compress=*/true, /*merge_factor=*/0);
  config.max_task_attempts = 1;

  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kBitFlip;
  plan.op = 1;
  plan.bit = 17;
  FaultEnv env(IoEnv::Default(), plan);
  auto dir = TempDir::Create("flip-budget");
  ASSERT_TRUE(dir.ok());
  const std::string work_dir = dir->path().string();
  const PipelineResult result = RunPipeline(config, &env, work_dir);

  ASSERT_FALSE(result.status.ok());
  EXPECT_TRUE(result.status.IsCorruption()) << result.status.ToString();
  EXPECT_EQ(FilesIn(work_dir), 0u);
}

// ------------------------------------------------- fetch-shuffle chaos

/// Counters that record the fetch work itself rather than the data:
/// retries and wait time move with injected transport faults, and the
/// wire byte count moves with how much a failed attempt re-fetched.
std::map<std::string, uint64_t> StripFetchCounters(
    std::map<std::string, uint64_t> counters) {
  counters.erase(kShuffleFetchBytes);
  counters.erase(kFetchRetries);
  counters.erase(kFetchWaitMs);
  return counters;
}

/// The transport-fault sweep: fetch-shuffle on, with every wire byte
/// flowing through a seeded FaultTransport (via the override seam). Each
/// seeded drop/truncate/bit-flip must either be absorbed (request retry
/// or map-attempt retry) with output and data counters identical to the
/// fault-free fetch run, or fail the job cleanly — never corrupt output,
/// never orphan clone files. Transit CRCs turn silent bit flips into
/// clean request failures, so the bit-flip arm exercises the frame CRC.
TEST(ChaosTest, FetchTransportFaultsUpholdTheDichotomy) {
  struct FetchSweepConfig {
    bool compress;
    uint32_t merge_factor;
  };
  constexpr FetchSweepConfig kFetchConfigs[] = {
      {true, 2},
      {false, 0},
  };
  constexpr uint64_t kFetchSeedsPerConfig = 60;  // 120 seeds total.

  for (size_t c = 0; c < std::size(kFetchConfigs); ++c) {
    JobConfig config = ChaosConfig(kFetchConfigs[c].compress,
                                   kFetchConfigs[c].merge_factor);
    config.fetch_shuffle = true;

    auto baseline_dir = TempDir::Create("fetch-chaos-baseline");
    ASSERT_TRUE(baseline_dir.ok());
    const PipelineResult baseline =
        RunPipeline(config, nullptr, baseline_dir->path().string());
    ASSERT_TRUE(baseline.status.ok()) << baseline.status.ToString();
    const auto baseline_counters =
        StripFetchCounters(StripRecoveryCounters(baseline.counters));

    for (uint64_t i = 0; i < kFetchSeedsPerConfig; ++i) {
      const uint64_t seed = c * 100003 + i;
      const net::TransportFaultPlan plan =
          net::TransportFaultPlan::FromSeed(seed);
      net::InProcTransport base_transport;
      net::FaultTransport transport(&base_transport, plan);
      JobConfig faulty = config;
      faulty.shuffle_transport_override = &transport;

      auto dir = TempDir::Create("fetch-chaos");
      ASSERT_TRUE(dir.ok());
      const std::string work_dir = dir->path().string();
      const PipelineResult result = RunPipeline(faulty, nullptr, work_dir);

      const std::string label =
          "seed=" + std::to_string(seed) + " plan=" + plan.ToString() +
          " compress=" + std::to_string(kFetchConfigs[c].compress) +
          " merge_factor=" +
          std::to_string(kFetchConfigs[c].merge_factor);
      if (result.status.ok()) {
        EXPECT_EQ(result.output_bytes, baseline.output_bytes) << label;
        EXPECT_EQ(StripFetchCounters(StripRecoveryCounters(result.counters)),
                  baseline_counters)
            << label;
      } else {
        EXPECT_TRUE(transport.fault_fired())
            << label << ": failed without the fault firing: "
            << result.status.ToString();
      }
      EXPECT_EQ(FilesIn(work_dir), 0u)
          << label << " status=" << result.status.ToString();
      if (!transport.fault_fired()) {
        EXPECT_TRUE(result.status.ok()) << label;
      }
    }
  }
}

/// The fetch-mode acceptance scenario: the *origin* run is bit-flipped at
/// write time (FaultEnv, not the transport), so the server serves the
/// corrupt bytes under valid transit CRCs and the clone lands corrupt.
/// The reducer's integrity check then names the clone, blame must map
/// back through the clone registry to the producing map task, and
/// re-execution (re-publish + re-fetch) must repair it — the chain that
/// makes fetch failures equivalent to local corruption.
TEST(ChaosTest, CorruptFetchedRunTriggersProducerReexecution) {
  JobConfig config = ChaosConfig(/*compress=*/true, /*merge_factor=*/0);
  config.fetch_shuffle = true;
  config.max_task_attempts = 2;

  auto baseline_dir = TempDir::Create("fetch-flip-baseline");
  ASSERT_TRUE(baseline_dir.ok());
  const PipelineResult baseline =
      RunPipeline(config, nullptr, baseline_dir->path().string());
  ASSERT_TRUE(baseline.status.ok());

  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kBitFlip;
  plan.op = 1;  // First written buffer: map task 0's first committed run.
  plan.bit = 17;
  FaultEnv env(IoEnv::Default(), plan);
  auto dir = TempDir::Create("fetch-flip");
  ASSERT_TRUE(dir.ok());
  const std::string work_dir = dir->path().string();
  const PipelineResult result = RunPipeline(config, &env, work_dir);

  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(env.fault_fired());
  EXPECT_GE(result.counters.at(kMapReexecutions), 1u);
  EXPECT_GE(result.counters.at(kCorruptRunsRecovered), 1u);
  EXPECT_EQ(result.output_bytes, baseline.output_bytes);
  EXPECT_EQ(StripFetchCounters(StripRecoveryCounters(result.counters)),
            StripFetchCounters(StripRecoveryCounters(baseline.counters)));
  EXPECT_EQ(FilesIn(work_dir), 0u);
}

// ----------------------------------------------------- FaultEnv mechanics

TEST(ChaosTest, FaultPlansAreDeterministicAndSingleShot) {
  for (uint64_t seed = 0; seed < 64; ++seed) {
    const FaultPlan a = FaultPlan::FromSeed(seed);
    const FaultPlan b = FaultPlan::FromSeed(seed);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.bit, b.bit);
    EXPECT_NE(a.kind, FaultPlan::Kind::kNone);
    EXPECT_GE(a.op, 1u);
  }
  // A plan fires at most once even when the trigger index is crossed by
  // many operations.
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kWriteError;
  plan.op = 1;
  FaultEnv env(IoEnv::Default(), plan);
  auto dir = TempDir::Create("single-shot");
  ASSERT_TRUE(dir.ok());
  const std::string path = (dir->path() / "run").string();
  {
    SpillWriter::Options options;
    options.env = &env;
    SpillWriter writer(path, options);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.Append("k", "v").ok());  // Buffered; no I/O yet.
    EXPECT_FALSE(writer.Close().ok());          // Flush hits the fault.
  }
  EXPECT_TRUE(env.fault_fired());
  // Second writer against the same env: the plan is spent, I/O passes.
  {
    SpillWriter::Options options;
    options.env = &env;
    SpillWriter writer(path, options);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.Append("k", "v").ok());
    EXPECT_TRUE(writer.Close().ok()) << "plan must fire exactly once";
  }
}

TEST(ChaosTest, WriteFaultsLeaveNothingAtTheCommittedPath) {
  const FaultPlan::Kind kinds[] = {
      FaultPlan::Kind::kWriteError,
      FaultPlan::Kind::kShortWrite,
      FaultPlan::Kind::kCommitError,
      FaultPlan::Kind::kRenameError,
  };
  for (const FaultPlan::Kind kind : kinds) {
    FaultPlan plan;
    plan.kind = kind;
    plan.op = 1;
    FaultEnv env(IoEnv::Default(), plan);
    auto dir = TempDir::Create("write-fault");
    ASSERT_TRUE(dir.ok());
    const std::string path = (dir->path() / "run").string();
    SpillWriter::Options options;
    options.env = &env;
    SpillWriter writer(path, options);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.Append("key", "value").ok());
    const Status st = writer.Close();
    const std::string label = std::string("kind=") +
                              FaultPlan::KindName(kind);
    EXPECT_FALSE(st.ok()) << label;
    EXPECT_TRUE(env.fault_fired()) << label;
    // The error names the staged file and the injected operation.
    EXPECT_NE(st.message().find("injected"), std::string::npos)
        << label << ": " << st.ToString();
    // Commit protocol: no committed file, no leftover temp file.
    EXPECT_FALSE(std::filesystem::exists(path)) << label;
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp")) << label;
  }
}

TEST(ChaosTest, ReadFaultSurfacesAsIoErrorNamingTheFile) {
  auto dir = TempDir::Create("read-fault");
  ASSERT_TRUE(dir.ok());
  const std::string path = (dir->path() / "run").string();
  uint64_t length = 0;
  {
    SpillWriter writer(path);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.Append("key", "value").ok());
    length = writer.bytes_written();
    ASSERT_TRUE(writer.Close().ok());
  }
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kReadError;
  plan.op = 1;
  FaultEnv env(IoEnv::Default(), plan);
  FileRecordReader reader(path, 0, length,
                          FileRecordReader::kDefaultBufferBytes,
                          RunFormat::kRawRecords, &env);
  EXPECT_FALSE(reader.Next());
  const Status st = reader.status();
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_NE(st.message().find(path), std::string::npos) << st.ToString();
  EXPECT_TRUE(env.fault_fired());
}

TEST(ChaosTest, BitFlipIsSilentOnWriteAndCaughtByChecksum) {
  auto dir = TempDir::Create("bit-flip");
  ASSERT_TRUE(dir.ok());
  const std::string path = (dir->path() / "run").string();
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kBitFlip;
  plan.op = 1;
  plan.bit = 3;
  FaultEnv env(IoEnv::Default(), plan);
  SpillWriter::Options options;
  options.checksum = true;
  options.env = &env;
  SpillWriter writer(path, options);
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(writer.Append("key", "value").ok());
  // The flip is *silent*: the write succeeds and the run commits.
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_TRUE(env.fault_fired());
  ASSERT_TRUE(std::filesystem::exists(path));
  // The writer's running CRC covers the logical bytes, the file holds the
  // flipped ones: verification must refuse the run and name it.
  const Status st = VerifySpillFileCrc32(path, writer.crc32());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find(path), std::string::npos) << st.ToString();
}

TEST(ChaosTest, TableSaveLoadUpholdsTheDichotomy) {
  MemoryTable<std::string, uint64_t> typed;
  for (uint64_t i = 0; i < 50; ++i) {
    typed.Add("key" + std::to_string(i), i);
  }
  const RecordTable table = EncodeTable(typed);

  // Write fault: Save fails cleanly, nothing at the path.
  {
    auto dir = TempDir::Create("table-write-fault");
    ASSERT_TRUE(dir.ok());
    const std::string path = (dir->path() / "table").string();
    FaultPlan plan;
    plan.kind = FaultPlan::Kind::kWriteError;
    plan.op = 1;
    FaultEnv env(IoEnv::Default(), plan);
    EXPECT_FALSE(table.Save(path, /*compress=*/true, &env).ok());
    EXPECT_EQ(FilesIn(dir->path().string()), 0u);
  }
  // Silent bit flip during Save: the compressed boundary file's block
  // CRCs surface it as Corruption at Load — never as wrong records.
  {
    auto dir = TempDir::Create("table-flip");
    ASSERT_TRUE(dir.ok());
    const std::string path = (dir->path() / "table").string();
    FaultPlan plan;
    plan.kind = FaultPlan::Kind::kBitFlip;
    plan.op = 1;
    plan.bit = 100;
    FaultEnv env(IoEnv::Default(), plan);
    ASSERT_TRUE(table.Save(path, /*compress=*/true, &env).ok());
    EXPECT_TRUE(env.fault_fired());
    RecordTable loaded;
    const Status st = RecordTable::Load(path, &loaded);
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  }
  // Read fault at Load: clean IOError, and a fault-free retry succeeds
  // against the intact file.
  {
    auto dir = TempDir::Create("table-read-fault");
    ASSERT_TRUE(dir.ok());
    const std::string path = (dir->path() / "table").string();
    ASSERT_TRUE(table.Save(path).ok());
    FaultPlan plan;
    plan.kind = FaultPlan::Kind::kReadError;
    plan.op = 1;
    FaultEnv env(IoEnv::Default(), plan);
    RecordTable loaded;
    EXPECT_FALSE(RecordTable::Load(path, &loaded, &env).ok());
    ASSERT_TRUE(RecordTable::Load(path, &loaded).ok());
    EXPECT_EQ(loaded.num_records(), table.num_records());
  }
}

}  // namespace
}  // namespace ngram::mr
