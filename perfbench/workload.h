// The benchmark's workloads and its batch stage: one run of the pipeline an
// `ngram_tool stats` user waits for, corpus file to statistics file, timed
// call by call into the text and core layers.
#pragma once

#include <cstdint>
#include <string>

#include "core/options.h"
#include "core/stats.h"
#include "mapreduce/metrics.h"
#include "text/corpus.h"
#include "trace.h"

namespace perfbench {

/// Which stage a workload stresses; it decides what setup_s measures.
enum class Stage {
  kBatch,  // setup_s = the first batch run in a fresh process.
  kServe,  // setup_s = shard build + service open in a fresh process.
};

struct Workload {
  const char* name;
  Stage stage;
  bool clueweb_like;  // CW-like corpus; otherwise NYT-like.
  uint64_t docs;
  ngram::Method method;
  uint64_t tau;
  uint32_t sigma;  // 0 = unbounded.
  size_t sort_buffer_bytes;
  size_t reducer_memory_budget_bytes;
  /// Share of the measured seconds spent on warm batch runs; the rest
  /// drives the serving stage.
  double batch_share;
  /// Block cache capacity of the serving stage, as a share of the decoded
  /// blocks of the table served.
  double cache_share;
};

/// The workload named `name`, or nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);
/// Comma-separated list of the workload names (for usage messages).
std::string WorkloadNames();

/// The corpus a workload runs on, generated from `seed`.
ngram::Corpus GenerateWorkloadCorpus(const Workload& workload, uint64_t seed);

/// Everything one batch run yields.
struct BatchRun {
  bool ok = false;
  std::string error;
  double wall_s = 0;      // ReadCorpusBinary start to WriteStatsBinary end.
  double compute_ms = 0;  // ComputeNgramStatistics alone.
  double cpu_s = 0;       // Process CPU time during the compute call.
  uint64_t minor_faults = 0;  // Process minor faults during the compute.
  ngram::mr::RunMetrics metrics;
  ngram::NgramStatistics stats;
  uint64_t digest = 0;           // StatsDigest of `stats`.
  uint64_t leftover_files = 0;   // Files left in work_dir afterwards.
};

/// Reads `corpus_path`, builds the input context, computes statistics and
/// writes them to `stats_path`, recording one span per layer call when
/// `tracer` is set. Afterwards (outside the timed region) digests the
/// output, counts the files left in `work_dir` and empties it.
BatchRun RunBatchOnce(const Workload& workload,
                      const std::string& corpus_path,
                      const std::string& stats_path,
                      const std::string& work_dir, Tracer* tracer,
                      uint64_t run_id);

/// Regular files below `dir`, recursively (0 when it does not exist).
uint64_t CountFiles(const std::string& dir);

}  // namespace perfbench
