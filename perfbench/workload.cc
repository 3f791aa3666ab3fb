#include "workload.h"

#include <sys/resource.h>

#include <filesystem>
#include <system_error>
#include <utility>

#include "core/runner.h"
#include "core/stats_io.h"
#include "corpus/synthetic.h"
#include "oracle.h"
#include "text/corpus_io.h"

namespace perfbench {

namespace {

// Every workload also serves the table it computes; on serve-zipf that is
// the stage the workload is for, so it gets most of the measured time.
// The batch workloads serve from block caches that hold every block
// (the hit path); serve-zipf's caches hold 0.7 of them, so that about nine
// in ten block lookups hit: the median Count is served from the cache and
// its 99th percentile fetches and decodes a block.
constexpr double kAllBlocks = 1.25;
constexpr Workload kWorkloads[] = {
    // NAIVE with a 256 KiB sort buffer: sort, spill and merge carry the
    // job.
    {"naive-spill", Stage::kBatch, false, 6000, ngram::Method::kNaive, 10, 5,
     256 << 10, 256ULL << 20, 0.5, kAllBlocks},
    // APRIORI-INDEX: five chained jobs, index joins, and posting buffers
    // pushed into the KV store by a 1 KiB reducer budget.
    {"apriori-index-chain", Stage::kBatch, true, 8000,
     ngram::Method::kAprioriIndex, 20, 5, 64ULL << 20, 1024, 0.5, kAllBlocks},
    // Serving: Zipf queries over 450k SUFFIX-sigma n-grams at tau = 2.
    {"serve-zipf", Stage::kServe, false, 6000, ngram::Method::kSuffixSigma,
     2, 5, 64ULL << 20, 256ULL << 20, 0.25, 0.7},
};

double CpuSeconds(const rusage& usage) {
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

// Job options of a workload's batch run; spills and KV stores go to
// `work_dir`, and the modelled per-job overhead is forced to 0.
ngram::NgramJobOptions BatchOptions(const Workload& workload,
                                    const std::string& work_dir) {
  ngram::NgramJobOptions options;
  options.method = workload.method;
  options.tau = workload.tau;
  options.sigma = workload.sigma;
  options.num_reducers = 8;
  options.map_slots = 4;
  options.reduce_slots = 4;
  options.merge_factor = 16;
  options.sort_buffer_bytes = workload.sort_buffer_bytes;
  options.reducer_memory_budget_bytes = workload.reducer_memory_budget_bytes;
  options.job_overhead_ms = 0.0;
  options.work_dir = work_dir;
  return options;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) {
      return &workload;
    }
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const Workload& workload : kWorkloads) {
    names += names.empty() ? "" : ",";
    names += workload.name;
  }
  return names;
}

ngram::Corpus GenerateWorkloadCorpus(const Workload& workload,
                                     uint64_t seed) {
  return ngram::GenerateSyntheticCorpus(
      workload.clueweb_like ? ngram::ClueWebLikeOptions(workload.docs, seed)
                            : ngram::NytLikeOptions(workload.docs, seed));
}

uint64_t CountFiles(const std::string& dir) {
  std::error_code ec;
  uint64_t files = 0;
  for (std::filesystem::recursive_directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      ++files;
    }
  }
  return files;
}

BatchRun RunBatchOnce(const Workload& workload,
                      const std::string& corpus_path,
                      const std::string& stats_path,
                      const std::string& work_dir, Tracer* tracer,
                      uint64_t run_id) {
  BatchRun result;
  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);
  const ngram::NgramJobOptions options = BatchOptions(workload, work_dir);

  ngram::Corpus corpus;
  ngram::CorpusContext ctx;
  ngram::Result<ngram::NgramRun> run = ngram::Status::Internal("not run");
  ngram::Status status;
  {
    ScopedSpan run_span(tracer, "batch.run", run_id);
    const int64_t begin = NowNs();
    {
      ScopedSpan span(tracer, "text.ReadCorpusBinary", run_id);
      status = ngram::ReadCorpusBinary(corpus_path, &corpus);
    }
    if (status.ok()) {
      {
        ScopedSpan span(tracer, "core.BuildCorpusContext", run_id);
        ctx = ngram::BuildCorpusContext(corpus);
      }
      rusage before{};
      rusage after{};
      getrusage(RUSAGE_SELF, &before);
      const int64_t compute_begin = NowNs();
      {
        ScopedSpan span(tracer, "core.ComputeNgramStatistics", run_id);
        run = ngram::ComputeNgramStatistics(ctx, options);
      }
      result.compute_ms = static_cast<double>(NowNs() - compute_begin) / 1e6;
      getrusage(RUSAGE_SELF, &after);
      result.cpu_s = CpuSeconds(after) - CpuSeconds(before);
      result.minor_faults =
          static_cast<uint64_t>(after.ru_minflt - before.ru_minflt);
      status = run.status();
      if (status.ok()) {
        ScopedSpan span(tracer, "core.WriteStatsBinary", run_id);
        status = ngram::WriteStatsBinary(run->stats, stats_path);
      }
    }
    result.wall_s = static_cast<double>(NowNs() - begin) / 1e9;
  }
  result.leftover_files = CountFiles(work_dir);
  for (const auto& entry : std::filesystem::directory_iterator(work_dir, ec)) {
    std::filesystem::remove_all(entry.path(), ec);
  }
  if (!status.ok()) {
    result.error = status.ToString();
    return result;
  }
  result.ok = true;
  result.metrics = std::move(run->metrics);
  result.stats = std::move(run->stats);
  result.digest = StatsDigest(&result.stats);
  return result;
}

}  // namespace perfbench
