// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-root <dir> [--commit <id>] [--source-digest <hex>]
//
// One process runs one workload at one seed. It generates the workload's
// corpus from the seed, computes a reference table with an in-memory
// method of its own (oracle.h), and then measures the two stages a user
// of the library waits on:
//
//   batch   ReadCorpusBinary -> BuildCorpusContext ->
//           ComputeNgramStatistics -> WriteStatsBinary, repeated warm;
//   serving BuildServingShards -> StatsService::Open, then a closed loop
//           of Count / TopKCompletions / SentencePerplexity queries.
//
// Set-up is measured in fresh child processes (the same binary with
// --child), because the first run in a process is the one every CLI user
// pays. Every output is checked: each batch run against the reference,
// every served answer against the reference's answer. A wrong output is a
// failure; any failure makes the exit code 1.
//
// --trace 0 prints the end-to-end metrics; --trace 1 records a span around
// every layer call, derives the per-layer metrics from the spans and the
// job counters, and reports how much slower traced runs were. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. The line before it ("RECORD {...}") is the full run record
// with its fingerprint, which is also written under <work-root>/results.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "core/stats_io.h"
#include "mapreduce/counters.h"
#include "oracle.h"
#include "serve/serving_builder.h"
#include "serve/stats_service.h"
#include "serving.h"
#include "stats_util.h"
#include "text/corpus_io.h"
#include "trace.h"
#include "workload.h"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace mr = ngram::mr;

// Closed-loop clients, each with a service of its own. Two clients on one
// service met on its block cache's lock, and how often depended on where
// the scheduler put the two threads, which moved the Count p99 by a third
// between runs.
constexpr int kClientThreads = 2;
// Measured rounds; each runs set-up processes, warm batch runs and two
// serving slices.
constexpr int kRounds = 3;
// Set-up processes per round. A serving set-up takes a fraction of a
// second, so serve-zipf measures three per round.
constexpr int kBatchSetupsPerRound = 1;
constexpr int kServeSetupsPerRound = 3;
constexpr int kShards = 4;
constexpr size_t kMinLatencySamples = 1000;  // p99 rests on >= 10 beyond.
constexpr int kHeadTopKRepeats = 5;
constexpr double kWarmupShare = 0.1;  // Of the serving time.
constexpr size_t kQueriesPerThreadPerSecond = 100000;  // Stream length.
constexpr size_t kMaxTracedQuerySpansWritten = 200000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_root = ".bench_build";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  bool child = false;
  std::string child_dir;
  int child_index = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--child") {
      args->child = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-root") {
      args->work_root = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else if (flag == "--dir") {
      args->child_dir = value;
    } else if (flag == "--index") {
      args->child_index = std::atoi(value.c_str());
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

// ------------------------------------------------------------ JSON output --

std::string Number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + Quote(key) + ": " + json;
    return *this;
  }
  JsonObject& Num(const std::string& key, double value) {
    return Raw(key, Number(value));
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Raw(key, Quote(value));
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string JsonList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ", ") + items[i];
  }
  return out + "]";
}

std::string NumberList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + Number(values[i]);
  }
  return out + "]";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ---------------------------------------------------------- process info --

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  double one = 0, five = 0, fifteen = 0;
  in >> one >> five >> fifteen;
  return NumberList({one, five, fifteen});
}

// NGRAM_* variables in the environment. The benchmark reads none of them;
// they are recorded so that no number silently depends on one.
std::string NgramEnvironment() {
  JsonObject env;
  for (char** var = environ; *var != nullptr; ++var) {
    const std::string entry = *var;
    if (entry.rfind("NGRAM_", 0) == 0) {
      const size_t eq = entry.find('=');
      env.Str(entry.substr(0, eq),
              eq == std::string::npos ? "" : entry.substr(eq + 1));
    }
  }
  return env.str();
}

// --------------------------------------------------------------- serving --

struct Serving {
  // One per client; the first is the one whose opening is timed.
  std::vector<std::unique_ptr<ngram::serve::StatsService>> services;
  double build_ms = 0;
  double open_ms = 0;
  uint64_t shard_bytes = 0;
  uint64_t decoded_bytes = 0;  // All blocks, as the cache charges them.
  std::string error;
};

uint64_t DirectoryBytes(const std::string& dir) {
  std::error_code ec;
  uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      bytes += entry.file_size(ec);
    }
  }
  return bytes;
}

// Counts every `stride`-th stored n-gram; false on a wrong count. A block
// holds far more than 64 records, so a stride of 64 reads every block.
bool TouchBlocks(const ngram::serve::StatsService& service,
                 const ngram::NgramStatistics& stats, size_t stride) {
  for (size_t i = 0; i < stats.entries.size(); i += stride) {
    auto count = service.Count(stats.entries[i].first);
    if (!count.ok() || *count != stats.entries[i].second) {
      return false;
    }
  }
  return true;
}

// Builds shards for `stats` in `dir` and opens `count` services over them,
// each with a block cache that holds `cache_share` of the decoded blocks.
// The decoded size is measured (untimed) by reading every block through an
// unbounded cache, because cached blocks are decoded and larger than on
// disk. Only the first opening is timed.
Serving OpenServing(const ngram::NgramStatistics& stats,
                    const std::string& dir, double cache_share, int count,
                    Tracer* tracer) {
  Serving serving;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  ngram::serve::BuildServingOptions build_options;
  build_options.num_shards = kShards;
  int64_t begin = NowNs();
  ngram::Status status;
  {
    ScopedSpan span(tracer, "serve.BuildServingShards", 0);
    status = ngram::serve::BuildServingShards(stats, dir, build_options);
  }
  serving.build_ms = static_cast<double>(NowNs() - begin) / 1e6;
  if (!status.ok()) {
    serving.error = status.ToString();
    return serving;
  }
  serving.shard_bytes = DirectoryBytes(dir);
  ngram::serve::ServingOptions options;
  {
    ngram::serve::ServingOptions unbounded;
    unbounded.cache_bytes = SIZE_MAX;
    auto sizing = ngram::serve::StatsService::Open(dir, unbounded);
    if (!sizing.ok() || !TouchBlocks(**sizing, stats, 16)) {
      serving.error = "sizing the block cache failed";
      return serving;
    }
    serving.decoded_bytes = (*sizing)->CacheStats().charged_bytes;
    options.cache_bytes = static_cast<size_t>(
        cache_share * static_cast<double>(serving.decoded_bytes));
  }
  begin = NowNs();
  ngram::Result<std::unique_ptr<ngram::serve::StatsService>> opened =
      ngram::Status::Internal("not opened");
  {
    ScopedSpan span(tracer, "serve.StatsService::Open", 0);
    opened = ngram::serve::StatsService::Open(dir, options);
  }
  serving.open_ms = static_cast<double>(NowNs() - begin) / 1e6;
  for (int i = 0; opened.ok(); ++i) {
    serving.services.push_back(std::move(*opened));
    if (i + 1 == count) {
      return serving;
    }
    opened = ngram::serve::StatsService::Open(dir, options);
  }
  serving.error = opened.status().ToString();
  serving.services.clear();
  return serving;
}

// ----------------------------------------------------- set-up processes --

// A child measures one set-up in a fresh process and prints
// "CHILD ok=<0|1> setup_s=<s> rss_mb=<MB> digest=<d> bytes=<b>
//  records=<r> error=<text>".
int RunChild(const Args& args, const Workload& workload) {
  const std::string dir =
      args.child_dir + "/child-" + std::to_string(args.child_index);
  bool ok = false;
  double setup_s = 0;
  uint64_t digest = 0, bytes = 0, records = 0;
  std::string error;
  if (workload.stage == Stage::kBatch) {
    BatchRun run = RunBatchOnce(workload, args.child_dir + "/corpus.ngc",
                                dir + "/stats.ngs", dir + "/work", nullptr, 0);
    ok = run.ok;
    error = run.error;
    setup_s = run.wall_s;
    digest = run.digest;
    bytes = run.metrics.map_output_bytes();
    records = run.metrics.map_output_records();
  } else {
    ngram::NgramStatistics stats;
    ngram::Status status =
        ngram::ReadStatsBinary(args.child_dir + "/reference.ngs", &stats);
    if (status.ok()) {
      Serving serving = OpenServing(stats, dir + "/serving",
                                    workload.cache_share, 1, nullptr);
      setup_s = (serving.build_ms + serving.open_ms) / 1e3;
      error = serving.error;
      ok = !serving.services.empty();
      // The peak RSS includes a cache filled by one pass over the blocks.
      stats.SortCanonical();
      ok = ok && TouchBlocks(*serving.services[0], stats, 64);
      digest = StatsDigest(&stats);
    } else {
      error = status.ToString();
    }
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  for (char& c : error) {
    c = c == '\n' ? ' ' : c;
  }
  std::printf("CHILD ok=%d setup_s=%s rss_mb=%s digest=%llu bytes=%llu "
              "records=%llu error=%s\n",
              ok ? 1 : 0, Number(setup_s).c_str(), Number(PeakRssMb()).c_str(),
              static_cast<unsigned long long>(digest),
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(records), error.c_str());
  return ok ? 0 : 1;
}

struct ChildResult {
  bool ok = false;
  double setup_s = 0;
  double rss_mb = 0;
  uint64_t digest = 0;
  uint64_t bytes = 0;
  uint64_t records = 0;
  std::string error;
};

// Runs this binary with --child and waits for it.
ChildResult SpawnChild(const Args& args, const std::string& dir, int index) {
  ChildResult result;
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) {
    result.error = "cannot resolve /proc/self/exe";
    return result;
  }
  exe[len] = '\0';
  const std::string seed = std::to_string(args.seed);
  const std::string child_index = std::to_string(index);
  std::vector<std::string> argv_strings = {
      exe, "--child", "--workload", args.workload, "--seed", seed,
      "--dir", dir, "--index", child_index};
  std::vector<char*> child_argv;
  for (auto& s : argv_strings) {
    child_argv.push_back(s.data());
  }
  child_argv.push_back(nullptr);

  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    result.error = "pipe failed";
    return result;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[0]);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, exe, &actions, nullptr, child_argv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  close(pipe_fds[1]);
  std::string output;
  if (rc == 0) {
    char buf[4096];
    ssize_t n = 0;
    while ((n = read(pipe_fds[0], buf, sizeof(buf))) > 0) {
      output.append(buf, static_cast<size_t>(n));
    }
  }
  close(pipe_fds[0]);
  if (rc != 0) {
    result.error = std::string("posix_spawn: ") + std::strerror(rc);
    return result;
  }
  int wait_status = 0;
  while (waitpid(pid, &wait_status, 0) < 0 && errno == EINTR) {
  }
  const size_t at = output.rfind("CHILD ");
  if (at == std::string::npos) {
    result.error = "child printed no result";
    return result;
  }
  std::istringstream fields(output.substr(at + 6));
  std::string field;
  std::map<std::string, std::string> values;
  while (fields >> field) {
    const size_t eq = field.find('=');
    if (eq != std::string::npos) {
      values[field.substr(0, eq)] = field.substr(eq + 1);
    }
  }
  result.ok = values["ok"] == "1" && WIFEXITED(wait_status) &&
              WEXITSTATUS(wait_status) == 0;
  result.setup_s = std::atof(values["setup_s"].c_str());
  result.rss_mb = std::atof(values["rss_mb"].c_str());
  result.digest = std::strtoull(values["digest"].c_str(), nullptr, 10);
  result.bytes = std::strtoull(values["bytes"].c_str(), nullptr, 10);
  result.records = std::strtoull(values["records"].c_str(), nullptr, 10);
  const size_t error_at = output.find("error=", at);
  if (!result.ok) {
    result.error = error_at == std::string::npos
                       ? "child failed"
                       : output.substr(error_at + 6);
  }
  return result;
}

// ---------------------------------------------------------- batch layer --

// Layer figures of one batch run, from its counters and timings.
struct BatchLayers {
  double map_phase_ms = 0, reduce_phase_ms = 0;
  double spill_files = 0, spilled_records = 0;
  double map_merge_passes = 0, reduce_merge_passes = 0;
  double intermediate_merge_bytes = 0, run_bytes_written = 0;
  double run_compression_ratio = 0, reduce_skew = 0, cpu_util = 0;
  double bookkeeping_peak_entries = 0, jobs = 0, job_gap_ms = 0;
  double map_input_bytes = 0, combine_ratio = 0, task_retries = 0;
  double leftover_files = 0, minor_faults = 0;
};

BatchLayers LayersOf(const BatchRun& run) {
  const mr::RunMetrics& m = run.metrics;
  const auto total = [&](const char* name) {
    return static_cast<double>(m.TotalCounter(name));
  };
  BatchLayers l;
  l.map_phase_ms = m.total_map_phase_ms();
  l.reduce_phase_ms = m.total_reduce_phase_ms();
  l.spill_files = total(mr::kSpillFiles);
  l.spilled_records = total(mr::kSpilledRecords);
  l.map_merge_passes = total(mr::kMapMergePasses);
  l.reduce_merge_passes = total(mr::kReduceMergePasses);
  l.intermediate_merge_bytes = total(mr::kIntermediateMergeBytes);
  l.run_bytes_written = total(mr::kRunBytesWritten);
  l.run_compression_ratio = l.run_bytes_written > 0
                                ? total(mr::kRunBytesRaw) / l.run_bytes_written
                                : 0;
  // Critical-path reduce input over balanced reduce input, over all jobs.
  double max_input = 0, mean_input = 0;
  for (const mr::JobMetrics& job : m.jobs) {
    max_input += static_cast<double>(job.Counter(mr::kReduceInputRecordsMax));
    mean_input +=
        static_cast<double>(job.Counter(mr::kReduceInputRecords)) / 8.0;
  }
  l.reduce_skew = mean_input > 0 ? max_input / mean_input : 0;
  l.cpu_util = run.compute_ms > 0 ? run.cpu_s / (run.compute_ms / 1e3) : 0;
  for (const mr::JobMetrics& job : m.jobs) {
    l.bookkeeping_peak_entries =
        std::max(l.bookkeeping_peak_entries,
                 static_cast<double>(job.Counter(mr::kBookkeepingPeakEntries)));
  }
  l.jobs = m.num_jobs();
  l.job_gap_ms = run.compute_ms - m.total_wallclock_ms();
  l.map_input_bytes = total(mr::kMapInputBytes);
  const double combine_in = total(mr::kCombineInputRecords);
  l.combine_ratio =
      combine_in > 0 ? total(mr::kCombineOutputRecords) / combine_in : 0;
  l.task_retries = total(mr::kTaskRetries);
  l.leftover_files = static_cast<double>(run.leftover_files);
  l.minor_faults = static_cast<double>(run.minor_faults);
  return l;
}

// Median of one BatchLayers field over runs.
template <typename Field>
double MedianOf(const std::vector<BatchLayers>& layers, Field field) {
  std::vector<double> values;
  for (const BatchLayers& l : layers) {
    values.push_back(l.*field);
  }
  return Median(values);
}

// Per span name: median self time (ms) over its spans.
std::map<std::string, double> MedianSelfMs(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, std::vector<double>> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name].push_back(static_cast<double>(self[i]) / 1e6);
  }
  std::map<std::string, double> medians;
  for (auto& [name, values] : by_name) {
    medians[name] = Median(values);
  }
  return medians;
}

// One serving slice as JSON: per query type, [p50 us, p99 us, samples].
std::string SliceTails(const MixResult& slice) {
  const char* names[kQueryTypes] = {"count", "topk", "ppl"};
  JsonObject tails;
  for (int type = 0; type < kQueryTypes; ++type) {
    std::vector<double> sorted = slice.latency_us[type];
    std::sort(sorted.begin(), sorted.end());
    tails.Raw(names[type], NumberList({SortedQuantile(sorted, 0.5),
                                       SortedQuantile(sorted, 0.99),
                                       static_cast<double>(sorted.size())}));
  }
  return tails.str();
}

// ------------------------------------------------------------ benchmark --

struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // First few, for the log.

  void Record(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 10) {
        failures.push_back(what);
      }
    }
  }

  void RecordMix(const MixResult& mix, const std::string& what) {
    attempted += mix.attempted;
    failed += mix.failed;
    if (mix.failed > 0) {
      failures.push_back(
          what + ": " + std::to_string(mix.failed) +
          " wrong or failed queries (count " +
          std::to_string(mix.failed_by_type[kCount]) + ", topk " +
          std::to_string(mix.failed_by_type[kTopK]) + ", ppl " +
          std::to_string(mix.failed_by_type[kPerplexity]) + ")");
    }
  }
};

// Prints the failures and a result line without metrics; exit code 1.
int FailEarly(const Checks& checks, const std::string& dir) {
  for (const std::string& failure : checks.failures) {
    std::printf("  FAILED: %s\n", failure.c_str());
  }
  std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {}}\n",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed));
  std::error_code ec;
  fs::remove_all(dir, ec);
  return 1;
}

int RunBenchmark(const Args& args, const Workload& workload) {
  const int64_t process_begin = NowNs();
  const std::string load_before = LoadAverage();
  std::error_code ec;
  const std::string dir = args.work_root + "/work/" + workload.name + "-s" +
                          std::to_string(args.seed) + "-p" +
                          std::to_string(getpid());
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  fs::create_directories(args.work_root + "/results", ec);
  Checks checks;

  // Inputs and the reference: benchmark-side, outside every timing.
  const ngram::Corpus corpus = GenerateWorkloadCorpus(workload, args.seed);
  ngram::NgramStatistics reference =
      ReferenceCounts(corpus, workload.tau, workload.sigma);
  const uint64_t reference_digest = StatsDigest(&reference);
  const std::string corpus_path = dir + "/corpus.ngc";
  checks.Record(ngram::WriteCorpusBinary(corpus, corpus_path).ok(),
                "write corpus");
  if (workload.stage == Stage::kServe) {
    checks.Record(
        ngram::WriteStatsBinary(reference, dir + "/reference.ngs").ok(),
        "write reference stats");
  }
  const double inputs_s = static_cast<double>(NowNs() - process_begin) / 1e9;
  std::printf("perfbench %s seed=%llu trace=%d: %llu docs, %llu reference "
              "n-grams, inputs in %.2f s\n",
              workload.name, static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0,
              static_cast<unsigned long long>(corpus.docs.size()),
              static_cast<unsigned long long>(reference.size()), inputs_s);

  // Serving set-up over the reference table, which every checked batch run
  // must reproduce: shards, service, query streams, and a warm-up (one
  // pass over the blocks, then a short unrecorded mix) so that the cache
  // and the allocator reach their steady state before timing.
  sync();
  Tracer setup_tracer;
  Serving serving = OpenServing(reference, dir + "/serving",
                                workload.cache_share, kClientThreads,
                                args.trace ? &setup_tracer : nullptr);
  checks.Record(!serving.services.empty(), "open serving: " + serving.error);
  if (serving.services.empty()) {
    return FailEarly(checks, dir);
  }
  std::vector<const ngram::serve::StatsService*> services;
  for (const auto& service : serving.services) {
    services.push_back(service.get());
  }
  // Block cache counters summed over the services.
  const auto cache_stats = [&] {
    ngram::kv::BlockCacheStats sum;
    for (const auto* service : services) {
      const ngram::kv::BlockCacheStats one = service->CacheStats();
      sum.hits += one.hits;
      sum.misses += one.misses;
      sum.evictions += one.evictions;
    }
    return sum;
  };
  const double batch_budget_s = args.seconds * workload.batch_share;
  const double serve_budget_s = args.seconds - batch_budget_s;
  const QueryPools pools = MakeQueryPools(
      reference, corpus, args.seed, kClientThreads,
      static_cast<size_t>(std::ceil(serve_budget_s * kQueriesPerThreadPerSecond)));
  std::vector<size_t> cursors;
  for (const auto* service : services) {
    checks.Record(TouchBlocks(*service, reference, 64), "cache warm-up");
  }
  checks.RecordMix(RunMix(services, pools, &cursors,
                          kWarmupShare * serve_budget_s, 0, false),
                   "warm-up mix");

  // One unrecorded batch run, so that the measured runs are warm ones.
  {
    BatchRun run = RunBatchOnce(workload, corpus_path, dir + "/stats.ngs",
                                dir + "/work", nullptr, 0);
    checks.Record(run.ok && run.digest == reference_digest,
                  "warm-up batch run: " +
                      (run.ok ? std::string("output differs from the reference")
                              : run.error));
  }

  // Measured rounds. Each round runs set-up processes (untraced runs
  // only), a serving slice, warm batch runs for a third of the batch
  // share, and a second serving slice. Spreading every stage over the
  // whole run lets each sample the same mix of fast and slow host phases
  // rather than one end of the run. Traced batch runs alternate with
  // untraced ones.
  std::vector<ChildResult> children;
  std::vector<double> setup_s, rss_mb;
  Tracer batch_tracer;
  std::vector<double> wall_untraced, wall_traced;
  std::vector<BatchLayers> layers;
  uint64_t shuffle_bytes = 0, shuffle_records = 0;
  MixResult mix;
  std::vector<std::string> slice_tails;  // For the record.
  ngram::kv::BlockCacheStats cache_delta;
  const auto run_slice = [&](size_t min_samples) {
    const ngram::kv::BlockCacheStats before = cache_stats();
    MixResult slice =
        RunMix(services, pools, &cursors,
               serve_budget_s / (2 * kRounds), min_samples, args.trace);
    const ngram::kv::BlockCacheStats after = cache_stats();
    cache_delta.hits += after.hits - before.hits;
    cache_delta.misses += after.misses - before.misses;
    cache_delta.evictions += after.evictions - before.evictions;
    checks.RecordMix(slice, "mix");
    slice_tails.push_back(SliceTails(slice));
    mix.Merge(std::move(slice));
  };
  int run_index = 0;
  for (int round = 0; round < kRounds; ++round) {
    const int setups = workload.stage == Stage::kServe ? kServeSetupsPerRound
                                                        : kBatchSetupsPerRound;
    for (int i = 0; !args.trace && i < setups; ++i) {
      const int index = static_cast<int>(children.size());
      sync();
      children.push_back(SpawnChild(args, dir, index));
      const ChildResult& child = children.back();
      checks.Record(child.ok && child.digest == reference_digest,
                    "set-up process " + std::to_string(index) + ": " +
                        (child.ok ? "output differs from the reference"
                                  : child.error));
      setup_s.push_back(child.setup_s);
      rss_mb.push_back(child.rss_mb);
    }
    sync();
    run_slice(0);
    const int64_t round_begin = NowNs();
    for (int in_round = 0;; ++in_round, ++run_index) {
      const bool traced = args.trace && run_index % 2 == 1;
      sync();  // No write-back of earlier runs' files overlaps this run.
      BatchRun run = RunBatchOnce(workload, corpus_path, dir + "/stats.ngs",
                                  dir + "/work",
                                  traced ? &batch_tracer : nullptr,
                                  static_cast<uint64_t>(run_index));
      if (run_index == 0) {
        shuffle_bytes = run.metrics.map_output_bytes();
        shuffle_records = run.metrics.map_output_records();
      }
      // Every run, traced or not, must match the reference and shuffle
      // exactly what the first run shuffled.
      const bool same_counters =
          run.metrics.map_output_bytes() == shuffle_bytes &&
          run.metrics.map_output_records() == shuffle_records;
      checks.Record(run.ok && run.digest == reference_digest && same_counters,
                    "batch run " + std::to_string(run_index) + ": " +
                        (!run.ok ? run.error
                         : same_counters ? "output differs from the reference"
                                         : "shuffle counters differ"));
      (traced ? wall_traced : wall_untraced).push_back(run.wall_s);
      if (traced || !args.trace) {
        layers.push_back(LayersOf(run));
      }
      const double elapsed =
          static_cast<double>(NowNs() - round_begin) / 1e9;
      if (elapsed >= batch_budget_s / kRounds &&
          in_round + 1 >= (args.trace ? 2 : 1)) {
        ++run_index;
        break;
      }
    }
    sync();
    run_slice(0);
  }
  // A p99 needs ten samples beyond it: extend the mix where it has fewer.
  for (int extra = 0; extra < kRounds; ++extra) {
    bool enough = true;
    for (int type = 0; type < kQueryTypes; ++type) {
      enough = enough && mix.latency_us[type].size() >= kMinLatencySamples;
    }
    if (enough) {
      break;
    }
    run_slice(kMinLatencySamples);
  }

  // A fresh process shuffles exactly what the in-process runs shuffle.
  for (size_t i = 0; workload.stage == Stage::kBatch && i < children.size();
       ++i) {
    checks.Record(children[i].bytes == shuffle_bytes &&
                      children[i].records == shuffle_records,
                  "set-up process " + std::to_string(i) +
                      ": shuffle counters differ from the in-process runs");
  }

  std::vector<double> store_count_us, head_ms;
  double scanned_per_result = 0;
  if (args.trace) {
    const auto store = services[0]->store();
    store_count_us = RunStoreCounts(services, pools, serve_budget_s / 4);
    scanned_per_result = TopKScannedPerResult(*store, pools, cursors);
    // The empty-prefix top-k scans every unigram; it is timed apart from
    // the mix and checked against the reference's ten most frequent.
    std::vector<ngram::serve::Completion> expected;
    for (const auto& [seq, count] : reference.entries) {
      if (seq.size() == 1) {
        expected.push_back({seq[0], count});
      }
    }
    std::sort(expected.begin(), expected.end(),
              [](const auto& a, const auto& b) {
                return a.count != b.count ? a.count > b.count
                                          : a.term < b.term;
              });
    expected.resize(std::min(expected.size(), kTopKResults));
    for (int i = 0; i < kHeadTopKRepeats; ++i) {
      const int64_t begin = NowNs();
      auto head = services[0]->TopKCompletions({}, kTopKResults);
      head_ms.push_back(static_cast<double>(NowNs() - begin) / 1e6);
      checks.Record(head.ok() && *head == expected, "empty-prefix top-k");
    }
  }
  const std::string load_after = LoadAverage();

  // ---- metrics
  std::vector<Metric> metrics;
  TailSummary tails[kQueryTypes];
  for (int type = 0; type < kQueryTypes; ++type) {
    tails[type] = SummarizeTail(mix.latency_us[type]);
    checks.Record(tails[type].supports_p99,
                  "too few samples for a p99 of query type " +
                      std::to_string(type));
  }
  const double error_rate =
      checks.attempted == 0 ? 0
                            : static_cast<double>(checks.failed) /
                                  static_cast<double>(checks.attempted);
  const double wall_s = Median(wall_untraced);
  if (!args.trace) {
    metrics = {
        {"wall_s", wall_s, "s"},
        {"shuffle_bytes", static_cast<double>(shuffle_bytes), "bytes"},
        {"shuffle_records", static_cast<double>(shuffle_records), "count"},
        {"peak_rss_mb", Median(rss_mb), "MB"},
        {"setup_s", Median(setup_s), "s"},
        {"qps",
         mix.elapsed_s > 0 ? static_cast<double>(mix.attempted) / mix.elapsed_s
                           : 0,
         "1/s"},
        {"count_p50_us", tails[kCount].p50, "us"},
        {"count_p99_us", tails[kCount].p99, "us"},
        {"topk_p50_us", tails[kTopK].p50, "us"},
        {"topk_p99_us", tails[kTopK].p99, "us"},
        {"ppl_p50_us", tails[kPerplexity].p50, "us"},
        {"ppl_p99_us", tails[kPerplexity].p99, "us"},
    };
  } else {
    std::vector<Span> spans = batch_tracer.spans();
    AppendSpans(setup_tracer.spans(), &spans);
    const std::map<std::string, double> self_ms = MedianSelfMs(spans);
    const auto span_ms = [&](const char* name) {
      auto it = self_ms.find(name);
      return it == self_ms.end() ? 0.0 : it->second;
    };
    const TailSummary store_tail = SummarizeTail(store_count_us);
    const uint64_t lookups = cache_delta.hits + cache_delta.misses;
    metrics = {
        {"text.read_corpus_ms", span_ms("text.ReadCorpusBinary"), "ms"},
        {"core.build_context_ms", span_ms("core.BuildCorpusContext"), "ms"},
        {"core.write_stats_ms", span_ms("core.WriteStatsBinary"), "ms"},
        {"mapreduce.map_phase_ms", MedianOf(layers, &BatchLayers::map_phase_ms), "ms"},
        {"mapreduce.spill_files", MedianOf(layers, &BatchLayers::spill_files), "count"},
        {"mapreduce.spilled_records", MedianOf(layers, &BatchLayers::spilled_records), "count"},
        {"mapreduce.map_merge_passes", MedianOf(layers, &BatchLayers::map_merge_passes), "count"},
        {"mapreduce.reduce_merge_passes", MedianOf(layers, &BatchLayers::reduce_merge_passes), "count"},
        {"mapreduce.intermediate_merge_bytes", MedianOf(layers, &BatchLayers::intermediate_merge_bytes), "bytes"},
        {"mapreduce.run_bytes_written", MedianOf(layers, &BatchLayers::run_bytes_written), "bytes"},
        {"mapreduce.run_compression_ratio", MedianOf(layers, &BatchLayers::run_compression_ratio), "ratio"},
        {"mapreduce.reduce_phase_ms", MedianOf(layers, &BatchLayers::reduce_phase_ms), "ms"},
        {"mapreduce.reduce_skew", MedianOf(layers, &BatchLayers::reduce_skew), "ratio"},
        {"mapreduce.cpu_util", MedianOf(layers, &BatchLayers::cpu_util), "ratio"},
        {"core.bookkeeping_peak_entries", MedianOf(layers, &BatchLayers::bookkeeping_peak_entries), "count"},
        {"mapreduce.jobs", MedianOf(layers, &BatchLayers::jobs), "count"},
        {"mapreduce.job_gap_ms", MedianOf(layers, &BatchLayers::job_gap_ms), "ms"},
        {"mapreduce.map_input_bytes", MedianOf(layers, &BatchLayers::map_input_bytes), "bytes"},
        {"mapreduce.combine_ratio", MedianOf(layers, &BatchLayers::combine_ratio), "ratio"},
        {"mapreduce.task_retries", MedianOf(layers, &BatchLayers::task_retries), "count"},
        {"kvstore.leftover_files", MedianOf(layers, &BatchLayers::leftover_files), "count"},
        {"process.minor_faults", MedianOf(layers, &BatchLayers::minor_faults), "count"},
        {"serve.build_ms", span_ms("serve.BuildServingShards"), "ms"},
        {"serve.open_ms", span_ms("serve.StatsService::Open"), "ms"},
        {"serve.store_count_p50_us", store_tail.p50, "us"},
        {"serve.store_count_p99_us", store_tail.p99, "us"},
        {"kvstore.cache_hit_ratio",
         lookups > 0 ? static_cast<double>(cache_delta.hits) /
                           static_cast<double>(lookups)
                     : 0,
         "ratio"},
        {"kvstore.cache_misses", static_cast<double>(cache_delta.misses), "count"},
        {"kvstore.cache_evictions", static_cast<double>(cache_delta.evictions), "count"},
        {"serve.topk_scanned_per_result", scanned_per_result, "ratio"},
        {"serve.topk_head_ms", Median(head_ms), "ms"},
        {"error_rate", error_rate, "ratio"},
        {"trace.overhead_pct",
         wall_s > 0 ? (Median(wall_traced) - wall_s) / wall_s * 100 : 0, "%"},
    };
    // Keep every span in memory until here; write the batch and set-up
    // spans and the first query spans.
    std::vector<Span> written = spans;
    std::vector<Span> queries = mix.spans;
    if (queries.size() > kMaxTracedQuerySpansWritten) {
      queries.resize(kMaxTracedQuerySpansWritten);
    }
    AppendSpans(queries, &written);
    fs::create_directories(args.work_root + "/traces", ec);
    const std::string trace_path = args.work_root + "/traces/" +
                                   workload.name + "-seed" +
                                   std::to_string(args.seed) + ".tsv";
    checks.Record(WriteSpansTsv(written, trace_path), "write " + trace_path);
    for (const SpanTotals& totals : SummarizeSpans(spans)) {
      std::printf("  span %-30s n=%-6llu total %10.2f ms  self %10.2f ms\n",
                  totals.name.c_str(),
                  static_cast<unsigned long long>(totals.count),
                  totals.total_ms, totals.self_ms);
    }
  }

  // ---- human-readable lines, the run record, and the result line
  for (const Metric& m : metrics) {
    std::printf("  %-36s %s %s\n", m.name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
  }
  const char* type_names[kQueryTypes] = {"count", "topk", "ppl"};
  JsonObject latency;
  for (int type = 0; type < kQueryTypes; ++type) {
    const TailSummary& t = tails[type];
    std::printf("  %s latency: n=%zu p50 %s us, p%s %s us (%zu samples "
                "beyond)\n",
                type_names[type], t.samples, Number(t.p50).c_str(),
                Number(t.tail_percentile).c_str(),
                Number(t.tail_value).c_str(), t.beyond_tail);
    latency.Raw(type_names[type],
                JsonObject()
                    .Num("samples", static_cast<double>(t.samples))
                    .Num("p50_us", t.p50)
                    .Num("tail_percentile", t.tail_percentile)
                    .Num("tail_us", t.tail_value)
                    .Num("samples_beyond_tail",
                         static_cast<double>(t.beyond_tail))
                    .str());
  }
  for (const std::string& failure : checks.failures) {
    std::printf("  FAILED: %s\n", failure.c_str());
  }

  JsonObject metric_json;
  for (const Metric& m : metrics) {
    metric_json.Raw(m.name,
                    JsonObject().Num("value", m.value).Str("unit", m.unit).str());
  }
  const bool correct = checks.failed == 0;
  JsonObject result;
  result.Raw("correct", correct ? "true" : "false")
      .Num("attempted", static_cast<double>(checks.attempted))
      .Num("failed", static_cast<double>(checks.failed))
      .Raw("metrics", metric_json.str());

  JsonObject params;
  params.Str("corpus", workload.clueweb_like ? "CW-like" : "NYT-like")
      .Num("docs", static_cast<double>(workload.docs))
      .Str("method", ngram::MethodName(workload.method))
      .Num("tau", static_cast<double>(workload.tau))
      .Num("sigma", workload.sigma)
      .Num("sort_buffer_bytes", static_cast<double>(workload.sort_buffer_bytes))
      .Num("merge_factor", 16)
      .Num("reducer_memory_budget_bytes",
           static_cast<double>(workload.reducer_memory_budget_bytes))
      .Num("map_slots", 4)
      .Num("reduce_slots", 4)
      .Num("reducers", 8)
      .Num("job_overhead_ms", 0)
      .Num("shards", kShards)
      .Num("shard_bytes", static_cast<double>(serving.shard_bytes))
      .Num("decoded_block_bytes", static_cast<double>(serving.decoded_bytes))
      .Num("cache_share_of_decoded", workload.cache_share)
      .Num("reference_ngrams", static_cast<double>(reference.size()))
      .Num("reference_unigrams",
           static_cast<double>(std::count_if(
               reference.entries.begin(), reference.entries.end(),
               [](const auto& e) { return e.first.size() == 1; })));
  JsonObject protocol;
  protocol.Num("seconds", args.seconds)
      .Num("batch_seconds", batch_budget_s)
      .Num("serve_seconds", serve_budget_s)
      .Num("setup_processes", static_cast<double>(setup_s.size()))
      .Raw("setup_s", NumberList(setup_s))
      .Raw("setup_rss_mb", NumberList(rss_mb))
      .Raw("wall_s_untraced", NumberList(wall_untraced))
      .Raw("wall_s_traced", NumberList(wall_traced))
      .Num("first_run_over_warm",
           wall_s > 0 && !setup_s.empty() ? Median(setup_s) / wall_s : 0)
      .Str("client_loop", "closed")
      .Num("client_threads", kClientThreads)
      .Str("mix", "80% Count (10% absent keys), 15% TopKCompletions(k=10), "
                  "5% SentencePerplexity; Zipf(1.0) over stored n-grams")
      .Num("mix_seconds", mix.elapsed_s)
      .Num("queries", static_cast<double>(mix.attempted))
      .Raw("latency", latency.str())
      .Raw("slices", JsonList(slice_tails))
      .Num("cache_hits", static_cast<double>(cache_delta.hits))
      .Num("cache_misses", static_cast<double>(cache_delta.misses))
      .Num("error_rate", error_rate)
      .Num("inputs_s", inputs_s);
  JsonObject fingerprint;
  fingerprint.Str("commit", args.commit)
      .Str("source_digest", args.source_digest)
      .Num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Raw("loadavg_before", load_before)
      .Raw("loadavg_after", load_after)
      .Str("compiler", PERFBENCH_COMPILER)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Raw("ngram_environment", NgramEnvironment());
  JsonObject record;
  record.Str("workload", workload.name)
      .Num("seed", static_cast<double>(args.seed))
      .Num("trace", args.trace ? 1 : 0)
      .Raw("fingerprint", fingerprint.str())
      .Raw("parameters", params.str())
      .Raw("protocol", protocol.str())
      .Raw("result", result.str());
  const std::string record_path =
      args.work_root + "/results/" + workload.name + "-seed" +
      std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0") +
      ".json";
  std::ofstream(record_path) << record.str() << "\n";

  serving.services.clear();
  fs::remove_all(dir, ec);
  std::printf("RECORD %s\n", record.str().c_str());
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <%s> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work-root <dir>] [--commit <id>] "
                 "[--source-digest <hex>]\n",
                 perfbench::WorkloadNames().c_str());
    return 2;
  }
  const perfbench::Workload* workload =
      perfbench::FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (known: %s)\n",
                 args.workload.c_str(), perfbench::WorkloadNames().c_str());
    return 2;
  }
  return args.child ? perfbench::RunChild(args, *workload)
                    : perfbench::RunBenchmark(args, *workload);
}
