// Tests of the benchmark's own logic: the tail-percentile rule, span
// nesting and self time, the reference counter, and that tracing changes
// no output or shuffle counter.
//
//   python3 perfbench/run.py --selftest
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "core/brute_force.h"
#include "core/runner.h"
#include "corpus/synthetic.h"
#include "oracle.h"
#include "stats_util.h"
#include "text/corpus_io.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                               \
  do {                                                             \
    if (!(cond)) {                                                 \
      std::printf("  FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                  \
    }                                                              \
  } while (0)

std::vector<double> Ramp(size_t n) {
  std::vector<double> values;
  for (size_t i = n; i >= 1; --i) {  // Descending: the summary must sort.
    values.push_back(static_cast<double>(i));
  }
  return values;
}

void TestTailRule() {
  // 1000 samples: p99 = 990 has exactly 10 samples beyond it; p99.9 has 1.
  TailSummary t = SummarizeTail(Ramp(1000));
  EXPECT(t.samples == 1000);
  EXPECT(t.p50 == 500);
  EXPECT(t.supports_p99 && t.p99 == 990);
  EXPECT(t.tail_percentile == 99.0 && t.tail_value == 990);
  EXPECT(t.beyond_tail == 10);

  // 999 samples: p99 rests on 9, so the highest supported is p90.
  t = SummarizeTail(Ramp(999));
  EXPECT(!t.supports_p99);
  EXPECT(t.tail_percentile == 90.0);
  EXPECT(t.beyond_tail >= TailSummary::kMinTailSamples);

  // 100000 samples reach p99.99.
  t = SummarizeTail(Ramp(100000));
  EXPECT(t.tail_percentile == 99.99 && t.beyond_tail == 10);

  // Tiny samples fall back to the median and say how little is beyond.
  t = SummarizeTail(Ramp(5));
  EXPECT(t.tail_percentile == 50.0 && t.p50 == 3 && t.beyond_tail == 2);
  t = SummarizeTail({});
  EXPECT(t.samples == 0 && !t.supports_p99);

  EXPECT(SamplesBeyondPercentile(1005, 99.0) == 10);
  EXPECT(Median({3, 1, 2}) == 2);
}

Span MakeSpan(int64_t start, int64_t end, int32_t parent) {
  Span span;
  span.name = "s";
  span.start_ns = start;
  span.end_ns = end;
  span.parent = parent;
  return span;
}

void TestSelfTime() {
  // Overlapping children count once; a child running past its parent is
  // clipped to the parent's interval.
  std::vector<Span> spans = {MakeSpan(0, 100, -1), MakeSpan(10, 30, 0),
                             MakeSpan(20, 50, 0), MakeSpan(60, 70, 0),
                             MakeSpan(90, 120, 0), MakeSpan(25, 28, 2)};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT(self[0] == 100 - (40 + 10 + 10));
  EXPECT(self[1] == 20);
  EXPECT(self[2] == 30 - 3);
  EXPECT(self[5] == 3);

  // Nesting: spans opened inside another get it as parent.
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "outer", 7);
    { ScopedSpan a(&tracer, "a", 7); }
    {
      ScopedSpan b(&tracer, "b", 7);
      ScopedSpan c(&tracer, "c", 7);
    }
  }
  { ScopedSpan next(&tracer, "next", 8); }
  const std::vector<Span>& s = tracer.spans();
  EXPECT(s.size() == 5);
  EXPECT(s[0].parent == -1 && s[1].parent == 0 && s[2].parent == 0);
  EXPECT(s[3].parent == 2 && s[4].parent == -1);
  EXPECT(s[0].run_id == 7 && s[4].run_id == 8);
  for (const Span& span : s) {
    EXPECT(span.end_ns >= span.start_ns);
  }
  const std::vector<int64_t> nested_self = SelfTimesNs(s);
  EXPECT(nested_self[0] <= s[0].end_ns - s[0].start_ns);

  // A null tracer records nothing.
  { ScopedSpan off(nullptr, "off", 0); }

  // Appending rebases parent indices.
  std::vector<Span> all = {MakeSpan(0, 1, -1)};
  AppendSpans(s, &all);
  EXPECT(all.size() == 6 && all[2].parent == 1 && all[4].parent == 3);

  const std::vector<SpanTotals> totals = SummarizeSpans(spans);
  EXPECT(totals.size() == 1 && totals[0].count == 6);
}

void TestReferenceCounts() {
  const ngram::Corpus corpus =
      ngram::GenerateSyntheticCorpus(ngram::NytLikeOptions(60, 11));
  const std::pair<uint64_t, uint32_t> cases[] = {{2, 5}, {3, 0}, {1, 3}};
  for (const auto& [tau, sigma] : cases) {
    ngram::NgramStatistics expected =
        ngram::BruteForceCounts(corpus, tau, sigma);
    ngram::NgramStatistics actual = ReferenceCounts(corpus, tau, sigma);
    EXPECT(actual.size() > 0);
    EXPECT(actual.SameAs(expected));
    EXPECT(StatsDigest(&actual) == StatsDigest(&expected));
  }
  // The digest depends on the counts, not only on the n-grams.
  ngram::NgramStatistics a = ReferenceCounts(corpus, 2, 3);
  ngram::NgramStatistics b = a;
  b.entries.back().second += 1;
  EXPECT(StatsDigest(&a) != StatsDigest(&b));
}

// Traced and untraced batch runs of one seed shuffle the same bytes and
// records and produce the same output.
void TestTracingChangesNothing(const std::string& work_root) {
  const std::string dir = work_root + "/selftest";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  for (const char* name : {"naive-spill", "apriori-index-chain"}) {
    Workload workload = *FindWorkload(name);
    workload.docs = 150;
    const ngram::Corpus corpus = GenerateWorkloadCorpus(workload, 5);
    const std::string corpus_path = dir + "/corpus.ngc";
    EXPECT(ngram::WriteCorpusBinary(corpus, corpus_path).ok());
    ngram::NgramStatistics reference =
        ReferenceCounts(corpus, workload.tau, workload.sigma);
    const uint64_t reference_digest = StatsDigest(&reference);
    Tracer tracer;
    const BatchRun plain = RunBatchOnce(workload, corpus_path,
                                        dir + "/a.ngs", dir + "/work",
                                        nullptr, 0);
    const BatchRun traced = RunBatchOnce(workload, corpus_path,
                                         dir + "/b.ngs", dir + "/work",
                                         &tracer, 1);
    EXPECT(plain.ok && traced.ok);
    EXPECT(plain.digest == reference_digest);
    EXPECT(traced.digest == plain.digest);
    EXPECT(traced.metrics.map_output_bytes() ==
           plain.metrics.map_output_bytes());
    EXPECT(traced.metrics.map_output_records() ==
           plain.metrics.map_output_records());
    EXPECT(plain.metrics.map_output_bytes() > 0);
    // One batch.run span with the four layer calls beneath it.
    EXPECT(tracer.spans().size() == 5);
    EXPECT(std::strcmp(tracer.spans()[0].name, "batch.run") == 0);
    for (size_t i = 1; i < tracer.spans().size(); ++i) {
      EXPECT(tracer.spans()[i].parent == 0);
    }
    // The work directory is emptied after every run.
    EXPECT(CountFiles(dir + "/work") == 0);
  }
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string work_root = ".bench_build";
  if (argc == 3 && std::strcmp(argv[1], "--work-root") == 0) {
    work_root = argv[2];
  }
  const struct {
    const char* name;
    void (*fn)();
  } tests[] = {
      {"tail rule", perfbench::TestTailRule},
      {"span self time", perfbench::TestSelfTime},
      {"reference counts", perfbench::TestReferenceCounts},
  };
  for (const auto& test : tests) {
    std::printf("[ RUN ] %s\n", test.name);
    test.fn();
  }
  std::printf("[ RUN ] tracing changes no output\n");
  perfbench::TestTracingChangesNothing(work_root);
  std::printf("%s: %d failure(s)\n",
              perfbench::failures == 0 ? "PASSED" : "FAILED",
              perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
