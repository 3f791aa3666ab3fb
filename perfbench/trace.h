// In-memory span recorder for the benchmark's traced runs.
//
// A span brackets one call the benchmark makes into a layer of the
// library: its name, start and end (steady clock, ns), the span that was
// open when it began (its parent), and the id of the run or query it
// belongs to. Spans stay in memory until the benchmark ends and are then
// written out; per-layer metrics are derived from them.
//
// A Tracer is single-threaded: each client thread records into its own,
// and the spans of several tracers are merged after the threads join.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // Static string: a layer call, e.g. "core.Write".
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;    // Index into the same span vector; -1 = root.
  uint64_t run_id = 0;    // One id per batch run or serving query.
};

int64_t NowNs();

class Tracer {
 public:
  /// Opens a span under the innermost open span; returns its index.
  int32_t Begin(const char* name, uint64_t run_id);
  /// Closes span `index` (must be the innermost open span).
  void End(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }
  void Reserve(size_t n) { spans_.reserve(n); }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; records nothing when `tracer` is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t run_id)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->Begin(name, run_id) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (clipped to it).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Appends `other`'s spans to `all`, rebasing parent indices.
void AppendSpans(const std::vector<Span>& other, std::vector<Span>* all);

/// Per-name aggregate of a span set.
struct SpanTotals {
  std::string name;
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

/// One entry per distinct span name, in order of first appearance.
std::vector<SpanTotals> SummarizeSpans(const std::vector<Span>& spans);

/// Writes the spans as tab-separated lines
/// "index parent run_id name start_ns end_ns self_ns" with a header.
bool WriteSpansTsv(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
