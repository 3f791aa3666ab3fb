#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t Tracer::Begin(const char* name, uint64_t run_id) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.run_id = run_id;
  const int32_t index = static_cast<int32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  spans_.back().start_ns = NowNs();
  return index;
}

void Tracer::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 &&
        static_cast<size_t>(span.parent) < spans.size()) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t begin = spans[i].start_ns;
    const int64_t end = spans[i].end_ns;
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t cursor = begin;  // Everything before cursor is accounted for.
    for (const auto& [child_begin, child_end] : intervals) {
      const int64_t from = std::max(child_begin, cursor);
      const int64_t to = std::min(child_end, end);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[i] = std::max<int64_t>(0, end - begin - covered);
  }
  return self;
}

void AppendSpans(const std::vector<Span>& other, std::vector<Span>* all) {
  const int32_t base = static_cast<int32_t>(all->size());
  for (Span span : other) {
    if (span.parent >= 0) {
      span.parent += base;
    }
    all->push_back(span);
  }
}

std::vector<SpanTotals> SummarizeSpans(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::vector<SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    auto it = std::find_if(totals.begin(), totals.end(),
                           [&](const SpanTotals& t) {
                             return t.name == spans[i].name;
                           });
    if (it == totals.end()) {
      totals.push_back(SpanTotals{spans[i].name, 0, 0, 0});
      it = totals.end() - 1;
    }
    const double ms =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    ++it->count;
    it->total_ms += ms;
    it->self_ms += static_cast<double>(self[i]) / 1e6;
  }
  return totals;
}

bool WriteSpansTsv(const std::vector<Span>& spans, const std::string& path) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::fprintf(out, "index\tparent\trun_id\tname\tstart_ns\tend_ns\tself_ns\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out, "%zu\t%d\t%llu\t%s\t%lld\t%lld\t%lld\n", i, s.parent,
                 static_cast<unsigned long long>(s.run_id), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
