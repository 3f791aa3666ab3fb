// APRIORI-INDEX (Algorithm 3): incrementally builds a positional inverted
// index of frequent n-grams.
//
// Phase 1 (k <= K): one job per k scans the input; Mapper #1 aggregates
// per-document positions locally and emits one (k-gram, posting) pair per
// document, Reducer #1 assembles posting lists and keeps frequent k-grams.
//
// Phase 2 (k > K): one job per k over the previous iteration's output.
// Mapper #2 emits every frequent (k-1)-gram twice — keyed by its prefix
// (tagged r-seq) and by its suffix (tagged l-seq) — each carrying its
// posting list. Reducer #2 joins every compatible (l-seq m, r-seq n) pair
// positionally to form the k-gram m || last(n). Buffered posting lists
// move to block run files past the reducer memory budget (Section V).
//
// Besides the statistics, the run yields the positional index itself.
#pragma once

#include "core/input.h"
#include "core/options.h"
#include "core/stats.h"
#include "index/posting.h"
#include "mapreduce/dataset.h"
#include "util/result.h"

namespace ngram {

/// The inverted index produced as a by-product: frequent n-gram ->
/// positional posting list ("can be used to quickly determine the locations
/// of a specific frequent n-gram", Section III-B).
using PositionalIndex = mr::MemoryTable<TermSequence, PostingList>;

struct AprioriIndexResult {
  NgramRun run;
  PositionalIndex index;
};

Result<AprioriIndexResult> RunAprioriIndexWithIndex(
    const CorpusContext& ctx, const NgramJobOptions& options);

/// Statistics-only entry point (symmetric with the other methods).
Result<NgramRun> RunAprioriIndex(const CorpusContext& ctx,
                                 const NgramJobOptions& options);

}  // namespace ngram
