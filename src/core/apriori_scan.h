// APRIORI-SCAN (Algorithm 2): one MapReduce job per n-gram length k. The
// k-th job scans the whole input and emits only k-grams whose two
// constituent (k-1)-grams were frequent in the previous iteration; the
// dictionary of frequent (k-1)-grams is shipped to every mapper (the
// paper's distributed-cache replica), kept in a compact SequenceSet that
// moves to a sorted block run past reducer_memory_budget_bytes — in
// work_dir, or in a private temp dir removed on return when work_dir is
// empty.
//
// Terminates after sigma iterations or when an iteration yields nothing.
// Per-iteration administrative cost and the repeated full scans are the
// method's structural weaknesses (Section III-B).
#pragma once

#include "core/input.h"
#include "core/options.h"
#include "core/stats.h"
#include "util/result.h"

namespace ngram {

/// Custom counters recorded per iteration job.
inline constexpr const char* kDictionaryEntries = "DICTIONARY_ENTRIES";
inline constexpr const char* kDictionaryBytes = "DICTIONARY_BYTES";

Result<NgramRun> RunAprioriScan(const CorpusContext& ctx,
                                const NgramJobOptions& options);

}  // namespace ngram
