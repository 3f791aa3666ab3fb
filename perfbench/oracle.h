// The reference the benchmark checks every batch output against: n-gram
// collection frequencies computed in memory, level by level, with no
// MapReduce runtime involved.
//
// Level k keeps, for every corpus position, the id of the frequent k-gram
// starting there (or none). A (k+1)-gram at p is a candidate only when the
// k-grams at p and p + 1 are both frequent (the Apriori principle), and it
// is identified by (id of the k-gram at p, term at p + k), so no sequence
// is ever hashed. Positions die as their k-grams fall below tau, so the
// work shrinks level by level even with unbounded sigma.
#pragma once

#include <cstdint>

#include "core/stats.h"
#include "text/corpus.h"

namespace perfbench {

/// All n-grams with |s| <= sigma (0 = unbounded) and cf(s) >= tau that do
/// not cross a sentence boundary, canonically sorted.
ngram::NgramStatistics ReferenceCounts(const ngram::Corpus& corpus,
                                       uint64_t tau, uint32_t sigma);

/// Order-independent digest of a statistics table (sorts it canonically).
uint64_t StatsDigest(ngram::NgramStatistics* stats);

}  // namespace perfbench
