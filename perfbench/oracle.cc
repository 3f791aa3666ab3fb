#include "oracle.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "stats_util.h"

namespace perfbench {

using ngram::NgramStatistics;
using ngram::TermId;
using ngram::TermSequence;

namespace {

constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

// One frequent n-gram of some level: the id of its (n-1)-prefix in the
// previous level, its last term, and its frequency.
struct Gram {
  uint32_t prefix;
  TermId last;
  uint64_t count;
};

}  // namespace

NgramStatistics ReferenceCounts(const ngram::Corpus& corpus, uint64_t tau,
                                uint32_t sigma) {
  // Flatten the corpus; sentence_end[p] is one past the last position of
  // the sentence holding p.
  std::vector<TermId> terms;
  std::vector<uint32_t> sentence_end;
  for (const auto& doc : corpus.docs) {
    for (const auto& sentence : doc.sentences) {
      terms.insert(terms.end(), sentence.begin(), sentence.end());
      sentence_end.insert(sentence_end.end(), sentence.size(),
                          static_cast<uint32_t>(terms.size()));
    }
  }
  const uint32_t max_len = sigma == 0 ? kNone : sigma;
  const uint64_t min_count = std::max<uint64_t>(tau, 1);

  // Level 1: ids are assigned to the frequent terms in term order.
  TermId max_term = 0;
  for (TermId t : terms) {
    max_term = std::max(max_term, t);
  }
  std::vector<uint64_t> unigram_counts(terms.empty() ? 0 : max_term + 1ULL);
  for (TermId t : terms) {
    ++unigram_counts[t];
  }
  std::vector<std::vector<Gram>> levels(1);
  std::vector<uint32_t> unigram_id(unigram_counts.size(), kNone);
  for (size_t t = 0; t < unigram_counts.size(); ++t) {
    if (unigram_counts[t] >= min_count) {
      unigram_id[t] = static_cast<uint32_t>(levels[0].size());
      levels[0].push_back(
          Gram{kNone, static_cast<TermId>(t), unigram_counts[t]});
    }
  }
  std::vector<uint32_t> id(terms.size(), kNone);
  std::vector<uint32_t> alive;
  for (size_t p = 0; p < terms.size(); ++p) {
    id[p] = unigram_id[terms[p]];
    if (id[p] != kNone) {
      alive.push_back(static_cast<uint32_t>(p));
    }
  }

  // Level k -> k + 1 while frequent k-grams remain and k < sigma.
  std::vector<std::pair<uint64_t, uint32_t>> candidates;  // (key, position)
  for (uint32_t k = 1; !alive.empty() && k < max_len; ++k) {
    candidates.clear();
    for (uint32_t p : alive) {
      const size_t last = static_cast<size_t>(p) + k;
      if (last < sentence_end[p] && id[p + 1] != kNone) {
        candidates.emplace_back(
            (static_cast<uint64_t>(id[p]) << 32) | terms[last], p);
      }
    }
    for (uint32_t p : alive) {
      id[p] = kNone;
    }
    alive.clear();
    // Count by sorting; ids go to the frequent (k+1)-grams in
    // (prefix id, term) order.
    std::sort(candidates.begin(), candidates.end());
    std::vector<Gram> level;
    for (size_t i = 0; i < candidates.size();) {
      const uint64_t key = candidates[i].first;
      size_t j = i;
      while (j < candidates.size() && candidates[j].first == key) {
        ++j;
      }
      if (j - i >= min_count) {
        for (size_t r = i; r < j; ++r) {
          id[candidates[r].second] = static_cast<uint32_t>(level.size());
          alive.push_back(candidates[r].second);
        }
        level.push_back(Gram{static_cast<uint32_t>(key >> 32),
                             static_cast<TermId>(key & 0xffffffffULL), j - i});
      }
      i = j;
    }
    if (!level.empty()) {
      levels.push_back(std::move(level));
    }
  }

  // Materialise every level's sequences from its prefix links.
  NgramStatistics stats;
  std::vector<TermSequence> previous;
  for (const auto& level : levels) {
    std::vector<TermSequence> current;
    current.reserve(level.size());
    for (const Gram& gram : level) {
      TermSequence seq =
          gram.prefix == kNone ? TermSequence{} : previous[gram.prefix];
      seq.push_back(gram.last);
      stats.Add(seq, gram.count);
      current.push_back(std::move(seq));
    }
    previous = std::move(current);
  }
  stats.SortCanonical();
  return stats;
}

uint64_t StatsDigest(NgramStatistics* stats) {
  stats->SortCanonical();
  uint64_t digest = Fnv1a(nullptr, 0);
  for (const auto& [seq, count] : stats->entries) {
    const uint64_t length = seq.size();
    digest = Fnv1a(&length, sizeof(length), digest);
    digest = Fnv1a(seq.data(), seq.size() * sizeof(TermId), digest);
    digest = Fnv1a(&count, sizeof(count), digest);
  }
  return digest;
}

}  // namespace perfbench
