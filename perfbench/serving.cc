#include "serving.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "corpus/zipf.h"
#include "encoding/sequence.h"
#include "lm/language_model.h"
#include "util/random.h"

namespace perfbench {

using ngram::NgramStatistics;
using ngram::TermSequence;
using ngram::serve::Completion;

namespace {

constexpr size_t kAbsentKeys = 4096;
constexpr size_t kSentences = 4096;

std::string Encode(const TermSequence& seq) {
  std::string key;
  ngram::SequenceCodec::Encode(seq, &key);
  return key;
}

// Maps a raw draw (rank or pool slot) to a compact pool index, keeping the
// pool to the items the streams actually use.
class Compactor {
 public:
  uint32_t Add(uint32_t raw) {
    auto [it, inserted] =
        index_.emplace(raw, static_cast<uint32_t>(order_.size()));
    if (inserted) {
      order_.push_back(raw);
    }
    return it->second;
  }
  const std::vector<uint32_t>& order() const { return order_; }

 private:
  std::unordered_map<uint32_t, uint32_t> index_;
  std::vector<uint32_t> order_;
};

struct alignas(64) Progress {
  std::atomic<uint64_t> per_type[kQueryTypes] = {};
};

}  // namespace

uint64_t TopKDigest(const std::vector<Completion>& answer) {
  uint64_t digest = Fnv1a(nullptr, 0);
  for (const Completion& c : answer) {
    digest = Fnv1a(&c.term, sizeof(c.term), digest);
    digest = Fnv1a(&c.count, sizeof(c.count), digest);
  }
  const uint64_t size = answer.size();
  return Fnv1a(&size, sizeof(size), digest);
}

QueryPools MakeQueryPools(const NgramStatistics& reference,
                          const ngram::Corpus& corpus, uint64_t seed,
                          int threads, size_t per_thread) {
  const auto& entries = reference.entries;
  // Stored n-grams by descending frequency (ties in canonical order), and
  // the ones of at least two terms, whose prefixes top-k queries use.
  std::vector<uint32_t> ranked(entries.size());
  std::iota(ranked.begin(), ranked.end(), 0);
  std::sort(ranked.begin(), ranked.end(), [&](uint32_t a, uint32_t b) {
    return entries[a].second != entries[b].second
               ? entries[a].second > entries[b].second
               : a < b;
  });
  std::vector<uint32_t> ranked_long;
  for (uint32_t i : ranked) {
    if (entries[i].first.size() >= 2) {
      ranked_long.push_back(i);
    }
  }

  ngram::Rng rng(seed ^ 0x5e7f1ce5ULL);
  // Absent keys: a stored n-gram with its last term replaced.
  ngram::TermId max_term = 0;
  for (const auto& entry : entries) {
    for (ngram::TermId t : entry.first) {
      max_term = std::max(max_term, t);
    }
  }
  std::vector<TermSequence> absent;
  for (size_t attempt = 0;
       !entries.empty() && absent.size() < kAbsentKeys && attempt < 64 * kAbsentKeys;
       ++attempt) {
    TermSequence seq = entries[rng.Uniform(entries.size())].first;
    seq.back() = static_cast<ngram::TermId>(rng.Uniform(max_term + 2ULL));
    if (reference.FrequencyOf(seq) == 0) {
      absent.push_back(std::move(seq));
    }
  }
  // Sentences for perplexity, uniform over the corpus.
  std::vector<const TermSequence*> sentences;
  for (size_t attempt = 0;
       !corpus.docs.empty() && sentences.size() < kSentences && attempt < 64 * kSentences;
       ++attempt) {
    const auto& doc = corpus.docs[rng.Uniform(corpus.docs.size())];
    if (!doc.sentences.empty()) {
      const auto& sentence = doc.sentences[rng.Uniform(doc.sentences.size())];
      if (!sentence.empty()) {
        sentences.push_back(&sentence);
      }
    }
  }

  QueryPools pools;
  Compactor count_pool;  // raw: rank, or ranked.size() + absent slot.
  Compactor prefix_pool;  // raw: position in ranked_long.
  Compactor sentence_pool;
  const ngram::ZipfSampler count_zipf(std::max<size_t>(1, ranked.size()), 1.0);
  const ngram::ZipfSampler prefix_zipf(std::max<size_t>(1, ranked_long.size()),
                                       1.0);
  for (int t = 0; t < threads; ++t) {
    ngram::Rng stream_rng(seed * 1000003ULL + static_cast<uint64_t>(t) + 1);
    std::vector<Query> stream;
    stream.reserve(per_thread);
    for (size_t i = 0; i < per_thread; ++i) {
      const double mix = stream_rng.NextDouble();
      if (mix < 0.80 || (ranked_long.empty() && sentences.empty())) {
        uint32_t raw = 0;
        if (stream_rng.NextDouble() < 0.10 && !absent.empty()) {
          raw = static_cast<uint32_t>(ranked.size() +
                                      stream_rng.Uniform(absent.size()));
        } else {
          raw = static_cast<uint32_t>(count_zipf.Sample(&stream_rng) - 1);
        }
        stream.push_back(Query{kCount, count_pool.Add(raw)});
      } else if ((mix < 0.95 && !ranked_long.empty()) || sentences.empty()) {
        const auto raw = static_cast<uint32_t>(prefix_zipf.Sample(&stream_rng) - 1);
        stream.push_back(Query{kTopK, prefix_pool.Add(raw)});
      } else {
        const auto raw =
            static_cast<uint32_t>(stream_rng.Uniform(sentences.size()));
        stream.push_back(Query{kPerplexity, sentence_pool.Add(raw)});
      }
    }
    pools.streams.push_back(std::move(stream));
  }

  for (uint32_t raw : count_pool.order()) {
    if (raw < ranked.size()) {
      pools.count_keys.push_back(entries[ranked[raw]].first);
      pools.count_expected.push_back(entries[ranked[raw]].second);
    } else {
      pools.count_keys.push_back(absent[raw - ranked.size()]);
      pools.count_expected.push_back(0);
    }
  }

  // Distinct prefixes: n-grams drawn for top-k that share a prefix share a
  // pool slot, so the streams are re-indexed from n-gram to prefix.
  std::unordered_map<std::string, size_t> prefix_slot;
  std::vector<uint32_t> slot_of_draw;
  for (uint32_t raw : prefix_pool.order()) {
    TermSequence prefix = entries[ranked_long[raw]].first;
    prefix.pop_back();
    auto [it, inserted] =
        prefix_slot.emplace(Encode(prefix), pools.prefixes.size());
    if (inserted) {
      pools.prefixes.push_back(std::move(prefix));
    }
    slot_of_draw.push_back(static_cast<uint32_t>(it->second));
  }
  for (auto& stream : pools.streams) {
    for (Query& q : stream) {
      if (q.type == kTopK) {
        q.index = slot_of_draw[q.index];
      }
    }
  }
  // Expected top-k answers: one pass over the reference collects the
  // one-term continuations of every drawn prefix.
  std::vector<std::vector<Completion>> continuations(pools.prefixes.size());
  std::string key;
  for (const auto& [seq, count] : entries) {
    if (seq.size() < 2) {
      continue;
    }
    key.clear();
    ngram::SequenceCodec::EncodeRange(seq, 0, seq.size() - 1, &key);
    auto it = prefix_slot.find(key);
    if (it != prefix_slot.end()) {
      continuations[it->second].push_back(Completion{seq.back(), count});
    }
  }
  for (auto& answer : continuations) {
    std::sort(answer.begin(), answer.end(),
              [](const Completion& a, const Completion& b) {
                return a.count != b.count ? a.count > b.count
                                          : a.term < b.term;
              });
    if (answer.size() > kTopKResults) {
      answer.resize(kTopKResults);
    }
    pools.topk_expected.push_back(TopKDigest(answer));
  }

  // Expected perplexities from a model over the in-memory reference, with
  // the order the service clamps to.
  ngram::lm::LanguageModelOptions lm_options;
  lm_options.order =
      std::min(lm_options.order, std::max<uint32_t>(1, reference.MaxLength()));
  auto model = ngram::lm::StupidBackoffModel::Build(reference, lm_options);
  for (uint32_t raw : sentence_pool.order()) {
    pools.sentences.push_back(*sentences[raw]);
    ngram::Corpus text;
    text.docs.emplace_back();
    text.docs.back().sentences.push_back(*sentences[raw]);
    pools.ppl_expected.push_back(model.ok() ? model->Perplexity(text)
                                            : std::nan(""));
  }
  return pools;
}

void MixResult::Merge(MixResult slice) {
  elapsed_s += slice.elapsed_s;
  attempted += slice.attempted;
  failed += slice.failed;
  for (int type = 0; type < kQueryTypes; ++type) {
    failed_by_type[type] += slice.failed_by_type[type];
    latency_us[type].insert(latency_us[type].end(),
                            slice.latency_us[type].begin(),
                            slice.latency_us[type].end());
  }
  AppendSpans(slice.spans, &spans);
}

MixResult RunMix(
    const std::vector<const ngram::serve::StatsService*>& services,
    const QueryPools& pools, std::vector<size_t>* cursors, double seconds,
    size_t min_samples, bool traced) {
  const size_t threads = pools.streams.size();
  cursors->resize(threads, 0);
  std::vector<Progress> progress(threads);
  std::vector<std::vector<uint64_t>> answers(threads);  // From the cursor.
  std::vector<std::vector<uint8_t>> errors(threads);
  std::vector<std::vector<double>> latencies(threads * kQueryTypes);
  std::vector<Tracer> tracers(threads);
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < threads; ++t) {
    const size_t expected = pools.streams[t].size();
    answers[t].reserve(expected);
    errors[t].reserve(expected);
    for (int type = 0; type < kQueryTypes; ++type) {
      latencies[t * kQueryTypes + type].reserve(expected /
                                                (type == kCount ? 1 : 4));
    }
    if (traced) {
      tracers[t].Reserve(expected);
    }
  }
  for (size_t t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      const std::vector<Query>& stream = pools.streams[t];
      const ngram::serve::StatsService& service = *services[t];
      const size_t first = (*cursors)[t];
      Tracer* tracer = traced ? &tracers[t] : nullptr;
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (size_t i = first;
           !stream.empty() && !stop.load(std::memory_order_relaxed); ++i) {
        const Query q = stream[i % stream.size()];
        const uint64_t run_id = (static_cast<uint64_t>(t) << 32) | i;
        bool ok = true;
        uint64_t answer = 0;
        const int64_t begin = NowNs();
        switch (q.type) {
          case kCount: {
            ScopedSpan span(tracer, "serve.Count", run_id);
            auto count = service.Count(pools.count_keys[q.index]);
            ok = count.ok();
            answer = ok ? *count : 0;
            break;
          }
          case kTopK: {
            ScopedSpan span(tracer, "serve.TopKCompletions", run_id);
            auto topk =
                service.TopKCompletions(pools.prefixes[q.index], kTopKResults);
            ok = topk.ok();
            answer = ok ? TopKDigest(*topk) : 0;
            break;
          }
          case kPerplexity: {
            ScopedSpan span(tracer, "serve.SentencePerplexity", run_id);
            auto ppl = service.SentencePerplexity(pools.sentences[q.index]);
            ok = ppl.ok();
            const double value = ok ? *ppl : 0.0;
            std::memcpy(&answer, &value, sizeof(answer));
            break;
          }
        }
        const int64_t end = NowNs();
        latencies[t * kQueryTypes + q.type].push_back(
            static_cast<double>(end - begin) / 1e3);
        answers[t].push_back(answer);
        errors[t].push_back(ok ? 0 : 1);
        progress[t].per_type[q.type].fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  const int64_t begin = NowNs();
  go.store(true, std::memory_order_release);
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const double elapsed = static_cast<double>(NowNs() - begin) / 1e9;
    bool enough = true;
    for (int type = 0; type < kQueryTypes; ++type) {
      uint64_t samples = 0;
      for (const Progress& p : progress) {
        samples += p.per_type[type].load(std::memory_order_relaxed);
      }
      enough = enough && samples >= min_samples;
    }
    if ((elapsed >= seconds && enough) || elapsed >= 3 * seconds) {
      break;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& client : clients) {
    client.join();
  }

  MixResult result;
  result.elapsed_s = static_cast<double>(NowNs() - begin) / 1e9;
  for (size_t t = 0; t < threads; ++t) {
    const std::vector<Query>& stream = pools.streams[t];
    const size_t first = (*cursors)[t];
    for (size_t j = 0; j < answers[t].size(); ++j) {
      const Query q = stream[(first + j) % stream.size()];
      bool right = errors[t][j] == 0;
      if (right && q.type == kCount) {
        right = answers[t][j] == pools.count_expected[q.index];
      } else if (right && q.type == kTopK) {
        right = answers[t][j] == pools.topk_expected[q.index];
      } else if (right) {
        double value = 0;
        std::memcpy(&value, &answers[t][j], sizeof(value));
        const double expected = pools.ppl_expected[q.index];
        right = std::fabs(value - expected) <=
                1e-9 * std::max(1.0, std::fabs(expected));
      }
      ++result.attempted;
      result.failed += right ? 0 : 1;
      result.failed_by_type[q.type] += right ? 0 : 1;
    }
    (*cursors)[t] = first + answers[t].size();
    for (int type = 0; type < kQueryTypes; ++type) {
      auto& samples = latencies[t * kQueryTypes + type];
      result.latency_us[type].insert(result.latency_us[type].end(),
                                     samples.begin(), samples.end());
    }
    AppendSpans(tracers[t].spans(), &result.spans);
  }
  return result;
}

std::vector<double> RunStoreCounts(
    const std::vector<const ngram::serve::StatsService*>& services,
    const QueryPools& pools, double seconds) {
  std::vector<std::string> keys;
  keys.reserve(pools.count_keys.size());
  for (const TermSequence& seq : pools.count_keys) {
    keys.push_back(Encode(seq));
  }
  const size_t threads = pools.streams.size();
  std::vector<std::vector<double>> latencies(threads);
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < threads; ++t) {
    latencies[t].reserve(pools.streams[t].size());
    clients.emplace_back([&, t] {
      const auto store = services[t]->store();
      for (const Query& q : pools.streams[t]) {
        if (stop.load(std::memory_order_relaxed)) {
          break;
        }
        if (q.type != kCount) {
          continue;
        }
        uint64_t count = 0;
        const int64_t begin = NowNs();
        const ngram::Status status =
            store->Count(ngram::Slice(keys[q.index]), &count);
        latencies[t].push_back(static_cast<double>(NowNs() - begin) / 1e3);
        (void)status.ok();
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& client : clients) {
    client.join();
  }
  std::vector<double> all;
  for (const auto& samples : latencies) {
    all.insert(all.end(), samples.begin(), samples.end());
  }
  return all;
}

double TopKScannedPerResult(const ngram::serve::ShardedStatsStore& store,
                            const QueryPools& pools,
                            const std::vector<size_t>& cursors) {
  // Per prefix: records the scan visits and completions it returns.
  std::vector<std::pair<uint64_t, uint64_t>> per_prefix(
      pools.prefixes.size(), {UINT64_MAX, 0});
  uint64_t visited = 0;
  uint64_t returned = 0;
  for (size_t t = 0; t < pools.streams.size(); ++t) {
    const std::vector<Query>& stream = pools.streams[t];
    for (size_t i = 0; i < cursors[t] && !stream.empty(); ++i) {
      const Query q = stream[i % stream.size()];
      if (q.type != kTopK) {
        continue;
      }
      auto& [scan, results] = per_prefix[q.index];
      if (scan == UINT64_MAX) {
        const std::string lower = Encode(pools.prefixes[q.index]);
        std::string upper = lower;
        while (!upper.empty() &&
               static_cast<unsigned char>(upper.back()) == 0xFF) {
          upper.pop_back();
        }
        if (!upper.empty()) {
          upper.back() = static_cast<char>(
              static_cast<unsigned char>(upper.back()) + 1);
        }
        scan = 0;
        uint64_t continuations = 0;
        const ngram::Status status = store.ScanRange(
            ngram::Slice(lower), ngram::Slice(upper),
            [&](ngram::Slice key, uint64_t) {
              ++scan;
              ngram::SequenceReader reader(ngram::Slice(
                  key.data() + lower.size(), key.size() - lower.size()));
              ngram::TermId term = 0;
              if (reader.Next(&term) && reader.AtEnd()) {
                ++continuations;
              }
              return true;
            });
        (void)status.ok();
        results = std::min<uint64_t>(continuations, kTopKResults);
      }
      visited += scan;
      returned += results;
    }
  }
  return returned == 0 ? 0.0
                       : static_cast<double>(visited) /
                             static_cast<double>(returned);
}

}  // namespace perfbench
