#include "serve/stats_service.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>

#include "encoding/sequence.h"

namespace ngram::serve {

namespace {

/// FrequencySource over an open sharded store — what lets the
/// StupidBackoffModel score interactive queries without ever
/// materializing the statistics table.
class ServedFrequencySource final : public lm::FrequencySource {
 public:
  explicit ServedFrequencySource(
      std::shared_ptr<const ShardedStatsStore> store)
      : store_(std::move(store)) {}

  uint64_t FrequencyOf(const TermSequence& seq,
                       Status* status) const override {
    std::string key;
    SequenceCodec::Encode(seq, &key);
    uint64_t count = 0;
    Status st = store_->Count(Slice(key), &count);
    if (!st.ok()) {
      if (status != nullptr) {
        *status = std::move(st);
      }
      return 0;
    }
    return count;
  }

  Status ForEachContinuation(
      const TermSequence& prefix,
      const std::function<void(TermId, uint64_t)>& fn) const override {
    std::string key;
    SequenceCodec::Encode(prefix, &key);
    return store_->Completions(Slice(key), SIZE_MAX, fn);
  }

 private:
  std::shared_ptr<const ShardedStatsStore> store_;
};

}  // namespace

Result<std::shared_ptr<const StatsService::Snapshot>>
StatsService::BuildSnapshot(const std::string& dir,
                            const ServingOptions& options,
                            lm::LanguageModelOptions lm_options) {
  auto snapshot = std::make_shared<Snapshot>();
  NGRAM_ASSIGN_OR_RETURN(snapshot->store,
                         ShardedStatsStore::Open(dir, options));
  const Manifest& manifest = snapshot->store->manifest();
  if (manifest.total_unigrams > 0) {
    lm_options.order = std::min(
        lm_options.order, std::max<uint32_t>(1, manifest.max_order));
    NGRAM_ASSIGN_OR_RETURN(
        lm::StupidBackoffModel model,
        lm::StupidBackoffModel::BuildFromSource(
            std::make_shared<ServedFrequencySource>(snapshot->store),
            lm_options, manifest.total_unigrams));
    snapshot->model =
        std::make_unique<lm::StupidBackoffModel>(std::move(model));
  }
  return std::shared_ptr<const Snapshot>(std::move(snapshot));
}

Result<std::unique_ptr<StatsService>> StatsService::Open(
    const std::string& dir, ServingOptions options,
    lm::LanguageModelOptions lm_options) {
  std::unique_ptr<StatsService> service(
      new StatsService(dir, std::move(options), lm_options));
  NGRAM_ASSIGN_OR_RETURN(
      auto snapshot,
      BuildSnapshot(service->dir_, service->options_, lm_options));
  std::atomic_store_explicit(&service->snapshot_, std::move(snapshot),
                             std::memory_order_release);
  return service;
}

Result<uint64_t> StatsService::Count(const TermSequence& ngram) const {
  if (ngram.empty()) {
    return Status::InvalidArgument("ngram must be non-empty");
  }
  const std::shared_ptr<const Snapshot> snap = snapshot();
  std::string key;
  SequenceCodec::Encode(ngram, &key);
  uint64_t count = 0;
  NGRAM_RETURN_NOT_OK(snap->store->Count(Slice(key), &count));
  return count;
}

Result<std::vector<Completion>> StatsService::TopKCompletions(
    const TermSequence& prefix, size_t k) const {
  std::vector<Completion> top;
  std::string key;
  SequenceCodec::Encode(prefix, &key);
  const std::shared_ptr<const Snapshot> snap = snapshot();
  NGRAM_RETURN_NOT_OK(snap->store->Completions(
      Slice(key), k, [&top](TermId term, uint64_t count) {
        top.push_back(Completion{term, count});
      }));
  return top;
}

Result<double> StatsService::Perplexity(const Corpus& text) const {
  const std::shared_ptr<const Snapshot> snap = snapshot();
  if (snap->model == nullptr) {
    return Status::InvalidArgument(
        "store holds no unigrams; perplexity is undefined");
  }
  Status status;
  const double perplexity = snap->model->Perplexity(text, &status);
  NGRAM_RETURN_NOT_OK(status);
  return perplexity;
}

Result<double> StatsService::SentencePerplexity(
    const TermSequence& sentence) const {
  Corpus corpus;
  corpus.docs.emplace_back();
  corpus.docs.back().sentences.push_back(sentence);
  return Perplexity(corpus);
}

kv::BlockCacheStats StatsService::CacheStats() const {
  return snapshot()->store->CacheStats();
}

Status StatsService::Reload(const std::string& dir) {
  MutexLock lock(&reload_mu_);
  NGRAM_ASSIGN_OR_RETURN(
      auto snapshot,
      BuildSnapshot(dir.empty() ? dir_ : dir, options_, lm_options_));
  std::atomic_store_explicit(&snapshot_, std::move(snapshot),
                             std::memory_order_release);
  return Status::OK();
}

std::shared_ptr<const ShardedStatsStore> StatsService::store() const {
  return snapshot()->store;
}

}  // namespace ngram::serve
