#include "core/apriori_scan.h"

#include "core/counting.h"
#include "index/sequence_set.h"
#include "util/logging.h"
#include "util/temp_dir.h"

namespace ngram {

namespace {

/// The k-th scan's mapper: emits k-grams surviving the APRIORI check
/// against the dictionary of frequent (k-1)-grams.
///
/// Runs raw over the serialized input row: term ids and byte offsets come
/// from one varint scan, every k-gram window is a sub-slice of the input
/// bytes, and — because the dictionary stores *encoded* sequences — the
/// two APRIORI probes test sub-slices directly, with no per-window scratch
/// encode. The dictionary itself was built from the previous round's
/// serialized reducer output without re-encoding (see RunAprioriScan).
class AprioriScanMapper final : public mr::RawMapper<TermSequence, uint64_t> {
 public:
  AprioriScanMapper(const NgramJobOptions& options, uint32_t k,
                    std::shared_ptr<const UnigramFrequencies> unigram_cf,
                    std::shared_ptr<const SequenceSet> dict)
      : options_(options),
        k_(k),
        unigram_cf_(std::move(unigram_cf)),
        dict_(std::move(dict)) {}

  Status Map(Slice key, Slice value, Context* ctx) override {
    if (!cursor_.Parse(key, value)) {
      return Status::Corruption("AprioriScanMapper: bad input row");
    }
    value_scratch_.clear();
    Serde<uint64_t>::Encode(
        CountingValue(options_.frequency_mode, cursor_.doc_id()),
        &value_scratch_);
    Status status;
    ForEachPieceRange(cursor_.terms(), options_.document_splits,
                      *unigram_cf_, options_.tau,
                      [&](size_t pb, size_t pe) {
                        if (!status.ok()) {
                          return;
                        }
                        status = MapPiece(pb, pe, ctx);
                      });
    return status;
  }

 private:
  Status MapPiece(size_t pb, size_t pe, Context* ctx) {
    if (pe - pb < k_) {
      return Status::OK();
    }
    // Algorithm 2 lines 3-5: k = 1, or both constituent (k-1)-grams
    // frequent. The probes are sub-slices of the input bytes, and window
    // b's trailing (k-1)-gram is window b+1's leading one, so each window
    // costs one dictionary probe, not two — the previous result carries.
    bool lead_ok = true;
    if (k_ > 1) {
      NGRAM_RETURN_NOT_OK(
          dict_->Contains(cursor_.Range(pb, pb + k_ - 1), &lead_ok));
    }
    for (size_t b = pb; b + k_ <= pe; ++b) {
      bool trail_ok = true;
      if (k_ > 1) {
        NGRAM_RETURN_NOT_OK(
            dict_->Contains(cursor_.Range(b + 1, b + k_), &trail_ok));
      }
      if (lead_ok && trail_ok) {
        NGRAM_RETURN_NOT_OK(
            ctx->EmitRaw(cursor_.Range(b, b + k_), value_scratch_));
      }
      lead_ok = trail_ok;
    }
    return Status::OK();
  }

  const NgramJobOptions options_;
  const uint32_t k_;
  const std::shared_ptr<const UnigramFrequencies> unigram_cf_;
  const std::shared_ptr<const SequenceSet> dict_;
  FragmentCursor cursor_;
  std::string value_scratch_;
};

}  // namespace

Result<NgramRun> RunAprioriScan(const CorpusContext& ctx,
                                const NgramJobOptions& options) {
  NgramRun run;
  const uint32_t sigma = options.sigma_or_max();

  mr::RawCombineFn combiner;
  if (options.use_combiner &&
      options.frequency_mode == FrequencyMode::kCollection) {
    combiner = mr::SumCombiner();
  }

  // Dictionary spills go to work_dir, or to a private temp dir that
  // outlives every dictionary (declared first, so removed last).
  std::unique_ptr<TempDir> spill_dir;
  std::string dict_dir = options.work_dir;
  std::shared_ptr<const SequenceSet> dict;  // Frequent (k-1)-grams.
  for (uint32_t k = 1; k <= sigma; ++k) {
    mr::JobConfig config =
        MakeBaseJobConfig(options, "apriori-scan-k" + std::to_string(k));

    mr::RecordTable output;
    auto metrics = mr::RunJob<AprioriScanMapper, CountReducer>(
        config, ctx.records,
        [&options, &ctx, k, dict] {
          return std::make_unique<AprioriScanMapper>(options, k,
                                                     ctx.unigram_cf, dict);
        },
        [&options] {
          return std::make_unique<CountReducer>(options.tau,
                                                options.frequency_mode);
        },
        &output, combiner);
    if (!metrics.ok()) {
      return metrics.status();
    }
    mr::JobMetrics job = std::move(metrics).ValueOrDie();
    if (dict != nullptr) {
      job.counters[kDictionaryEntries] = dict->size();
      job.counters[kDictionaryBytes] = dict->MemoryBytes();
    }
    run.metrics.Add(std::move(job));

    if (output.empty()) {
      break;  // No frequent k-grams: no longer n-gram can be frequent.
    }
    const bool last_iteration = (k + 1 > sigma);
    if (!last_iteration) {
      // Build the dictionary for iteration k+1 straight from this
      // iteration's serialized output: the record keys already ARE the
      // encoded k-grams, so inserts are slice copies, not re-encodes.
      if (dict_dir.empty()) {
        NGRAM_ASSIGN_OR_RETURN(TempDir created,
                               TempDir::Create("ngram-apriori-scan"));
        spill_dir = std::make_unique<TempDir>(std::move(created));
        dict_dir = spill_dir->path().string();
      }
      SequenceSet::Options dict_options;
      dict_options.env = options.io_env;
      dict_options.memory_budget_bytes = options.reducer_memory_budget_bytes;
      dict_options.spill_prefix =
          dict_dir + "/apriori-scan-dict-k" + std::to_string(k);
      auto next_dict = std::make_shared<SequenceSet>(dict_options);
      auto reader = output.NewReader();
      while (reader->Next()) {
        NGRAM_RETURN_NOT_OK(next_dict->Insert(reader->key()));
      }
      NGRAM_RETURN_NOT_OK(reader->status());
      NGRAM_RETURN_NOT_OK(next_dict->Finish());
      dict = std::move(next_dict);
    }
    NGRAM_RETURN_NOT_OK(DrainCounts(output, &run.stats));
    if (last_iteration) {
      break;
    }
  }
  return run;
}

}  // namespace ngram
