#include "core/apriori_index.h"

#include <algorithm>
#include <map>

#include "core/counting.h"
#include "mapreduce/spillable_list.h"
#include "util/logging.h"

namespace ngram {

namespace {

/// A (k-1)-gram with its posting list, tagged by which end of the reducer
/// key it extends (Algorithm 3's l-seq / r-seq subtypes).
struct TaggedPostings {
  static constexpr uint8_t kLSeq = 0;  // Key is the sequence's suffix.
  static constexpr uint8_t kRSeq = 1;  // Key is the sequence's prefix.

  uint8_t side = kLSeq;
  TermSequence seq;
  PostingList list;
};

}  // namespace

template <>
struct Serde<TaggedPostings> {
  static void Encode(const TaggedPostings& t, std::string* out) {
    out->push_back(static_cast<char>(t.side));
    std::string seq_bytes;
    SequenceCodec::Encode(t.seq, &seq_bytes);
    PutVarint64(out, seq_bytes.size());
    out->append(seq_bytes);
    Serde<PostingList>::Encode(t.list, out);
  }
  static bool Decode(Slice in, TaggedPostings* t) {
    if (in.empty()) {
      return false;
    }
    t->side = static_cast<uint8_t>(in[0]);
    in.RemovePrefix(1);
    uint64_t seq_len = 0;
    if (!GetVarint64(&in, &seq_len) || seq_len > in.size()) {
      return false;
    }
    if (!SequenceCodec::Decode(Slice(in.data(), seq_len), &t->seq)) {
      return false;
    }
    in.RemovePrefix(seq_len);
    return Serde<PostingList>::Decode(in, &t->list);
  }
};

namespace {

uint64_t FrequencyOfList(const PostingList& list, FrequencyMode mode) {
  return mode == FrequencyMode::kCollection ? list.TotalOccurrences()
                                            : list.DocumentFrequency();
}

// ------------------------------------------------------------- phase 1 --

/// Mapper #1: per-document positional aggregation of k-grams.
class IndexScanMapper final
    : public mr::Mapper<uint64_t, Fragment, TermSequence, Posting> {
 public:
  IndexScanMapper(const NgramJobOptions& options, uint32_t k,
                  std::shared_ptr<const UnigramFrequencies> unigram_cf)
      : options_(options), k_(k), unigram_cf_(std::move(unigram_cf)) {}

  Status Map(const uint64_t& doc_id, const Fragment& fragment,
             Context* ctx) override {
    // Local aggregation (Algorithm 3 Mapper #1): collect positions per
    // k-gram within this fragment, then emit one posting each.
    positions_.clear();
    ForEachPiece(fragment, options_.document_splits, *unigram_cf_,
                 options_.tau, [&](const Fragment& piece) {
                   const auto& terms = piece.terms;
                   if (terms.size() < k_) {
                     return;
                   }
                   TermSequence kgram;
                   for (size_t b = 0; b + k_ <= terms.size(); ++b) {
                     kgram.assign(terms.begin() + b, terms.begin() + b + k_);
                     positions_[kgram].push_back(piece.base +
                                                 static_cast<uint32_t>(b));
                   }
                 });
    for (auto& [kgram, pos] : positions_) {
      Posting posting;
      posting.doc_id = doc_id;
      posting.positions = std::move(pos);
      NGRAM_RETURN_NOT_OK(ctx->Emit(kgram, posting));
    }
    return Status::OK();
  }

 private:
  const NgramJobOptions options_;
  const uint32_t k_;
  const std::shared_ptr<const UnigramFrequencies> unigram_cf_;
  std::map<TermSequence, std::vector<uint32_t>> positions_;
};

/// Reducer #1: assembles the posting list of a k-gram; emits it when
/// frequent. Multiple fragments of one document produce multiple postings
/// with the same doc id — they are merged.
class IndexBuildReducer final
    : public mr::Reducer<TermSequence, Posting, TermSequence, PostingList> {
 public:
  IndexBuildReducer(uint64_t tau, FrequencyMode mode)
      : tau_(tau), mode_(mode) {}

  Status Reduce(const TermSequence& key, Values* values,
                Context* ctx) override {
    std::vector<Posting> postings;
    Posting p;
    while (values->Next(&p)) {
      postings.push_back(std::move(p));
    }
    std::sort(postings.begin(), postings.end(),
              [](const Posting& a, const Posting& b) {
                if (a.doc_id != b.doc_id) {
                  return a.doc_id < b.doc_id;
                }
                return a.positions < b.positions;
              });
    PostingList list;
    for (auto& posting : postings) {
      if (!list.postings.empty() &&
          list.postings.back().doc_id == posting.doc_id) {
        auto& dst = list.postings.back().positions;
        dst.insert(dst.end(), posting.positions.begin(),
                   posting.positions.end());
        std::sort(dst.begin(), dst.end());
      } else {
        list.postings.push_back(std::move(posting));
      }
    }
    if (FrequencyOfList(list, mode_) >= tau_) {
      return ctx->Emit(key, std::move(list));
    }
    return Status::OK();
  }

 private:
  const uint64_t tau_;
  const FrequencyMode mode_;
};

// ------------------------------------------------------------- phase 2 --

/// Mapper #2: re-keys every frequent (k-1)-gram by its prefix and suffix.
///
/// Runs raw over the previous round's serialized output: the prefix and
/// suffix keys are sub-slices of the encoded sequence (one varint boundary
/// scan), and the TaggedPostings value is assembled byte-for-byte from the
/// key and value slices — the posting list is never decoded, copied into a
/// typed struct, or re-encoded (the old path did all three, twice).
class IndexJoinMapper final
    : public mr::RawMapper<TermSequence, TaggedPostings> {
 public:
  Status Map(Slice seq, Slice list, Context* ctx) override {
    if (!SequenceCodec::TermOffsets(seq, &offsets_) ||
        offsets_.size() < 2) {
      return Status::Internal("phase-2 input must be non-empty");
    }
    // Serde<TaggedPostings> wire form: [side][varint |seq|][seq][list].
    value_.clear();
    value_.push_back(static_cast<char>(TaggedPostings::kRSeq));
    PutVarint64(&value_, seq.size());
    value_.append(seq.data(), seq.size());
    value_.append(list.data(), list.size());

    // With K = 1 the shared prefix/suffix is the empty sequence: every pair
    // joins on one reducer (a degenerate but correct configuration).
    const size_t last_term = offsets_[offsets_.size() - 2];
    const Slice prefix(seq.data(), last_term);
    // Key is this sequence's prefix.
    NGRAM_RETURN_NOT_OK(ctx->EmitRaw(prefix, value_));

    const size_t first_len = offsets_[1];
    const Slice suffix(seq.data() + first_len, seq.size() - first_len);
    value_[0] = static_cast<char>(TaggedPostings::kLSeq);
    // Key is this sequence's suffix.
    return ctx->EmitRaw(suffix, value_);
  }

 private:
  std::vector<uint32_t> offsets_;  // Reused across records.
  std::string value_;              // Reused across records.
};

/// Reducer #2: joins every compatible l-seq/r-seq pair. Past the memory
/// budget a side's buffer moves to a run file in the job's work_dir; the
/// files are removed when the group ends, whatever its outcome.
class IndexJoinReducer final
    : public mr::Reducer<TermSequence, TaggedPostings, TermSequence,
                         PostingList> {
 public:
  explicit IndexJoinReducer(const NgramJobOptions& options)
      : options_(options) {}

  Status Reduce(const TermSequence& key, Values* values,
                Context* ctx) override {
    // Separate buffers for the two sides; each holds (k-1)-grams with
    // posting lists and may exceed memory. The names are private to this
    // reduce attempt, so a retry never meets a discarded attempt's file.
    const std::string base =
        ctx->work_dir() + "/join-r" + std::to_string(ctx->reducer_id()) +
        "-a" + std::to_string(ctx->attempt()) + "-g" +
        std::to_string(group_seq_++);
    const size_t side_budget = options_.reducer_memory_budget_bytes / 2;
    mr::SpillableList<TaggedPostings> left(base + "-l", side_budget,
                                           options_.io_env);
    mr::SpillableList<TaggedPostings> right(base + "-r", side_budget,
                                            options_.io_env);

    TaggedPostings t;
    while (values->Next(&t)) {
      if (t.side == TaggedPostings::kLSeq) {
        NGRAM_RETURN_NOT_OK(left.Append(t));
      } else {
        NGRAM_RETURN_NOT_OK(right.Append(t));
      }
    }

    // Nested-loop join over compatible pairs (Algorithm 3 Reducer #2).
    return left.ForEach([&](const TaggedPostings& m) -> Status {
      return right.ForEach([&](const TaggedPostings& n) -> Status {
        PostingList joined = JoinAdjacent(m.list, n.list);
        if (FrequencyOfList(joined, options_.frequency_mode) >=
            options_.tau) {
          TermSequence j = m.seq;
          j.push_back(n.seq.back());
          NGRAM_RETURN_NOT_OK(ctx->Emit(std::move(j), std::move(joined)));
        }
        return Status::OK();
      });
    });
  }

 private:
  const NgramJobOptions options_;
  uint64_t group_seq_ = 0;
};

}  // namespace

Result<AprioriIndexResult> RunAprioriIndexWithIndex(
    const CorpusContext& ctx, const NgramJobOptions& options) {
  AprioriIndexResult result;
  const uint32_t sigma = options.sigma_or_max();
  const uint32_t cap_k = std::max<uint32_t>(1, options.apriori_index_k);

  // Rounds chain serialized: round k's reducer output feeds round k+1's
  // mappers as slices. The typed decode below happens once per round,
  // only to fold frequent k-grams into the run's stats and the returned
  // index — never to re-encode for the next job.
  mr::RecordTable previous;

  // Decodes one round's serialized output into stats + index.
  auto drain_round = [&](const mr::RecordTable& output) -> Status {
    auto reader = output.NewReader();
    TermSequence seq;
    PostingList list;
    while (reader->Next()) {
      if (!Serde<TermSequence>::Decode(reader->key(), &seq) ||
          !Serde<PostingList>::Decode(reader->value(), &list)) {
        return Status::Corruption("apriori-index: bad (k-gram, postings)");
      }
      result.run.stats.Add(seq,
                           FrequencyOfList(list, options.frequency_mode));
      result.index.Add(seq, list);
    }
    return reader->status();
  };

  // ----- Phase 1: k = 1 .. min(K, sigma), scanning the input each time.
  const uint32_t phase1_end = std::min(cap_k, sigma);
  for (uint32_t k = 1; k <= phase1_end; ++k) {
    mr::JobConfig config =
        MakeBaseJobConfig(options, "apriori-index-scan-k" + std::to_string(k));
    mr::RecordTable output;
    auto metrics = mr::RunJob<IndexScanMapper, IndexBuildReducer>(
        config, ctx.records,
        [&options, &ctx, k] {
          return std::make_unique<IndexScanMapper>(options, k,
                                                   ctx.unigram_cf);
        },
        [&options] {
          return std::make_unique<IndexBuildReducer>(
              options.tau, options.frequency_mode);
        },
        &output);
    if (!metrics.ok()) {
      return metrics.status();
    }
    result.run.metrics.Add(std::move(metrics).ValueOrDie());
    if (output.empty()) {
      return result;  // Nothing frequent at this length: done.
    }
    NGRAM_RETURN_NOT_OK(drain_round(output));
    previous = std::move(output);
  }

  // ----- Phase 2: k = K+1 .. sigma, joining posting lists.
  for (uint32_t k = phase1_end + 1; k <= sigma; ++k) {
    mr::JobConfig config =
        MakeBaseJobConfig(options, "apriori-index-join-k" + std::to_string(k));
    mr::RecordTable output;
    auto metrics = mr::RunJob<IndexJoinMapper, IndexJoinReducer>(
        config, previous, [] { return std::make_unique<IndexJoinMapper>(); },
        [&options] { return std::make_unique<IndexJoinReducer>(options); },
        &output);
    if (!metrics.ok()) {
      return metrics.status();
    }
    result.run.metrics.Add(std::move(metrics).ValueOrDie());
    if (output.empty()) {
      break;
    }
    NGRAM_RETURN_NOT_OK(drain_round(output));
    previous = std::move(output);
  }
  return result;
}

Result<NgramRun> RunAprioriIndex(const CorpusContext& ctx,
                                 const NgramJobOptions& options) {
  auto result = RunAprioriIndexWithIndex(ctx, options);
  if (!result.ok()) {
    return result.status();
  }
  return std::move(result.ValueOrDie().run);
}

}  // namespace ngram
