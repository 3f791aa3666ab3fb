#include "index/sequence_set.h"

#include <algorithm>

#include "encoding/varint.h"
#include "mapreduce/comparator.h"
#include "mapreduce/merge.h"
#include "mapreduce/partitioner.h"
#include "mapreduce/record.h"
#include "mapreduce/runfile.h"
#include "util/logging.h"

namespace ngram {

namespace {
constexpr size_t kInitialBuckets = 1024;
constexpr double kMaxLoadFactor = 0.7;
// Runs are merged into one whenever this many exist, bounding the open
// files of a merge.
constexpr size_t kMaxRuns = 16;
// Payload size of a spill-run block: the unit a probe checks and searches.
constexpr size_t kRunBlockBytes = 4 * 1024;
// Read buffer per merged run.
constexpr size_t kMergeReadBytes = 64 * 1024;

uint64_t HashEncoded(Slice encoded) {
  return mr::HashPartitioner::Hash(encoded);
}
}  // namespace

SequenceSet::SequenceSet(Options options)
    : options_(std::move(options)), env_(mr::ResolveEnv(options_.env)) {
  ResetBuckets();
}

SequenceSet::~SequenceSet() {
  mapping_.reset();
  for (const Run& run : runs_) {
    (void)env_->Unlink(run.path);  // Best effort; unlink is never faulted.
  }
}

size_t SequenceSet::TableBytes() const {
  return arena_.size() + buckets_.size() * sizeof(uint64_t) + tags_.size();
}

size_t SequenceSet::MemoryBytes() const {
  size_t bytes = TableBytes();
  for (const Run& run : runs_) {
    bytes += run.offsets.size() * sizeof(uint64_t);
    for (const std::string& first_key : run.first_keys) {
      bytes += sizeof(std::string) + first_key.size();
    }
  }
  return bytes;
}

Slice SequenceSet::EntryAt(uint64_t slot) const {
  Slice entry(arena_.data() + (slot - 1), arena_.size() - (slot - 1));
  uint64_t len = 0;
  GetVarint64(&entry, &len);
  return Slice(entry.data(), len);
}

bool SequenceSet::FindInMemory(Slice encoded, uint64_t hash,
                               size_t* bucket) const {
  const size_t mask = buckets_.size() - 1;
  const uint8_t tag = Tag(hash);
  size_t b = static_cast<size_t>(hash) & mask;
  for (;;) {
    const uint64_t slot = buckets_[b];
    if (slot == 0) {
      *bucket = b;
      return false;
    }
    // The 1-byte hash tag rejects almost every non-matching occupied
    // bucket without chasing into the arena (the mapper's APRIORI probe
    // is this function's hot caller).
    if (tags_[b] == tag && EntryAt(slot) == encoded) {
      *bucket = b;
      return true;
    }
    b = (b + 1) & mask;
  }
}

void SequenceSet::GrowBuckets() {
  std::vector<uint64_t> old = std::move(buckets_);
  buckets_.assign(old.size() * 2, 0);
  tags_.assign(buckets_.size(), 0);
  const size_t mask = buckets_.size() - 1;
  // Rehash by replaying arena entries (offsets in `old` point into arena_).
  for (uint64_t slot : old) {
    if (slot == 0) {
      continue;
    }
    const uint64_t hash = HashEncoded(EntryAt(slot));
    size_t b = static_cast<size_t>(hash) & mask;
    while (buckets_[b] != 0) {
      b = (b + 1) & mask;
    }
    buckets_[b] = slot;
    tags_[b] = Tag(hash);
  }
}

void SequenceSet::ResetBuckets() {
  buckets_ = std::vector<uint64_t>(kInitialBuckets, 0);
  tags_ = std::vector<uint8_t>(kInitialBuckets, 0);
}

Status SequenceSet::WriteRun(const KeySource& next,
                             const Status& source_status, Run* run) {
  run->path = options_.spill_prefix + "-" + std::to_string(next_run_id_++);
  mr::RunWriterOptions writer_options;
  writer_options.env = env_;
  writer_options.block_bytes = SIZE_MAX;  // Blocks end where the index says.
  std::unique_ptr<mr::RunWriter> writer =
      mr::NewRunWriter(run->path, writer_options);
  Status st = writer->Open();
  size_t block_bytes = 0;  // Raw-size estimate of the open block.
  Slice key;
  while (st.ok() && next(&key)) {
    if (block_bytes == 0) {
      run->first_keys.emplace_back(key.data(), key.size());
      run->offsets.push_back(writer->bytes_written());
    }
    st = writer->Append(key, Slice());
    ++run->entries;
    block_bytes += key.size() + 2;
    if (st.ok() && block_bytes >= kRunBlockBytes) {
      st = writer->FinishSegment();
      block_bytes = 0;
    }
  }
  if (st.ok()) {
    st = source_status;
  }
  if (st.ok()) {
    st = writer->Close();  // Unlinks the partial file on failure.
  }
  if (!st.ok()) {
    writer->Abandon();
    return st;
  }
  run->offsets.push_back(writer->bytes_written());
  return Status::OK();
}

Status SequenceSet::SpillArena() {
  // The bucket table is rebuilt afterwards, so sort the entries' slots in
  // place: occupied slots first, then bytewise by entry.
  const auto end = std::remove_if(buckets_.begin(), buckets_.end(),
                                  [](uint64_t slot) { return slot == 0; });
  std::sort(buckets_.begin(), end, [this](uint64_t a, uint64_t b) {
    return EntryAt(a).compare(EntryAt(b)) < 0;
  });
  auto it = buckets_.begin();
  Run run;
  const Status st = WriteRun(
      [&](Slice* key) {
        if (it == end) {
          return false;
        }
        *key = EntryAt(*it++);
        return true;
      },
      Status::OK(), &run);
  arena_.clear();
  ResetBuckets();
  in_memory_size_ = 0;
  NGRAM_RETURN_NOT_OK(st);
  NGRAM_LOG_DEBUG << "SequenceSet spilled " << run.entries
                  << " sequences to " << run.path;
  runs_.push_back(std::move(run));
  return runs_.size() >= kMaxRuns ? MergeRuns() : Status::OK();
}

Status SequenceSet::MergeRuns() {
  std::vector<std::unique_ptr<mr::RecordReader>> sources;
  for (const Run& run : runs_) {
    sources.push_back(std::make_unique<mr::FileRecordReader>(
        run.path, 0, run.offsets.back(), kMergeReadBytes,
        mr::RunFormat::kBlocks, env_));
  }
  mr::KWayMerger merger(std::move(sources),
                        mr::BytewiseComparator::Instance());
  // Duplicates are adjacent in the merged stream, and the previous key
  // stays valid across one Next() (the reader lookback contract).
  Slice previous;
  bool first = true;
  Run merged;
  Status st = WriteRun(
      [&](Slice* key) {
        while (merger.Next()) {
          const bool duplicate = !first && merger.key() == previous;
          first = false;
          previous = merger.key();
          if (!duplicate) {
            *key = previous;
            return true;
          }
        }
        return false;
      },
      merger.status(), &merged);
  NGRAM_RETURN_NOT_OK(st);
  for (const Run& run : runs_) {
    (void)env_->Unlink(run.path);
  }
  runs_.clear();
  size_ = merged.entries + in_memory_size_;
  runs_.push_back(std::move(merged));
  return Status::OK();
}

Status SequenceSet::Insert(Slice encoded) {
  if (finished_) {
    return Status::Internal("SequenceSet: insert after Finish()");
  }
  const uint64_t hash = HashEncoded(encoded);
  size_t bucket = 0;
  if (FindInMemory(encoded, hash, &bucket)) {
    return Status::OK();
  }
  const uint64_t offset = arena_.size();
  PutVarint64(&arena_, encoded.size());
  arena_.append(encoded.data(), encoded.size());
  buckets_[bucket] = offset + 1;
  tags_[bucket] = Tag(hash);
  ++size_;
  ++in_memory_size_;
  if (static_cast<double>(in_memory_size_) >
      kMaxLoadFactor * static_cast<double>(buckets_.size())) {
    GrowBuckets();
  }
  if (TableBytes() > options_.memory_budget_bytes) {
    if (options_.spill_prefix.empty()) {
      return Status::ResourceExhausted(
          "SequenceSet over budget and no spill_prefix configured");
    }
    if (arena_.size() >= kMinRunBytes) {
      NGRAM_RETURN_NOT_OK(SpillArena());
    }
  }
  return Status::OK();
}

Status SequenceSet::Finish() {
  if (finished_) {
    return Status::OK();
  }
  finished_ = true;
  if (runs_.empty()) {
    return Status::OK();
  }
  if (in_memory_size_ > 0) {
    NGRAM_RETURN_NOT_OK(SpillArena());
  }
  if (runs_.size() > 1) {
    NGRAM_RETURN_NOT_OK(MergeRuns());
  }
  arena_ = std::string();
  buckets_ = std::vector<uint64_t>();
  tags_ = std::vector<uint8_t>();
  const Run& run = runs_.front();
  NGRAM_RETURN_NOT_OK(env_->NewMmapFile(run.path, &mapping_));
  verified_ = std::make_unique<std::atomic<bool>[]>(run.first_keys.size());
  return Status::OK();
}

Status SequenceSet::Contains(Slice encoded, bool* found) const {
  if (spilled()) {
    return ContainsOnDisk(encoded, found);
  }
  size_t bucket = 0;
  *found = FindInMemory(encoded, HashEncoded(encoded), &bucket);
  return Status::OK();
}

Status SequenceSet::ContainsOnDisk(Slice encoded, bool* found) const {
  *found = false;
  if (mapping_ == nullptr) {
    return Status::Internal("SequenceSet: spilled set probed before Finish()");
  }
  const Run& run = runs_.front();
  const auto it = std::upper_bound(
      run.first_keys.begin(), run.first_keys.end(), encoded,
      [](Slice k, const std::string& first) { return k.compare(first) < 0; });
  if (it == run.first_keys.begin()) {
    return Status::OK();  // Before the first key.
  }
  const size_t b = static_cast<size_t>(it - run.first_keys.begin()) - 1;
  const Slice file = mapping_->data();
  Slice payload;
  if (verified_[b].load()) {
    Slice block(file.data() + run.offsets[b],
                run.offsets[b + 1] - run.offsets[b]);
    uint64_t payload_len = 0;
    GetVarint64(&block, &payload_len);
    payload = Slice(block.data(), payload_len);
  } else {
    uint64_t next_offset = 0;
    NGRAM_RETURN_NOT_OK(mr::ReadBlockAt(file, run.offsets[b], run.path,
                                        &payload, &next_offset));
    if (next_offset != run.offsets[b + 1]) {
      return Status::Corruption("block at offset " +
                                std::to_string(run.offsets[b]) + " of " +
                                run.path + " does not match its index");
    }
    verified_[b].store(true);
  }
  mr::BlockCursor cursor(payload);
  Slice value;
  *found = cursor.Find(encoded, &value);
  if (!cursor.ok()) {
    return Status::Corruption("unparsable verified block of " + run.path);
  }
  return Status::OK();
}

}  // namespace ngram
