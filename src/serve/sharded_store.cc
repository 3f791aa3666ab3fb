#include "serve/sharded_store.h"

#include <algorithm>

#include "encoding/varint.h"
#include "mapreduce/runfile.h"

namespace ngram::serve {

namespace {

/// Count value decode (builder writes one varint64 per record).
Status DecodeCount(Slice value, const std::string& path, uint64_t* count) {
  if (!GetVarint64(&value, count) || !value.empty()) {
    return Status::Corruption("malformed count value in " + path);
  }
  return Status::OK();
}

/// Corruption for a payload the cursor could not parse. GetBlock hands
/// out verified payloads only, so this is a process bug (e.g. a foreign
/// value under our cache file id), not disk state.
Status UnparsableBlock(const std::string& path) {
  return Status::Corruption("unparsable verified block of " + path);
}

/// Maps the segment `entry` of `dir` and checks that its block extents
/// tile the file; an empty segment (no blocks) is allowed only when
/// `may_be_empty`.
Status MapSegment(const std::string& dir, const ShardEntry& entry,
                  bool may_be_empty, mr::IoEnv* env, std::string* path,
                  std::unique_ptr<mr::MmapFile>* mapping) {
  *path = dir + "/" + entry.file_name;
  NGRAM_RETURN_NOT_OK(env->NewMmapFile(*path, mapping));
  if ((*mapping)->data().size() != entry.file_size) {
    return Status::Corruption(
        *path + ": size " + std::to_string((*mapping)->data().size()) +
        " does not match manifest (" + std::to_string(entry.file_size) +
        ")");
  }
  // The manifest CRC already vouches for the index itself; this checks
  // that the index and the segment agree — blocks must tile the file.
  uint64_t expected_offset = 0;
  for (const BlockEntry& block : entry.blocks) {
    if (block.offset != expected_offset || block.length == 0) {
      return Status::Corruption(*path +
                                ": manifest block extents do not tile "
                                "the segment");
    }
    expected_offset += block.length;
  }
  if (expected_offset != entry.file_size ||
      (entry.blocks.empty() && !may_be_empty)) {
    return Status::Corruption(*path +
                              ": manifest block extents do not tile "
                              "the segment");
  }
  return Status::OK();
}

}  // namespace

Result<std::shared_ptr<const ShardedStatsStore>> ShardedStatsStore::Open(
    const std::string& dir, ServingOptions options) {
  std::shared_ptr<ShardedStatsStore> store(new ShardedStatsStore());
  store->dir_ = dir;
  NGRAM_RETURN_NOT_OK(ReadManifest(dir, &store->manifest_, options.env));

  store->cache_ = options.cache != nullptr
                      ? options.cache
                      : std::make_shared<kv::BlockCache>(options.cache_bytes);

  mr::IoEnv* env = mr::ResolveEnv(options.env);
  store->shards_.reserve(store->manifest_.shards.size());
  for (const ShardEntry& entry : store->manifest_.shards) {
    Shard shard;
    shard.entry = &entry;
    shard.cache_file_id = kv::AllocateCacheFileId();
    NGRAM_RETURN_NOT_OK(MapSegment(dir, entry, /*may_be_empty=*/false, env,
                                   &shard.path, &shard.mapping));
    store->shards_.push_back(std::move(shard));
  }
  CompletionSegment& completions = store->completions_;
  completions.entry = &store->manifest_.completions;
  NGRAM_RETURN_NOT_OK(MapSegment(dir, *completions.entry,
                                 /*may_be_empty=*/true, env,
                                 &completions.path, &completions.mapping));
  completions.checked = std::make_unique<std::atomic<bool>[]>(
      completions.entry->blocks.size());
  return std::shared_ptr<const ShardedStatsStore>(std::move(store));
}

int ShardedStatsStore::ShardOf(Slice key) const {
  if (shards_.empty()) {
    return -1;
  }
  // Last shard whose min_key <= key; keys before every shard route to
  // shard 0 (where they are — correctly — absent).
  auto it = std::upper_bound(
      manifest_.shards.begin(), manifest_.shards.end(), key,
      [](Slice k, const ShardEntry& s) { return k.compare(s.min_key) < 0; });
  if (it == manifest_.shards.begin()) {
    return 0;
  }
  return static_cast<int>(it - manifest_.shards.begin()) - 1;
}

int ShardedStatsStore::BlockOf(const ShardEntry& entry, Slice key) {
  auto it = std::upper_bound(
      entry.blocks.begin(), entry.blocks.end(), key,
      [](Slice k, const BlockEntry& b) { return k.compare(b.first_key) < 0; });
  return static_cast<int>(it - entry.blocks.begin()) - 1;
}

Status ShardedStatsStore::GetBlock(const Shard& shard, size_t block_index,
                                   std::shared_ptr<const std::string>* holder,
                                   Slice* payload) const {
  const kv::BlockKey cache_key{shard.cache_file_id,
                               static_cast<uint64_t>(block_index)};
  if (auto cached = cache_->Lookup(cache_key)) {
    *payload = Slice(*cached);
    *holder = std::move(cached);
    return Status::OK();
  }
  const BlockEntry& block = shard.entry->blocks[block_index];
  Slice verified;
  uint64_t next_offset = 0;
  NGRAM_RETURN_NOT_OK(mr::ReadBlockAt(shard.mapping->data(), block.offset,
                                      shard.path, &verified, &next_offset));
  if (next_offset != block.offset + block.length) {
    return Status::Corruption(
        "block at offset " + std::to_string(block.offset) + " of " +
        shard.path + " does not match its manifest extent");
  }
  if (cache_->capacity_bytes() == 0) {
    *payload = verified;  // The mapping outlives every query.
    return Status::OK();
  }
  auto copy =
      std::make_shared<const std::string>(verified.data(), verified.size());
  *payload = Slice(*copy);
  *holder = copy;
  cache_->Insert(cache_key, std::move(copy));
  return Status::OK();
}

Status ShardedStatsStore::Count(Slice key, uint64_t* count) const {
  *count = 0;
  if (shards_.empty()) {
    return Status::OK();
  }
  const int s = ShardOf(key);
  const Shard& shard = shards_[static_cast<size_t>(s)];
  const ShardEntry& entry = *shard.entry;
  if (key.compare(entry.min_key) < 0 || key.compare(entry.max_key) > 0) {
    return Status::OK();  // Routed here, but outside the stored range.
  }
  const int b = BlockOf(entry, key);
  if (b < 0) {
    return Status::OK();
  }
  std::shared_ptr<const std::string> holder;
  Slice payload;
  NGRAM_RETURN_NOT_OK(
      GetBlock(shard, static_cast<size_t>(b), &holder, &payload));
  mr::BlockCursor cursor(payload);
  Slice value;
  if (cursor.Find(key, &value)) {
    return DecodeCount(value, shard.path, count);
  }
  return cursor.ok() ? Status::OK() : UnparsableBlock(shard.path);
}

Status ShardedStatsStore::ScanRange(
    Slice lower, Slice upper,
    const std::function<bool(Slice, uint64_t)>& fn) const {
  // Empty `upper` = unbounded (see header).
  const auto before_upper = [&upper](Slice key) {
    return upper.empty() || key.compare(upper) < 0;
  };
  if (shards_.empty() || !before_upper(lower)) {
    return Status::OK();
  }
  const int first_shard = ShardOf(lower);
  for (size_t s = static_cast<size_t>(first_shard); s < shards_.size();
       ++s) {
    const Shard& shard = shards_[s];
    const ShardEntry& entry = *shard.entry;
    if (!before_upper(entry.min_key)) {
      break;  // Every later shard starts past the range.
    }
    const int first_block = std::max(0, BlockOf(entry, lower));
    for (size_t b = static_cast<size_t>(first_block);
         b < entry.blocks.size(); ++b) {
      if (!before_upper(entry.blocks[b].first_key)) {
        return Status::OK();
      }
      std::shared_ptr<const std::string> holder;
      Slice payload;
      NGRAM_RETURN_NOT_OK(GetBlock(shard, b, &holder, &payload));
      mr::BlockCursor cursor(payload);
      if (b == static_cast<size_t>(first_block)) {
        // Restart-seek `lower` in the first block of each shard we enter;
        // entries between the anchor and `lower` are skipped below.
        cursor.Seek(lower);
      }
      while (cursor.Next()) {
        if (cursor.key().compare(lower) < 0) {
          continue;
        }
        if (!before_upper(cursor.key())) {
          return Status::OK();
        }
        uint64_t count = 0;
        NGRAM_RETURN_NOT_OK(DecodeCount(cursor.value(), shard.path, &count));
        if (!fn(cursor.key(), count)) {
          return Status::OK();
        }
      }
      if (!cursor.ok()) {
        return UnparsableBlock(shard.path);
      }
    }
  }
  return Status::OK();
}

Status ShardedStatsStore::Completions(
    Slice prefix, size_t limit,
    const std::function<void(TermId, uint64_t)>& fn) const {
  const CompletionSegment& segment = completions_;
  const ShardEntry& entry = *segment.entry;
  if (limit == 0 || entry.blocks.empty() ||
      prefix.compare(entry.min_key) < 0 ||
      prefix.compare(entry.max_key) > 0) {
    return Status::OK();
  }
  const size_t b = static_cast<size_t>(BlockOf(entry, prefix));
  const BlockEntry& block = entry.blocks[b];
  const Slice file = segment.mapping->data();
  Slice payload;
  if (segment.checked[b].load()) {
    Slice framed(file.data() + block.offset,
                 static_cast<size_t>(block.length));
    uint64_t payload_len = 0;
    GetVarint64(&framed, &payload_len);  // Checked with the block.
    payload = Slice(framed.data(), static_cast<size_t>(payload_len));
  } else {
    uint64_t next_offset = 0;
    NGRAM_RETURN_NOT_OK(mr::ReadBlockAt(file, block.offset, segment.path,
                                        &payload, &next_offset));
    if (next_offset != block.offset + block.length) {
      return Status::Corruption(
          "block at offset " + std::to_string(block.offset) + " of " +
          segment.path + " does not match its manifest extent");
    }
    segment.checked[b].store(true);
  }
  mr::BlockCursor cursor(payload);
  Slice list;
  if (!cursor.Find(prefix, &list)) {
    return cursor.ok() ? Status::OK() : UnparsableBlock(segment.path);
  }
  // The block CRC vouches for the bytes; the pairs are still parsed with
  // bounds checks and must be ranked, so a malformed list is Corruption
  // rather than a wrong answer.
  uint64_t prev_count = 0;
  TermId prev_term = 0;
  for (size_t i = 0; i < limit && !list.empty(); ++i) {
    TermId term = 0;
    uint64_t count = 0;
    if (!GetVarint32(&list, &term) || !GetVarint64(&list, &count) ||
        (i > 0 && (count > prev_count ||
                   (count == prev_count && term <= prev_term)))) {
      return Status::Corruption("malformed completion list in " +
                                segment.path);
    }
    fn(term, count);
    prev_count = count;
    prev_term = term;
  }
  return Status::OK();
}

}  // namespace ngram::serve
