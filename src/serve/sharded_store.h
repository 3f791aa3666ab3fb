// Read-only sharded store over serving segments — the query-side view of
// the statistics a batch run computed.
//
// A store is an immutable snapshot: Open() reads the CRC-verified
// MANIFEST, mmaps every shard segment and the completion segment, and
// from then on nothing mutates but the completion segment's per-block
// "checked" flags (atomics, set once) — so any number of threads query
// one store with no locking. The single synchronization point on the
// read path is the (optional) BlockCache's LRU mutex; with caching
// disabled even that disappears and every query reads its block in place
// from the mapping.
//
// Read path of Count(key):
//   route:  binary-search the shard table by min_key        (no I/O)
//   block:  binary-search the shard's block index           (no I/O)
//   fetch:  BlockCache hit, or — on a miss — check the ~16 KiB block
//           against its manifest extent, its CRC and its payload
//           structure in the mmap, then cache a heap copy of the still
//           compressed payload; a flipped bit anywhere in the segment
//           surfaces as Corruption naming the file, never a wrong count
//   seek:   binary-search the block's own restart array (restart entries
//           store whole keys), then walk at most one restart interval of
//           front-coded entries in place (mr::BlockCursor), comparing
//           each entry's key suffix against the probe without rebuilding
//           keys
//
// Read path of Completions(prefix):
//   route:  binary-search the completion segment's block index (no I/O)
//   check:  on the block's first use, its extent, CRC and structure in
//           the mmap (mr::ReadBlockAt); one atomic flag per block records
//           a passed check, so later reads skip it. A failed check sets no
//           flag and fails again on every attempt
//   seek:   mr::BlockCursor::Find of the prefix, then decode the first
//           pairs of its ranked list in place
// Completion blocks never enter the BlockCache: they would evict the
// shard blocks Count depends on, and once checked they cost nothing to
// read in place.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "encoding/sequence.h"
#include "mapreduce/io_env.h"
#include "serve/block_cache.h"
#include "serve/manifest.h"
#include "util/macros.h"
#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"

namespace ngram::serve {

/// Tuning knobs for opening a store.
struct ServingOptions {
  /// Shared block cache; a private cache of `cache_bytes` is created when
  /// null. Sharing one cache across stores is safe — cache file ids are
  /// process-unique.
  std::shared_ptr<kv::BlockCache> cache;
  /// Capacity of the private cache when `cache` is null, charged in
  /// compressed payload bytes; 0 disables caching (every query checks and
  /// reads its block in place in the mapping).
  size_t cache_bytes = 64 * 1024 * 1024;
  /// I/O environment for manifest reads and segment mappings.
  mr::IoEnv* env = nullptr;
};

/// \brief Immutable, mmap-backed, sharded (n-gram -> count) store.
///
/// Keys are varbyte-encoded term sequences compared bytewise (see
/// manifest.h). All const methods are safe to call concurrently.
class ShardedStatsStore {
 public:
  /// Opens the serving directory `dir`. The returned store is fully
  /// self-contained (manifest parsed, segments mapped) and immutable.
  static Result<std::shared_ptr<const ShardedStatsStore>> Open(
      const std::string& dir, ServingOptions options = {});

  NGRAM_DISALLOW_COPY_AND_ASSIGN(ShardedStatsStore);

  /// Frequency of the encoded n-gram `key`; sets `*count` to 0 when the
  /// key is absent (absence is not an error — tau cut n-grams off).
  Status Count(Slice key, uint64_t* count) const;

  /// Invokes `fn(key, count)` for every record in the bytewise key range
  /// [lower, upper), in ascending key order, crossing shard boundaries as
  /// needed. An empty `upper` means "to the end of the store" (prefix
  /// scans whose exclusive upper bound has no byte representation — an
  /// all-0xFF prefix — pass this). `fn` returning false stops the scan
  /// early (still OK).
  Status ScanRange(Slice lower, Slice upper,
                   const std::function<bool(Slice, uint64_t)>& fn) const;

  /// Invokes `fn(term, count)` for the stored one-term extensions of the
  /// encoded prefix `prefix` (empty = the root, whose extensions are the
  /// unigrams), at most `limit` of them, ranked by count descending then
  /// term ascending. A prefix with no stored extension invokes nothing.
  Status Completions(Slice prefix, size_t limit,
                     const std::function<void(TermId, uint64_t)>& fn) const;

  /// Index of the shard whose key range would hold `key` (the router).
  /// Exposed for the router property tests; -1 when the store is empty.
  int ShardOf(Slice key) const;

  const Manifest& manifest() const { return manifest_; }
  size_t num_shards() const { return shards_.size(); }
  uint64_t total_records() const { return manifest_.total_records; }
  const std::string& dir() const { return dir_; }

  /// Counters of the block cache backing this store.
  kv::BlockCacheStats CacheStats() const { return cache_->Snapshot(); }
  const std::shared_ptr<kv::BlockCache>& cache() const { return cache_; }

 private:
  struct Shard {
    std::string path;
    uint64_t cache_file_id = 0;
    std::unique_ptr<mr::MmapFile> mapping;
    const ShardEntry* entry = nullptr;  // Into manifest_.shards.
  };

  /// The completion segment: read in place, checked once per block.
  struct CompletionSegment {
    std::string path;
    std::unique_ptr<mr::MmapFile> mapping;
    const ShardEntry* entry = nullptr;  // &manifest_.completions.
    /// Per block: its extent, CRC and structure were checked.
    std::unique_ptr<std::atomic<bool>[]> checked;
  };

  ShardedStatsStore() = default;

  /// Sets `*payload` to the verified payload of block `block_index` of
  /// `shard`: a cached copy, or on a miss the block checked in the
  /// mapping (extent, CRC, structure) and — when the cache has capacity —
  /// copied and cached. `*holder` keeps a copy alive while `*payload` is
  /// read; it stays null for in-mapping reads.
  Status GetBlock(const Shard& shard, size_t block_index,
                  std::shared_ptr<const std::string>* holder,
                  Slice* payload) const;

  /// Index of the last block of `entry` whose first_key <= key, or -1
  /// when key precedes the first block.
  static int BlockOf(const ShardEntry& entry, Slice key);

  std::string dir_;
  Manifest manifest_;
  std::vector<Shard> shards_;
  CompletionSegment completions_;
  std::shared_ptr<kv::BlockCache> cache_;
};

}  // namespace ngram::serve
