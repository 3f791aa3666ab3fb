// SequenceSet: a compact hash set of encoded term sequences, used as the
// frequent-(k-1)-gram dictionary of APRIORI-SCAN (Algorithm 2's
// `hashset<int[]> dict`).
//
// Entries are stored back-to-back in an arena ([len varint][bytes]) with an
// open-addressing offset table, so the per-entry overhead stays a few bytes
// — the paper notes that "to make lookups in the dictionary efficient,
// significant main memory at cluster nodes is required", and this structure
// is what keeps that footprint measurable and as small as possible.
//
// Past a configurable budget the set moves to disk (the paper's Berkeley
// DB fallback): the arena's entries are written bytewise-sorted as a block
// run (runfile.h) and the arena starts over. Finish() merges the runs,
// dropping duplicates, into one run that probes read in place through its
// mapping — block index, ReadBlockAt, BlockCursor::Find — exactly as the
// serving store does, so probes from concurrent map tasks take no lock.
// Every byte of those runs goes through the configured IoEnv.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "encoding/sequence.h"
#include "mapreduce/io_env.h"
#include "util/macros.h"
#include "util/slice.h"
#include "util/status.h"

namespace ngram {

class SequenceSet {
 public:
  struct Options {
    /// Budget for arena + bucket table before spilling to disk. SIZE_MAX
    /// never spills. A spill writes at least kMinRunBytes of arena, so a
    /// budget below that arena plus its bucket table spills at that size.
    size_t memory_budget_bytes = SIZE_MAX;
    /// Path prefix of the spill runs, "<prefix>-<n>" (required if
    /// spilling can happen).
    std::string spill_prefix;
    /// I/O environment for the spill runs; nullptr means the default.
    mr::IoEnv* env = nullptr;
  };

  /// Smallest arena a spill writes out.
  static constexpr size_t kMinRunBytes = 4 * 1024;

  SequenceSet() : SequenceSet(Options{}) {}
  explicit SequenceSet(Options options);
  /// Removes every spill run.
  ~SequenceSet();

  NGRAM_DISALLOW_COPY_AND_ASSIGN(SequenceSet);

  /// Inserts an encoded sequence; duplicates are ignored.
  Status Insert(Slice encoded);

  /// Ends the build: merges a spilled set's runs into the one run probes
  /// read. Insert() fails afterwards; a spilled set answers Contains()
  /// only afterwards.
  Status Finish();

  /// Membership test on the encoded form. Safe to call concurrently once
  /// the build is over. A spilled set's probe that meets a damaged block
  /// returns Corruption naming the run.
  Status Contains(Slice encoded, bool* found) const;

  /// Distinct sequences; exact unless the set has spilled and Finish()
  /// has not run yet (duplicates across runs are dropped there).
  uint64_t size() const { return size_; }
  /// Current main-memory footprint (arena + buckets + block index).
  size_t MemoryBytes() const;
  bool spilled() const { return !runs_.empty(); }

 private:
  /// One spill run: a bytewise-sorted block file and its block index.
  struct Run {
    std::string path;
    uint64_t entries = 0;
    std::vector<std::string> first_keys;  // Per block.
    std::vector<uint64_t> offsets;        // Per block; then the file size.
  };
  /// Yields the next key of a sorted stream; false at its end.
  using KeySource = std::function<bool(Slice*)>;

  /// Arena + bucket table: what the budget bounds.
  size_t TableBytes() const;
  bool FindInMemory(Slice encoded, uint64_t hash, size_t* bucket) const;
  Slice EntryAt(uint64_t slot) const;
  void GrowBuckets();
  void ResetBuckets();
  /// Writes the arena's entries as a sorted run and empties the arena.
  Status SpillArena();
  /// Writes the keys of `next` (sorted, distinct) as a new run; fails
  /// with `source_status` if that is not OK once `next` is exhausted.
  Status WriteRun(const KeySource& next, const Status& source_status,
                  Run* run);
  /// Merges every run into one, dropping duplicates.
  Status MergeRuns();
  /// Probes the finished run.
  Status ContainsOnDisk(Slice encoded, bool* found) const;

  /// 1-byte hash tag stored per occupied bucket: probes reject almost all
  /// non-matching buckets on the tag alone, skipping the arena read.
  static uint8_t Tag(uint64_t hash) {
    return static_cast<uint8_t>(hash >> 56);
  }

  Options options_;
  mr::IoEnv* env_;
  // Arena entries: [len varint][bytes]...
  std::string arena_;
  // Bucket table: offset + 1 into arena_, 0 = empty. Power-of-two size.
  std::vector<uint64_t> buckets_;
  // Hash tags, parallel to buckets_ (meaningful where buckets_[b] != 0).
  std::vector<uint8_t> tags_;
  uint64_t size_ = 0;
  uint64_t in_memory_size_ = 0;
  bool finished_ = false;

  std::vector<Run> runs_;  // One after Finish() of a spilled set.
  uint64_t next_run_id_ = 0;
  std::unique_ptr<mr::MmapFile> mapping_;  // Of runs_[0], after Finish().
  // Per block of the finished run: its CRC and structure were checked.
  // A block is checked by the first probe that reads it.
  std::unique_ptr<std::atomic<bool>[]> verified_;
};

}  // namespace ngram
