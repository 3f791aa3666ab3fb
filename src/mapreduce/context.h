// Map/Reduce contexts and the streaming value iterator handed to reducers.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "encoding/serde.h"
#include "mapreduce/comparator.h"
#include "mapreduce/counters.h"
#include "mapreduce/dataset.h"
#include "mapreduce/merge.h"
#include "mapreduce/partitioner.h"
#include "mapreduce/sort_buffer.h"
#include "util/status.h"

namespace ngram::mr {

/// \brief Emission context passed to mappers.
///
/// Emit() serializes the pair, charges MAP_OUTPUT_RECORDS/BYTES exactly as
/// Hadoop does (key bytes + value bytes at emission time), partitions on the
/// serialized key, and hands the record to the task's sort buffer.
///
/// Both emit paths encode into a single reusable per-task scratch buffer,
/// so the hot loop performs no per-record allocation. EmitEncodedKey() is
/// the zero-copy fast path for mappers that already hold the serialized
/// key bytes (e.g. as a slice of a once-encoded document).
template <typename K, typename V>
class MapContext {
 public:
  MapContext(const Partitioner* partitioner, uint32_t num_partitions,
             SortBuffer* buffer, TaskCounters* counters, uint32_t task_id)
      : partitioner_(partitioner),
        num_partitions_(num_partitions),
        buffer_(buffer),
        counters_(counters),
        task_id_(task_id) {}

  Status Emit(const K& key, const V& value) {
    scratch_.clear();
    Serde<K>::Encode(key, &scratch_);
    const size_t key_len = scratch_.size();
    Serde<V>::Encode(value, &scratch_);
    return EmitFramed(Slice(scratch_.data(), key_len),
                      Slice(scratch_.data() + key_len,
                            scratch_.size() - key_len));
  }

  /// Emits a record whose key is already serialized. `key_bytes` must be
  /// the exact Serde<K> wire form; it is consumed before this returns.
  Status EmitEncodedKey(Slice key_bytes, const V& value) {
    scratch_.clear();
    Serde<V>::Encode(value, &scratch_);
    return EmitFramed(key_bytes, Slice(scratch_));
  }

  /// Fully raw emit: both sides already in Serde wire form (chained-input
  /// mappers forwarding or re-slicing serialized records). Bytes are
  /// consumed before this returns.
  Status EmitRaw(Slice key_bytes, Slice value_bytes) {
    return EmitFramed(key_bytes, value_bytes);
  }

  TaskCounters* counters() { return counters_; }
  uint32_t task_id() const { return task_id_; }

  /// Publishes the emit counters accumulated by this context. Called by
  /// the driver once per task attempt, after Cleanup() — per-emit counter
  /// bookkeeping stays two plain member additions on the hot path.
  void FlushCounters() {
    counters_->Increment(kMapOutputRecords, emitted_records_);
    counters_->Increment(kMapOutputBytes, emitted_bytes_);
    emitted_records_ = 0;
    emitted_bytes_ = 0;
  }

 private:
  Status EmitFramed(Slice key_bytes, Slice value_bytes) {
    ++emitted_records_;
    emitted_bytes_ += key_bytes.size() + value_bytes.size();
    const uint32_t p = partitioner_->Partition(key_bytes, num_partitions_);
    return buffer_->Add(p, key_bytes, value_bytes);
  }

  const Partitioner* partitioner_;
  uint32_t num_partitions_;
  SortBuffer* buffer_;
  TaskCounters* counters_;
  uint32_t task_id_;
  uint64_t emitted_records_ = 0;
  uint64_t emitted_bytes_ = 0;
  std::string scratch_;
};

/// \brief Output context passed to reducers; appends serialized records to
/// the job's output RecordTable.
///
/// Emit() serializes the typed pair through one reusable scratch buffer.
/// EmitRaw() is the zero-copy path for raw reducers that already hold the
/// serialized bytes — counting/aggregation reducers re-emit the group's
/// key slice verbatim and never decode it. Either way the output stays
/// serialized across the job boundary; typed consumers decode once at the
/// end of the pipeline (or through RunJob's MemoryTable shim).
template <typename K, typename V>
class ReduceContext {
 public:
  ReduceContext(RecordTable* output, TaskCounters* counters,
                uint32_t reducer_id, uint32_t attempt, std::string work_dir)
      : output_(output),
        counters_(counters),
        reducer_id_(reducer_id),
        attempt_(attempt),
        work_dir_(std::move(work_dir)) {}

  Status Emit(const K& key, const V& value) {
    scratch_.clear();
    Serde<K>::Encode(key, &scratch_);
    const size_t key_len = scratch_.size();
    Serde<V>::Encode(value, &scratch_);
    return EmitRaw(Slice(scratch_.data(), key_len),
                   Slice(scratch_.data() + key_len,
                         scratch_.size() - key_len));
  }

  /// Emits a record already in Serde<K>/Serde<V> wire form. Bytes are
  /// copied into the output table before this returns.
  Status EmitRaw(Slice key_bytes, Slice value_bytes) {
    output_->Append(key_bytes, value_bytes);
    counters_->Increment(kReduceOutputRecords);
    return Status::OK();
  }

  TaskCounters* counters() { return counters_; }
  uint32_t reducer_id() const { return reducer_id_; }
  /// This reduce task's attempt number, unique per task within the job.
  uint32_t attempt() const { return attempt_; }
  /// The job's work_dir, where reducers keep scratch files. Names must be
  /// private to (reducer_id(), attempt()), and the files gone when the
  /// attempt ends.
  const std::string& work_dir() const { return work_dir_; }

 private:
  RecordTable* output_;
  TaskCounters* counters_;
  uint32_t reducer_id_;
  uint32_t attempt_;
  std::string work_dir_;
  std::string scratch_;
};

/// \brief Zero-copy iterator over one key group of the merge stream.
///
/// The driver positions the merger on the first record of a group and
/// hands the group to the reducer as this iterator. Advancing detects the
/// group boundary by comparing *adjacent* records under the grouping
/// comparator, on the merger's cached key slices — the group's leading key
/// is never copied and no value is materialized or decoded. The adjacent
/// compare is sound because the merge stream is sorted (grouping-equal
/// records are contiguous) and the previous record's key bytes survive one
/// merger advance (the RecordReader lookback contract).
///
/// When the grouping order *is* the sort order, the merger's cached 8-byte
/// sort prefixes short-circuit the boundary check: differing prefixes
/// prove a boundary without touching key bytes.
///
/// After the group is exhausted, key() still returns the key of the last
/// record consumed — valid until the merger advances again, which lets
/// aggregate-then-emit reducers (counting) serialize or decode the group
/// key after draining the values, paying the decode only for groups they
/// actually emit.
class GroupValueIterator final : public RawValueIterator {
 public:
  GroupValueIterator(KWayMerger* merger, const RawComparator* grouping,
                     bool grouping_is_sort_order)
      : merger_(merger),
        grouping_(grouping),
        prefix_conclusive_(grouping_is_sort_order),
        key_(merger->key()),
        prefix_(merger->key_prefix()) {}

  bool NextValue() override {
    if (group_done_) {
      return false;
    }
    if (pending_) {
      pending_ = false;  // Consume the record the merger is already on.
      ++consumed_;
      return true;
    }
    // key_/prefix_ describe the record consumed last; its bytes stay valid
    // across this single merger advance (lookback contract).
    if (!merger_->Next()) {
      group_done_ = true;
      return false;
    }
    const bool boundary =
        (prefix_conclusive_ && merger_->key_prefix() != prefix_) ||
        grouping_->Compare(merger_->key(), key_) != 0;
    if (boundary) {
      group_done_ = true;
      next_group_ready_ = true;  // Record belongs to the following group.
      return false;
    }
    key_ = merger_->key();
    prefix_ = merger_->key_prefix();
    ++consumed_;
    return true;
  }

  Slice key() const override { return key_; }
  Slice value() const override { return merger_->value(); }

  /// Consumes any unread values so the driver can move to the next group.
  void SkipRemaining() { Count(); }

  /// True when the merger already sits on the first record of the next
  /// group (i.e. the group ended at a key change, not at end of stream).
  bool next_group_ready() const { return next_group_ready_; }

 private:
  KWayMerger* merger_;
  const RawComparator* grouping_;
  const bool prefix_conclusive_;
  Slice key_;        // Key of the last consumed record (leading key first).
  uint64_t prefix_;  // Its cached sort prefix.
  bool pending_ = true;  // Merger is on an unconsumed record of this group.
  bool group_done_ = false;
  bool next_group_ready_ = false;
};

/// \brief Lazily deserializing typed view over a group's values.
///
/// The typed-reducer adapter wraps the raw group iterator in this stream;
/// values are decoded on demand, so a reducer that only needs |l| (like
/// SUFFIX-sigma's) can use Count() and never pay a decode.
template <typename V>
class ValueStream {
 public:
  explicit ValueStream(RawValueIterator* it) : it_(it) {}

  /// Decodes the next value of the group into `*out`.
  bool Next(V* out) {
    if (decode_error_ || !it_->NextValue()) {
      return false;
    }
    if (!Serde<V>::Decode(it_->value(), out)) {
      decode_error_ = true;
      return false;
    }
    return true;
  }

  /// Skips and counts every remaining value (no deserialization).
  uint64_t Count() {
    return decode_error_ ? it_->consumed() : it_->Count();
  }

  /// Consumes any unread values so the driver can move to the next group.
  void SkipRemaining() { Count(); }

  uint64_t consumed() const { return it_->consumed(); }
  bool decode_error() const { return decode_error_; }

 private:
  RawValueIterator* it_;
  bool decode_error_ = false;
};

}  // namespace ngram::mr
