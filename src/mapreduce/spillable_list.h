// A memory-budgeted, append-only list that moves to one block run file
// when full — the mechanism the paper prescribes for APRIORI reducers whose
// buffered posting lists outgrow main memory (Section V).
//
// Past the budget, every item (the already-buffered ones first) is written
// as one record of a block-format run (runfile.h) and replayed in
// insertion order by FileRecordReader, so the file carries the same
// per-block CRCs and commit protocol as every shuffle run, and all of its
// bytes go through the configured IoEnv.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "encoding/serde.h"
#include "mapreduce/io_env.h"
#include "mapreduce/record.h"
#include "mapreduce/runfile.h"
#include "util/macros.h"
#include "util/status.h"

namespace ngram::mr {

/// \brief An append-only sequence of T with a memory budget.
///
/// Items stay in memory until `memory_budget_bytes` of serialized size
/// accumulates; from then on all of them live in the run file at `path`.
/// ForEach() replays items in insertion order either way. The first
/// ForEach() over a spilled list commits the file, after which Append()
/// fails. The file is unlinked when the list is destroyed.
template <typename T>
class SpillableList {
 public:
  /// `path` is only created if a spill actually happens. `env` nullptr
  /// means IoEnv::Default().
  SpillableList(std::string path, size_t memory_budget_bytes,
                IoEnv* env = nullptr)
      : path_(std::move(path)),
        memory_budget_bytes_(memory_budget_bytes),
        env_(ResolveEnv(env)) {}

  ~SpillableList() {
    if (writer_ != nullptr) {
      writer_->Abandon();
    } else if (spilled_) {
      (void)env_->Unlink(path_);  // Best effort; unlink is never faulted.
    }
  }

  NGRAM_DISALLOW_COPY_AND_ASSIGN(SpillableList);

  Status Append(const T& item) {
    encoded_.clear();
    Serde<T>::Encode(item, &encoded_);
    ++size_;
    if (!spilled_ && memory_bytes_ + encoded_.size() <= memory_budget_bytes_) {
      memory_bytes_ += encoded_.size();
      in_memory_.push_back(encoded_);
      return Status::OK();
    }
    if (!spilled_) {
      NGRAM_RETURN_NOT_OK(Spill());
    }
    if (writer_ == nullptr) {
      return Status::Internal("SpillableList: append after replay of " +
                              path_);
    }
    return writer_->Append(Slice(), Slice(encoded_));
  }

  uint64_t size() const { return size_; }
  bool spilled() const { return spilled_; }

  /// Calls `fn(item)` for every item in insertion order; stops at and
  /// returns the first non-OK status from `fn` or from reading the file.
  Status ForEach(const std::function<Status(const T&)>& fn) {
    T item;
    if (!spilled_) {
      for (const std::string& encoded : in_memory_) {
        NGRAM_RETURN_NOT_OK(Decode(Slice(encoded), &item));
        NGRAM_RETURN_NOT_OK(fn(item));
      }
      return Status::OK();
    }
    if (writer_ != nullptr) {  // First replay: publish the run.
      const Status st = writer_->Close();  // Unlinks the file on failure.
      file_bytes_ = writer_->bytes_written();
      writer_.reset();
      NGRAM_RETURN_NOT_OK(st);
    }
    FileRecordReader reader(
        path_, 0, file_bytes_,
        static_cast<size_t>(std::min<uint64_t>(file_bytes_, kIoBufferBytes)),
        RunFormat::kBlocks, env_);
    while (reader.Next()) {
      NGRAM_RETURN_NOT_OK(Decode(reader.value(), &item));
      NGRAM_RETURN_NOT_OK(fn(item));
    }
    return reader.status();
  }

 private:
  /// Write and read buffer size: the lists of one reduce group are small
  /// and short-lived, so the shuffle's 256 KiB default would dominate.
  static constexpr size_t kIoBufferBytes = 32 * 1024;

  Status Decode(Slice encoded, T* item) const {
    if (!Serde<T>::Decode(encoded, item)) {
      return Status::Corruption("SpillableList: undecodable item in " +
                                path_);
    }
    return Status::OK();
  }

  /// Opens the run and moves the buffered items into it.
  Status Spill() {
    spilled_ = true;
    RunWriterOptions options;
    options.buffer_bytes = kIoBufferBytes;
    options.env = env_;
    writer_ = NewRunWriter(path_, options);
    NGRAM_RETURN_NOT_OK(writer_->Open());
    for (const std::string& encoded : in_memory_) {
      NGRAM_RETURN_NOT_OK(writer_->Append(Slice(), Slice(encoded)));
    }
    in_memory_.clear();
    in_memory_.shrink_to_fit();
    memory_bytes_ = 0;
    return Status::OK();
  }

  const std::string path_;
  const size_t memory_budget_bytes_;
  IoEnv* const env_;
  std::vector<std::string> in_memory_;  // Serialized items while unspilled.
  size_t memory_bytes_ = 0;
  uint64_t size_ = 0;
  std::string encoded_;                 // Append() scratch.
  bool spilled_ = false;
  std::unique_ptr<RunWriter> writer_;   // Open while spilled and appending.
  uint64_t file_bytes_ = 0;
};

}  // namespace ngram::mr
