// Streaming spill-file writer used by the map-side shuffle.
//
// Records stream through a fixed-size write buffer straight to disk, so
// spilling a run never materializes it in memory (the pre-refactor path
// doubled peak memory by building the whole run in a std::string first).
// Framing is the shared shuffle record format ([klen][vlen][key][value],
// see record.h); every record is appended atomically with respect to the
// buffer, so each flushed block starts and ends on record boundaries and a
// per-run CRC can be maintained incrementally as bytes leave the buffer.
//
// SpillWriter is the *raw-format* RunWriter (runfile.h); the
// block-compressed writer reuses it as its physical byte sink through
// AppendRawBytes(). Call sites that honor JobConfig::compress_runs create
// writers through NewRunWriter() instead of instantiating this directly.
//
// Commit protocol: Open() stages all bytes in "<path>.tmp"; Close()
// flushes, syncs, and renames the temp file onto the committed path. A
// failure anywhere before the rename (and Abandon()) unlinks the temp
// file, so a partially written run is never visible under its committed
// name and failed task attempts never leak spill files.
//
// All physical I/O goes through an IoEnv (io_env.h), so tests can inject
// read/write/sync/rename faults without touching this class.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "mapreduce/io_env.h"
#include "mapreduce/record.h"
#include "mapreduce/runfile.h"
#include "util/crc32.h"
#include "util/macros.h"
#include "util/slice.h"
#include "util/status.h"

namespace ngram::mr {

/// \brief Buffered, streaming writer for one raw-format spill run.
///
/// Usage: Open(), Append() records, then Close(). bytes_written() is the
/// logical file offset (buffered bytes included), which callers use to
/// record per-partition segment extents while streaming.
class SpillWriter : public RunWriter {
 public:
  static constexpr size_t kDefaultBufferBytes = 256 * 1024;

  struct Options {
    size_t buffer_bytes = kDefaultBufferBytes;
    /// Maintain a CRC-32 of every byte written (costs one table lookup per
    /// byte on flush; off by default on the hot path).
    bool checksum = false;
    /// Optional caller-owned write buffer of at least `buffer_bytes`
    /// bytes. When set, Open() performs no allocation; the caller keeps
    /// the memory alive for the writer's lifetime and may hand the same
    /// buffer to successive writers (SortBuffer reuses one per-task buffer
    /// across all of a task's spills).
    char* external_buffer = nullptr;
    /// Bytes written verbatim right after Open() (file headers). Counted
    /// in bytes_written() and, when checksumming, in the CRC.
    std::string preamble;
    /// I/O environment; nullptr means IoEnv::Default().
    IoEnv* env = nullptr;
  };

  explicit SpillWriter(std::string path) : SpillWriter(std::move(path), {}) {}
  SpillWriter(std::string path, Options options);
  ~SpillWriter() override;
  NGRAM_DISALLOW_COPY_AND_ASSIGN(SpillWriter);

  /// Creates/truncates the file. Must be called before Append().
  Status Open() override;

  /// Appends one framed record.
  Status Append(Slice key, Slice value) override;

  /// Appends unframed bytes through the buffer (no record accounting) —
  /// the physical byte path of the block-format writer. On failure the
  /// partial file is unlinked, as with Append().
  Status AppendRawBytes(const char* data, size_t n);

  /// Raw framing has no block structure; segment boundaries are free.
  Status FinishSegment() override { return Status::OK(); }

  /// Flushes the buffer, syncs, closes, and commits the temp file to
  /// path() via rename. On failure the temp file is unlinked and nothing
  /// appears at path(). Idempotent: later calls return the first result.
  Status Close() override;

  /// Closes (if open) and unlinks the staged temp file — but only one
  /// this writer actually created; a never-opened writer leaves the path
  /// untouched. Used on task-attempt failure.
  void Abandon() override;

  /// Logical bytes appended so far (including still-buffered bytes).
  uint64_t bytes_written() const override { return bytes_written_; }
  /// Records appended so far.
  uint64_t records_written() const override { return records_written_; }
  /// Raw format: at-rest bytes == framed bytes.
  uint64_t raw_bytes() const override { return bytes_written_; }
  /// Running CRC-32 of all appended bytes; 0 unless options.checksum.
  uint32_t crc32() const override { return crc_; }
  bool block_format() const override { return false; }
  const std::string& path() const override { return path_; }

 private:
  Status FlushBuffer();
  Status WriteDirect(const char* data, size_t n);
  Status BufferBytes(const char* data, size_t n);

  const std::string path_;
  const std::string tmp_path_;  // path_ + ".tmp": staging name until commit.
  const Options options_;
  IoEnv* const env_;
  std::unique_ptr<WritableFile> file_;
  std::unique_ptr<char[]> owned_buffer_;  // Unused with external_buffer.
  char* buffer_ = nullptr;
  size_t buffered_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t records_written_ = 0;
  uint32_t crc_ = 0;
  bool opened_ = false;  // This writer created the file at path_.
  bool closed_ = false;
  Status close_status_;
};

/// Recomputes the CRC-32 of `path` and checks it against `expected`.
/// Returns Corruption on mismatch (used by tests and recovery tooling).
Status VerifySpillFileCrc32(const std::string& path, uint32_t expected,
                            IoEnv* env = nullptr);

}  // namespace ngram::mr
