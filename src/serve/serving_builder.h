// Builds a serving directory from a computed statistics table: the
// `ngram_tool build-serving` step. Entries are encoded, sorted bytewise,
// split into `num_shards` contiguous key ranges balanced by byte size,
// and written as block run files (runfile.h: front-coded keys, per-block
// CRC-32). A completion segment in the same format holds every prefix's
// ranked list of one-term continuations (manifest.h), and a MANIFEST
// records segment boundaries and block extents.
#pragma once

#include <cstdint>
#include <string>

#include "core/stats.h"
#include "mapreduce/io_env.h"
#include "mapreduce/runfile.h"
#include "util/status.h"

namespace ngram::serve {

struct BuildServingOptions {
  /// Number of key-range shards. Clamped to the entry count (every shard
  /// holds at least one record); 0 is invalid.
  uint32_t num_shards = 1;
  /// Soft payload size at which a block — the unit of read, cache, and
  /// CRC verification — is closed.
  size_t block_bytes = mr::kDefaultBlockBytes;
  /// Entries between restart points inside a block.
  uint32_t restart_interval = mr::kDefaultRestartInterval;
  /// I/O environment for segment and manifest writes (nullptr = default).
  mr::IoEnv* env = nullptr;
};

/// Writes serving shards and the completion segment for `stats` into
/// existing directory `dir` (replacing any previous MANIFEST, shard files
/// and completion segment). `stats` need not be sorted; entries must be
/// distinct, non-empty n-grams, as every method's output is.
Status BuildServingShards(const NgramStatistics& stats,
                          const std::string& dir,
                          const BuildServingOptions& options = {});

}  // namespace ngram::serve
