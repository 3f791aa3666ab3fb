// Shard manifest of a serving directory: which segment files exist, which
// byte-ordered key range each one covers, and where every block inside
// them starts — everything a reader needs to route a query to one block
// with zero I/O beyond the block itself.
//
// Serving keys are the varbyte encodings of n-gram term sequences
// (encoding/sequence.h), ordered bytewise. Byte order is safe here
// because the codec is prefix-preserving and varint boundaries are
// self-delimiting, so (a) every stored extension of an encoded prefix P
// is byte-prefixed by P and (b) all keys byte-prefixed by P form one
// contiguous range — which is exactly what the shard router and the
// top-k prefix scans rely on. (Byte order is NOT canonical term-id
// order for multi-byte varints; the builder sorts keys bytewise and
// every reader compares bytewise, so the two orders never mix.)
//
// Besides the key-range shards, a serving directory holds one completion
// segment: a block run file in the same format, keyed by encoded prefix
// (the empty key is the root), whose value is the prefix's complete list
// of one-term continuations, ranked by count descending then term id
// ascending:
//
//   list     := ([term varint32][count varint64])*
//
// It covers every stored P.t, whether or not P itself is stored (maximal
// and closed tables hold such orphan prefixes), so a top-k query is one
// point lookup instead of a scan over every stored extension of P.
//
// On-disk format of `MANIFEST`:
//
//   file     := magic "NGS2" payload crc32 fixed32   (CRC over payload)
//   payload  := [total_records varint][total_unigrams varint]
//               [max_order varint][block_bytes varint]
//               [num_shards varint] shard* completions
//   shard    := [name_len varint][name][file_size varint]
//               [num_records varint][min_key_len varint][min_key]
//               [max_key_len varint][max_key][num_blocks varint] block*
//   block    := [first_key_len varint][first_key]
//               [offset varint][length varint]
//   completions := shard   (num_records = number of lists; a table
//                           with no lists has no blocks and an empty file)
//
// The older magic "NGSM" (no completion segment) is refused with
// Corruption: such a directory must be rebuilt.
//
// Block extents cover each segment file exactly (blocks back to back, no
// trailer), so any bit flip in a segment lands inside some indexed block
// and is caught by that block's CRC-32 when it is decoded. A bit flip in
// the manifest itself is caught by the manifest CRC at Open().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mapreduce/io_env.h"
#include "util/status.h"

namespace ngram::serve {

/// Name of the manifest file inside a serving directory.
inline constexpr char kManifestFileName[] = "MANIFEST";
/// Name of the completion segment inside a serving directory.
inline constexpr char kCompletionsFileName[] = "completions.run";

/// One block of a shard segment: its first key and byte extent.
struct BlockEntry {
  std::string first_key;  // Encoded key of the block's first record.
  uint64_t offset = 0;    // File offset of the block's length header.
  uint64_t length = 0;    // Header + payload + CRC trailer.
};

/// One segment file — a shard, or the completion segment — and the
/// contiguous bytewise key range it stores.
struct ShardEntry {
  std::string file_name;  // Relative to the serving directory.
  uint64_t file_size = 0;
  uint64_t num_records = 0;
  std::string min_key;  // First (smallest) key stored in the segment.
  std::string max_key;  // Last (largest) key stored in the segment.
  std::vector<BlockEntry> blocks;
};

/// The parsed manifest.
struct Manifest {
  uint64_t total_records = 0;
  /// Sum of unigram (order-1) frequencies — the corpus size N the
  /// language model needs for its unigram base case.
  uint64_t total_unigrams = 0;
  /// Longest n-gram stored (the sigma the statistics were computed with).
  uint32_t max_order = 0;
  /// Block payload target the builder used (informational).
  uint64_t block_bytes = 0;
  std::vector<ShardEntry> shards;  // Ordered by min_key.
  /// The ranked continuation lists, keyed by encoded prefix.
  ShardEntry completions;
};

/// Writes `manifest` to `dir`/MANIFEST (CRC-protected).
Status WriteManifest(const Manifest& manifest, const std::string& dir,
                     mr::IoEnv* env = nullptr);

/// Reads and verifies `dir`/MANIFEST. Any mismatch — bad magic, CRC
/// failure, truncation, malformed field — is Corruption naming the path.
Status ReadManifest(const std::string& dir, Manifest* manifest,
                    mr::IoEnv* env = nullptr);

}  // namespace ngram::serve
