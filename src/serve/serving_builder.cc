#include "serve/serving_builder.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <utility>
#include <vector>

#include "encoding/sequence.h"
#include "encoding/varint.h"
#include "serve/manifest.h"
#include "util/macros.h"

namespace ngram::serve {

namespace {

std::string ShardFileName(uint32_t shard) {
  char buf[32];
  snprintf(buf, sizeof(buf), "shard-%05u.run", shard);
  return buf;
}

/// A table entry in sortable form: its encoded key lives in a shared
/// arena, and the key's first eight bytes, big-endian and zero-padded,
/// decide most comparisons without touching the arena.
struct Row {
  uint64_t head;
  uint64_t count;
  uint32_t offset;  // Of the key in the arena.
  uint32_t length;
};

uint64_t HeadOf(const char* key, size_t length) {
  uint64_t head = 0;
  for (size_t i = 0; i < 8; ++i) {
    head = (head << 8) |
           (i < length ? static_cast<uint8_t>(key[i]) : uint64_t{0});
  }
  return head;
}

/// Bytewise order of two arena keys whose heads are equal.
bool TailLess(const char* a, size_t a_len, const char* b, size_t b_len) {
  // Equal heads mean equal bytes below min(8, the shorter length).
  const size_t n = std::min(a_len, b_len);
  const size_t skip = std::min<size_t>(n, 8);
  const int c = memcmp(a + skip, b + skip, n - skip);
  return c != 0 ? c < 0 : a_len < b_len;
}

/// Length of `key` without its last term: a varint's last byte is the
/// only one with the high bit clear, so the last term starts after the
/// previous such byte.
size_t ParentLength(const char* key, size_t length) {
  size_t p = length - 1;
  while (p > 0 && (static_cast<uint8_t>(key[p - 1]) & 0x80) != 0) {
    --p;
  }
  return p;
}

/// \brief Streams bytewise-sorted records into one block run file and
/// records, for the manifest, the first key and extent of every block.
///
/// Blocks are closed here (the writer's own size trigger is disabled) once
/// a raw-size estimate of the payload reaches `block_bytes`.
class SegmentWriter {
 public:
  SegmentWriter(const std::string& dir, std::string file_name,
                const BuildServingOptions& options)
      : block_bytes_(options.block_bytes) {
    entry_.file_name = std::move(file_name);
    mr::RunWriterOptions writer_options;
    writer_options.compress = true;
    writer_options.block_bytes = std::numeric_limits<size_t>::max();
    writer_options.restart_interval = options.restart_interval;
    writer_options.env = options.env;
    writer_ = mr::NewRunWriter(dir + "/" + entry_.file_name, writer_options);
  }

  Status Open() { return writer_->Open(); }

  Status Append(Slice key, Slice value) {
    if (block_payload_ == 0) {
      block_first_key_.assign(key.data(), key.size());
    }
    if (entry_.num_records == 0) {
      entry_.min_key.assign(key.data(), key.size());
    }
    Status st = writer_->Append(key, value);
    if (!st.ok()) {
      writer_->Abandon();
      return st;
    }
    last_key_ = key;
    ++entry_.num_records;
    block_payload_ += key.size() + value.size() + 2;
    return block_payload_ >= block_bytes_ ? FinishBlock() : Status::OK();
  }

  /// Closes the file; on success `*entry` describes it.
  Status Finish(ShardEntry* entry) {
    NGRAM_RETURN_NOT_OK(FinishBlock());
    NGRAM_RETURN_NOT_OK(writer_->Close());
    entry_.file_size = writer_->bytes_written();
    entry_.max_key.assign(last_key_.data(), last_key_.size());
    *entry = std::move(entry_);
    return Status::OK();
  }

 private:
  Status FinishBlock() {
    if (block_payload_ == 0) {
      return Status::OK();
    }
    Status st = writer_->FinishSegment();
    if (!st.ok()) {
      writer_->Abandon();
      return st;
    }
    BlockEntry block;
    block.first_key = block_first_key_;
    block.offset = block_start_;
    block.length = writer_->bytes_written() - block_start_;
    entry_.blocks.push_back(std::move(block));
    block_start_ = writer_->bytes_written();
    block_payload_ = 0;
    return Status::OK();
  }

  const size_t block_bytes_;
  std::unique_ptr<mr::RunWriter> writer_;
  ShardEntry entry_;
  uint64_t block_start_ = 0;
  size_t block_payload_ = 0;  // Raw-size estimate of the open block.
  std::string block_first_key_;
  Slice last_key_;  // Into the caller's key storage.
};

/// Writes the completion segment: for every prefix P with a stored
/// one-term extension P.t, the list of all its (t, count) pairs ranked by
/// count descending, then term ascending (format in manifest.h).
/// `*rows` come bytewise sorted over `arena`; their heads are overwritten
/// here, so the shards must already be written.
Status WriteCompletions(std::vector<Row>* rows, const char* arena,
                        const std::string& dir,
                        const BuildServingOptions& options,
                        ShardEntry* entry) {
  // Group every row under its parent prefix. In bytewise order a key's
  // stored ancestors precede it and all keys extending a prefix are
  // contiguous, so a stack of the current key's prefixes (stored keys,
  // and parents met only through their children) names each row's
  // parent, and each parent joins the stack exactly once. The head, no
  // longer needed for the key order, takes the row's group and last term.
  struct Prefix {
    uint32_t offset;  // Of a key starting with this prefix.
    uint32_t length;
    uint32_t group;   // Group id once a child was seen, else kNone.
  };
  constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  std::vector<Prefix> stack = {{0, 0, kNone}};  // The root, never popped.
  std::vector<Prefix> groups;                     // Parent key per group.
  for (Row& row : *rows) {
    const char* key = arena + row.offset;
    const uint32_t parent =
        static_cast<uint32_t>(ParentLength(key, row.length));
    while (stack.back().length > parent ||
           memcmp(arena + stack.back().offset, key, stack.back().length) !=
               0) {
      stack.pop_back();
    }
    if (stack.back().length != parent) {
      stack.push_back({row.offset, parent, kNone});  // Not stored itself.
    }
    Prefix& top = stack.back();
    if (top.group == kNone) {
      top.group = static_cast<uint32_t>(groups.size());
      groups.push_back(top);
    }
    Slice last(key + parent, row.length - parent);
    TermId term = 0;
    GetVarint32(&last, &term);
    row.head = (uint64_t{top.group} << 32) | term;
    stack.push_back({row.offset, row.length, kNone});
  }

  // Order the rows by group (a counting sort of row indexes); the lists
  // go out in bytewise order of their prefix keys.
  std::vector<uint32_t> starts(groups.size() + 1, 0);
  for (const Row& row : *rows) {
    ++starts[(row.head >> 32) + 1];
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    starts[g + 1] += starts[g];
  }
  std::vector<uint32_t> order(rows->size());
  {
    std::vector<uint32_t> fill(starts.begin(), starts.end() - 1);
    for (uint32_t i = 0; i < order.size(); ++i) {
      order[fill[(*rows)[i].head >> 32]++] = i;
    }
  }
  const auto prefix_key = [&](uint32_t g) {
    return Slice(arena + groups[g].offset, groups[g].length);
  };
  std::vector<uint32_t> by_key(groups.size());
  for (uint32_t g = 0; g < by_key.size(); ++g) {
    by_key[g] = g;
  }
  std::sort(by_key.begin(), by_key.end(), [&](uint32_t a, uint32_t b) {
    return prefix_key(a).compare(prefix_key(b)) < 0;
  });

  // Rank each group: count descending, term ascending.
  struct Pair {
    uint64_t count;
    TermId term;
  };
  std::vector<Pair> group;  // One group's pairs, gathered to be ranked.
  SegmentWriter writer(dir, kCompletionsFileName, options);
  NGRAM_RETURN_NOT_OK(writer.Open());
  std::string list;
  for (const uint32_t g : by_key) {
    group.clear();
    for (uint32_t i = starts[g]; i < starts[g + 1]; ++i) {
      const Row& row = (*rows)[order[i]];
      group.push_back({row.count, static_cast<TermId>(row.head)});
    }
    std::sort(group.begin(), group.end(), [](const Pair& a, const Pair& b) {
      return a.count != b.count ? a.count > b.count : a.term < b.term;
    });
    list.clear();
    for (const Pair& pair : group) {
      PutVarint32(&list, pair.term);
      PutVarint64(&list, pair.count);
    }
    NGRAM_RETURN_NOT_OK(writer.Append(prefix_key(g), Slice(list)));
  }
  return writer.Finish(entry);
}

}  // namespace

Status BuildServingShards(const NgramStatistics& stats,
                          const std::string& dir,
                          const BuildServingOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options.block_bytes == 0) {
    return Status::InvalidArgument("block_bytes must be >= 1");
  }
  mr::IoEnv* env = mr::ResolveEnv(options.env);

  // Encode every entry into one arena and sort bytewise — the serving key
  // order (see manifest.h for why byte order is the right order here).
  size_t arena_bytes = 0;
  for (const auto& [seq, cf] : stats.entries) {
    if (seq.empty()) {
      return Status::InvalidArgument("statistics hold an empty n-gram");
    }
    arena_bytes += SequenceCodec::EncodedSize(seq);
  }
  if (arena_bytes > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "encoded n-grams exceed 4 GiB; too large for one serving build");
  }
  std::string arena;
  arena.reserve(arena_bytes);
  std::vector<Row> rows;
  rows.reserve(stats.entries.size());
  Manifest manifest;
  manifest.block_bytes = options.block_bytes;
  uint64_t total_bytes = 0;
  for (const auto& [seq, cf] : stats.entries) {
    const size_t offset = arena.size();
    SequenceCodec::Encode(seq, &arena);
    const size_t length = arena.size() - offset;
    rows.push_back(Row{HeadOf(arena.data() + offset, length), cf,
                       static_cast<uint32_t>(offset),
                       static_cast<uint32_t>(length)});
    total_bytes += length + kMaxVarint64Bytes;
    if (seq.size() == 1) {
      manifest.total_unigrams += cf;
    }
    manifest.max_order =
        std::max(manifest.max_order, static_cast<uint32_t>(seq.size()));
  }
  const char* keys = arena.data();
  std::sort(rows.begin(), rows.end(), [keys](const Row& a, const Row& b) {
    if (a.head != b.head) {
      return a.head < b.head;
    }
    return TailLess(keys + a.offset, a.length, keys + b.offset, b.length);
  });
  const auto key_of = [keys](const Row& row) {
    return Slice(keys + row.offset, row.length);
  };
  manifest.total_records = rows.size();

  // Remove the previous manifest first, then stale segment files: a build
  // that crashes mid-way leaves a directory with no MANIFEST (Open fails
  // cleanly) rather than one whose old manifest names deleted or
  // half-rewritten segments.
  NGRAM_RETURN_NOT_OK(
      env->Unlink(dir + "/" + kManifestFileName));
  NGRAM_RETURN_NOT_OK(env->Unlink(dir + "/" + kCompletionsFileName));
  {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("shard-", 0) == 0) {
        NGRAM_RETURN_NOT_OK(env->Unlink(entry.path().string()));
      }
    }
  }

  // Contiguous shard ranges balanced by encoded bytes, each non-empty.
  const uint32_t num_shards = static_cast<uint32_t>(std::min<uint64_t>(
      options.num_shards, rows.size()));
  size_t next_row = 0;
  uint64_t consumed_bytes = 0;
  std::string value;
  for (uint32_t s = 0; s < num_shards; ++s) {
    // Cut when this shard's share of the byte total is reached, but leave
    // at least one row for every shard still to come.
    const uint64_t target =
        total_bytes * (s + 1) / num_shards;  // Cumulative target.
    const size_t min_remaining = num_shards - s - 1;
    const size_t first_row = next_row;
    SegmentWriter writer(dir, ShardFileName(s), options);
    NGRAM_RETURN_NOT_OK(writer.Open());
    while (next_row < rows.size() &&
           (next_row == first_row ||
            rows.size() - next_row > min_remaining) &&
           (next_row == first_row || consumed_bytes < target ||
            s + 1 == num_shards)) {
      const Row& row = rows[next_row];
      value.clear();
      PutVarint64(&value, row.count);
      NGRAM_RETURN_NOT_OK(writer.Append(key_of(row), Slice(value)));
      consumed_bytes += row.length + kMaxVarint64Bytes;
      ++next_row;
    }
    manifest.shards.emplace_back();
    NGRAM_RETURN_NOT_OK(writer.Finish(&manifest.shards.back()));
  }

  NGRAM_RETURN_NOT_OK(
      WriteCompletions(&rows, keys, dir, options, &manifest.completions));

  // Manifest last — the commit point: it only appears once every segment
  // it names is fully written.
  return WriteManifest(manifest, dir, options.env);
}

}  // namespace ngram::serve
