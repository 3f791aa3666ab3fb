#include "mapreduce/runfile.h"

#include <algorithm>
#include <vector>

#include "encoding/varint.h"
#include "mapreduce/spill_writer.h"
#include "util/crc32.h"

namespace ngram::mr {

namespace {

/// \brief Block-format RunWriter: front-coded entries, restart points,
/// per-block CRC-32 trailer (format spec in runfile.h).
///
/// A SpillWriter is the physical byte sink: it provides the streaming
/// buffer (possibly caller-owned), failure-unlink semantics, and the
/// logical byte offset; this class only builds block payloads.
class BlockRunWriter final : public RunWriter {
 public:
  BlockRunWriter(std::string path, const RunWriterOptions& options)
      : options_(options),
        file_(std::move(path), FileOptions(options)),
        counter_(options.restart_interval) {}  // First entry restarts.

  Status Open() override { return file_.Open(); }

  Status Append(Slice key, Slice value) override {
    raw_bytes_ += static_cast<uint64_t>(VarintLength(key.size())) +
                  VarintLength(value.size()) + key.size() + value.size();
    size_t shared = 0;
    if (counter_ < options_.restart_interval) {
      // Delta-code against the previous key.
      const size_t n = std::min(key.size(), last_key_.size());
      while (shared < n && last_key_[shared] == key[shared]) {
        ++shared;
      }
    } else {
      restarts_.push_back(static_cast<uint32_t>(block_.size()));
      counter_ = 0;
    }
    const size_t non_shared = key.size() - shared;
    // Tag byte: shared / non_shared nibbles, 15 = varint follows.
    const uint8_t shared_nib = shared < 15 ? static_cast<uint8_t>(shared) : 15;
    const uint8_t non_shared_nib =
        non_shared < 15 ? static_cast<uint8_t>(non_shared) : 15;
    block_.push_back(static_cast<char>((shared_nib << 4) | non_shared_nib));
    if (shared_nib == 15) {
      PutVarint64(&block_, shared);
    }
    if (non_shared_nib == 15) {
      PutVarint64(&block_, non_shared);
    }
    PutVarint64(&block_, value.size());
    block_.append(key.data() + shared, non_shared);
    block_.append(value.data(), value.size());
    last_key_.resize(shared);
    last_key_.append(key.data() + shared, non_shared);
    ++counter_;
    ++entries_in_block_;
    ++records_written_;
    if (block_.size() >= options_.block_bytes) {
      return EmitBlock();
    }
    return Status::OK();
  }

  Status FinishSegment() override { return EmitBlock(); }

  Status Close() override {
    Status st = EmitBlock();
    if (!st.ok()) {
      return st;  // EmitBlock already abandoned (unlinked) on failure.
    }
    return file_.Close();
  }

  void Abandon() override { file_.Abandon(); }

  uint64_t bytes_written() const override { return file_.bytes_written(); }
  uint64_t records_written() const override { return records_written_; }
  uint64_t raw_bytes() const override { return raw_bytes_; }
  uint32_t crc32() const override { return 0; }  // Per-block CRCs instead.
  bool block_format() const override { return true; }
  const std::string& path() const override { return file_.path(); }

 private:
  static SpillWriter::Options FileOptions(const RunWriterOptions& options) {
    SpillWriter::Options file_options;
    file_options.buffer_bytes = std::max<size_t>(1, options.buffer_bytes);
    file_options.checksum = false;  // Blocks carry their own CRCs.
    file_options.external_buffer = options.external_buffer;
    file_options.preamble = options.preamble;
    file_options.env = options.env;
    return file_options;
  }

  Status EmitBlock() {
    if (entries_in_block_ == 0) {
      return Status::OK();
    }
    for (uint32_t restart : restarts_) {
      PutFixed32(&block_, restart);
    }
    PutFixed32(&block_, static_cast<uint32_t>(restarts_.size()));
    const uint32_t crc = Crc32(0, block_.data(), block_.size());
    char header[kMaxVarint64Bytes];
    char* header_end = EncodeVarint64To(header, block_.size());
    Status st = file_.AppendRawBytes(
        header, static_cast<size_t>(header_end - header));
    if (st.ok()) {
      st = file_.AppendRawBytes(block_.data(), block_.size());
    }
    if (st.ok()) {
      char trailer[4];
      EncodeFixed32To(trailer, crc);
      st = file_.AppendRawBytes(trailer, 4);
    }
    block_.clear();
    restarts_.clear();
    counter_ = options_.restart_interval;  // Next entry restarts.
    entries_in_block_ = 0;
    last_key_.clear();
    return st;
  }

  const RunWriterOptions options_;
  SpillWriter file_;
  std::string block_;               // Payload under construction.
  std::vector<uint32_t> restarts_;  // Entry offsets with shared == 0.
  uint32_t counter_ = 0;            // Entries since the last restart.
  uint64_t entries_in_block_ = 0;
  std::string last_key_;
  uint64_t records_written_ = 0;
  uint64_t raw_bytes_ = 0;
};

}  // namespace

namespace {

/// One front-coded entry, viewed in place.
struct CodedEntry {
  uint64_t shared = 0;  // Bytes taken from the previous key.
  Slice suffix;         // The key's remaining (non-shared) bytes.
  Slice value;
};

/// Parses the entry at the front of `*in` and advances past it: the tag
/// byte (shared / non_shared nibbles, 15 = varint follows), the value
/// length, then the key suffix and the value. False when the header is
/// malformed or the entry runs past the end of `*in`. The format's one
/// entry parser — the frame decoder, ReadBlockAt's structure check and
/// BlockCursor all read entries through it.
inline bool ParseEntry(Slice* in, CodedEntry* entry) {
  if (in->empty()) {
    return false;
  }
  const uint8_t tag = static_cast<uint8_t>((*in)[0]);
  in->RemovePrefix(1);
  uint64_t shared = tag >> 4;
  uint64_t non_shared = tag & 0x0f;
  uint64_t vlen = 0;
  if ((shared == 15 && !GetVarint64(in, &shared)) ||
      (non_shared == 15 && !GetVarint64(in, &non_shared)) ||
      !GetVarint64(in, &vlen)) {
    return false;
  }
  // Checked term by term: summing corrupt near-2^64 lengths would wrap
  // past the bound.
  if (non_shared > in->size() || vlen > in->size() - non_shared) {
    return false;
  }
  entry->shared = shared;
  entry->suffix = Slice(in->data(), static_cast<size_t>(non_shared));
  entry->value = Slice(in->data() + non_shared, static_cast<size_t>(vlen));
  in->RemovePrefix(static_cast<size_t>(non_shared + vlen));
  return true;
}

/// Splits a payload into its entry region and its restart array. False
/// when the trailing restart count is zero or overruns the payload.
bool SplitPayload(Slice payload, Slice* entries, const char** restarts,
                  uint32_t* num_restarts) {
  if (payload.size() < 4) {
    return false;
  }
  const uint32_t n = DecodeFixed32(payload.data() + payload.size() - 4);
  // Widen before the +1: n == 0xffffffff must not wrap to a zero-byte
  // restart array and slip past the bound below.
  const uint64_t restart_bytes = 4ull * (static_cast<uint64_t>(n) + 1);
  if (n == 0 || restart_bytes > payload.size()) {
    return false;
  }
  *entries = Slice(payload.data(),
                   payload.size() - static_cast<size_t>(restart_bytes));
  *restarts = payload.data() + entries->size();
  *num_restarts = n;
  return true;
}

/// Walks every entry of `payload`, checking the block structure, and
/// hands each entry to `on_entry` in order. The checks are what every
/// reader relies on: entries stay inside the entry region, `shared` never
/// exceeds the previous key's length, the restart slots are the starts of
/// `shared == 0` entries in ascending order, and the block holds at least
/// one entry.
template <typename OnEntry>
Status WalkPayload(Slice payload, uint64_t block_offset,
                   const std::string& path, OnEntry&& on_entry) {
  auto corrupt = [&](const std::string& what) {
    return Status::Corruption(what + " in block at offset " +
                              std::to_string(block_offset) + " of " + path);
  };
  Slice in;
  const char* restarts = nullptr;
  uint32_t num_restarts = 0;
  if (!SplitPayload(payload, &in, &restarts, &num_restarts)) {
    return corrupt("malformed restart array");
  }
  uint32_t next_restart = 0;  // Restart-array slots matched so far.
  uint64_t prev_key_len = 0;
  bool any_entry = false;
  CodedEntry entry;
  while (!in.empty()) {
    const bool at_restart =
        next_restart < num_restarts &&
        DecodeFixed32(restarts + 4ull * next_restart) ==
            static_cast<uint32_t>(in.data() - payload.data());
    if (!ParseEntry(&in, &entry)) {
      return corrupt("malformed entry");
    }
    if (entry.shared > prev_key_len) {
      return corrupt("entry shares more bytes than the previous key has");
    }
    if (at_restart) {
      if (entry.shared != 0) {
        return corrupt("restart entry does not store its whole key");
      }
      ++next_restart;
    }
    prev_key_len = entry.shared + entry.suffix.size();
    on_entry(entry);
    any_entry = true;
  }
  if (!any_entry) {
    // The writer never emits an entry-less block; accepting one (a
    // CRC-valid restart-array-only payload) would break readers that use
    // "decoded something" as their progress guarantee.
    return corrupt("block with no entries");
  }
  if (next_restart != num_restarts) {
    // The writer emits the array from actual entry offsets, so a slot
    // that matches no entry start is corruption; seeking through it
    // would land mid-entry.
    return corrupt("restart array does not point at entry starts");
  }
  return Status::OK();
}

}  // namespace

Status DecodeBlockPayload(Slice payload, uint64_t block_offset,
                          const std::string& path, std::string* framed) {
  framed->clear();
  std::string last_key;
  return WalkPayload(payload, block_offset, path,
                     [&](const CodedEntry& entry) {
                       last_key.resize(static_cast<size_t>(entry.shared));
                       last_key.append(entry.suffix.data(),
                                       entry.suffix.size());
                       PutVarint64(framed, last_key.size());
                       PutVarint64(framed, entry.value.size());
                       framed->append(last_key);
                       framed->append(entry.value.data(),
                                      entry.value.size());
                     });
}

Status ReadBlockAt(Slice file, uint64_t offset, const std::string& path,
                   Slice* payload, uint64_t* next_offset) {
  auto corrupt = [&](const std::string& what) {
    return Status::Corruption(what + " in block at offset " +
                              std::to_string(offset) + " of " + path);
  };
  if (offset >= file.size()) {
    return corrupt("block offset past end of file");
  }
  Slice in(file.data() + offset, file.size() - offset);
  const char* header_start = in.data();
  uint64_t payload_len = 0;
  if (!GetVarint64(&in, &payload_len)) {
    return corrupt("overlong block length varint");
  }
  const uint64_t header_bytes = static_cast<uint64_t>(in.data() - header_start);
  // Compare against the remaining bytes without forming payload_len + 4,
  // which a corrupt near-2^64 varint would wrap past the check.
  if (payload_len < 10 || in.size() < 4 || payload_len > in.size() - 4) {
    return corrupt("implausible block length " + std::to_string(payload_len));
  }
  const Slice verified(in.data(), static_cast<size_t>(payload_len));
  const uint32_t expected = DecodeFixed32(in.data() + payload_len);
  if (Crc32(0, verified.data(), verified.size()) != expected) {
    return corrupt("block CRC mismatch");
  }
  NGRAM_RETURN_NOT_OK(
      WalkPayload(verified, offset, path, [](const CodedEntry&) {}));
  *payload = verified;
  *next_offset = offset + header_bytes + payload_len + 4;
  return Status::OK();
}

BlockCursor::BlockCursor(Slice payload) {
  ok_ = SplitPayload(payload, &entries_, &restarts_, &num_restarts_);
  rest_ = entries_;
}

size_t BlockCursor::AnchorFor(Slice target) {
  // Binary-search the restart slots for the first whose key exceeds
  // `target`. Restart entries have shared == 0, so the suffix a restart
  // entry stores is its whole key.
  uint32_t lo = 0;
  uint32_t hi = num_restarts_;
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    const uint32_t offset = DecodeFixed32(restarts_ + 4ull * mid);
    CodedEntry entry;
    Slice in;
    if (offset < entries_.size()) {
      in = Slice(entries_.data() + offset, entries_.size() - offset);
    }
    if (!ParseEntry(&in, &entry)) {
      ok_ = false;
      return entries_.size();
    }
    if (entry.suffix.compare(target) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  // The first entry of a block always stores its whole key, so it
  // anchors targets that precede every restart key.
  return lo == 0 ? 0 : DecodeFixed32(restarts_ + 4ull * (lo - 1));
}

bool BlockCursor::Find(Slice key, Slice* value) {
  const size_t start = AnchorFor(key);
  Slice in(entries_.data() + start, entries_.size() - start);
  // The entries from the anchor ascend. `matched` is the common prefix of
  // the previous entry's key (which sorts before `key`) and `key`.
  size_t matched = 0;
  CodedEntry entry;
  while (!in.empty()) {
    if (!ParseEntry(&in, &entry)) {
      ok_ = false;
      return false;
    }
    if (entry.shared > matched) {
      // The entry agrees with the previous key past the byte where that
      // key fell below `key`, so it sorts before `key` too; `matched`
      // stays.
      continue;
    }
    // The entry's first `shared` bytes equal key[0, shared); compare the
    // rest. Exact even when a writer's `shared` is not maximal.
    const size_t shared = static_cast<size_t>(entry.shared);
    const size_t tail = key.size() - shared;
    const size_t n = std::min(entry.suffix.size(), tail);
    const char* a = entry.suffix.data();
    const char* b = key.data() + shared;
    size_t i = 0;
    while (i < n && a[i] == b[i]) {
      ++i;
    }
    if (i == n) {
      if (entry.suffix.size() == tail) {
        *value = entry.value;
        return true;
      }
      if (entry.suffix.size() > tail) {
        return false;  // `key` is a proper prefix of the entry: past it.
      }
    } else if (static_cast<uint8_t>(a[i]) > static_cast<uint8_t>(b[i])) {
      return false;  // Sorted: every later entry is past `key` too.
    }
    matched = shared + i;
  }
  return false;
}

void BlockCursor::Seek(Slice target) {
  const size_t start = AnchorFor(target);
  rest_ = Slice(entries_.data() + start, entries_.size() - start);
  key_.clear();
}

bool BlockCursor::Next() {
  if (rest_.empty()) {
    return false;
  }
  CodedEntry entry;
  if (!ParseEntry(&rest_, &entry) || entry.shared > key_.size()) {
    ok_ = false;
    rest_ = Slice();
    return false;
  }
  key_.resize(static_cast<size_t>(entry.shared));
  key_.append(entry.suffix.data(), entry.suffix.size());
  value_ = entry.value;
  return true;
}

std::unique_ptr<RunWriter> NewRunWriter(std::string path,
                                        const RunWriterOptions& options) {
  if (!options.compress) {
    SpillWriter::Options file_options;
    file_options.buffer_bytes = std::max<size_t>(1, options.buffer_bytes);
    file_options.checksum = options.checksum;
    file_options.external_buffer = options.external_buffer;
    file_options.preamble = options.preamble;
    file_options.env = options.env;
    return std::make_unique<SpillWriter>(std::move(path), file_options);
  }
  return std::make_unique<BlockRunWriter>(std::move(path), options);
}

}  // namespace ngram::mr
