// In-place block reads on the serving path (mr::BlockCursor over cached,
// CRC-verified compressed payloads):
//   * answers match the in-memory table for Count, ScanRange and
//     TopKCompletions across restart intervals, block sizes, long shared
//     prefixes and suffixes (the tag byte's varint branches), absent
//     probes before, between and after stored keys, probes that are a
//     prefix of a stored key, and cache capacities 0 / one block /
//     unbounded;
//   * CRC-valid but malformed blocks (the CRC recomputed after each edit)
//     are Corruption naming the segment for every query type: a shard
//     block for Count and ScanRange, a completion block for
//     TopKCompletions; so is a CRC-valid completion list out of rank
//     order or cut short;
//   * under seeded mutations of a segment — the shard or the completion
//     segment (bit flips, truncated blocks, restart-array edits) — every
//     query answers right or with Corruption naming that segment.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "encoding/sequence.h"
#include "encoding/varint.h"
#include "serve/manifest.h"
#include "serve/serving_builder.h"
#include "serve/sharded_store.h"
#include "serve/stats_service.h"
#include "util/crc32.h"
#include "util/random.h"
#include "util/temp_dir.h"

namespace ngram::serve {
namespace {

using Table = std::map<std::string, uint64_t>;  // Encoded key -> count.

/// Term ids of one, three and five varint bytes, so n-grams of a few
/// terms reach keys whose shared prefixes and suffixes exceed the tag
/// byte's 14-byte nibbles.
TermId RandomTerm(Rng* rng) {
  switch (rng->Uniform(3)) {
    case 0:
      return static_cast<TermId>(1 + rng->Uniform(60));
    case 1:
      return static_cast<TermId>(20000 + rng->Uniform(40));
    default:
      return static_cast<TermId>((1u << 28) + rng->Uniform(8));
  }
}

/// Families of n-grams: random bases of 1-6 terms with several one-term
/// extensions each, plus a vocabulary of unigrams.
NgramStatistics FamilyStats(uint64_t seed, int families) {
  Rng rng(seed);
  std::set<TermSequence> seen;
  NgramStatistics stats;
  auto add = [&](const TermSequence& seq) {
    if (seen.insert(seq).second) {
      // Some counts need multi-byte varints.
      stats.Add(seq, rng.OneIn(0.2) ? 1000 + rng.Uniform(1u << 20)
                                    : 1 + rng.Uniform(100));
    }
  };
  for (int i = 0; i < 40; ++i) {
    add({RandomTerm(&rng)});
  }
  for (int f = 0; f < families; ++f) {
    TermSequence base;
    const uint64_t len = 1 + rng.Uniform(6);
    for (uint64_t i = 0; i < len; ++i) {
      base.push_back(RandomTerm(&rng));
    }
    add(base);
    const uint64_t extensions = rng.Uniform(8);
    for (uint64_t e = 0; e < extensions; ++e) {
      TermSequence seq = base;
      seq.push_back(RandomTerm(&rng));
      add(seq);
    }
  }
  stats.SortCanonical();
  return stats;
}

Table TableOf(const NgramStatistics& stats) {
  Table table;
  for (const auto& [seq, cf] : stats.entries) {
    std::string key;
    SequenceCodec::Encode(seq, &key);
    table[key] = cf;
  }
  return table;
}

/// Probes around every stored key: the key, a prefix of it, the next and
/// previous byte strings in its neighbourhood, plus keys before and after
/// everything stored.
std::vector<std::string> Probes(const Table& table) {
  std::vector<std::string> probes = {std::string(), std::string(1, '\0'),
                                     std::string(40, '\xff')};
  for (const auto& [key, count] : table) {
    probes.push_back(key);
    probes.push_back(key + '\0');  // Between `key` and its successor.
    probes.push_back(key.substr(0, key.size() - 1));
    probes.push_back(key.substr(0, key.size() / 2));
    std::string bumped = key;
    if (static_cast<unsigned char>(bumped.back()) != 0xff) {
      ++bumped.back();
      probes.push_back(bumped);
    }
  }
  return probes;
}

/// Stored one-term continuations of `prefix`, ranked like
/// TopKCompletions (count descending, then term ascending), first `k`.
std::vector<Completion> ExpectedTopK(const NgramStatistics& stats,
                                     const TermSequence& prefix, size_t k) {
  std::vector<Completion> all;
  for (const auto& [seq, cf] : stats.entries) {
    if (seq.size() == prefix.size() + 1 &&
        std::equal(prefix.begin(), prefix.end(), seq.begin())) {
      all.push_back(Completion{seq.back(), cf});
    }
  }
  std::sort(all.begin(), all.end(),
            [](const Completion& a, const Completion& b) {
              if (a.count != b.count) {
                return a.count > b.count;
              }
              return a.term < b.term;
            });
  if (all.size() > k) {
    all.resize(k);
  }
  return all;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Manifest ReadManifestOrDie(const std::string& dir) {
  Manifest manifest;
  const Status st = ReadManifest(dir, &manifest);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return manifest;
}

// ------------------------------------------- in-place answers vs table --

struct LayoutCase {
  uint32_t restart_interval;
  size_t block_bytes;
};

class InPlaceReadTest : public ::testing::TestWithParam<LayoutCase> {};

TEST_P(InPlaceReadTest, AnswersMatchTable) {
  const LayoutCase& layout = GetParam();
  const NgramStatistics stats = FamilyStats(5, 150);
  const Table table = TableOf(stats);

  // The key mix reaches both varint branches of the tag byte.
  size_t long_shared = 0;
  size_t long_suffix = 0;
  for (auto it = table.begin(), next = std::next(it); next != table.end();
       ++it, ++next) {
    const auto mismatch = std::mismatch(it->first.begin(), it->first.end(),
                                        next->first.begin(),
                                        next->first.end());
    const size_t shared =
        static_cast<size_t>(mismatch.first - it->first.begin());
    long_shared += shared >= 15 ? 1 : 0;
    long_suffix += next->first.size() - shared >= 15 ? 1 : 0;
  }
  ASSERT_GT(long_shared, 10u);
  ASSERT_GT(long_suffix, 10u);

  auto dir = TempDir::Create("inplace-read");
  ASSERT_TRUE(dir.ok());
  BuildServingOptions build;
  build.num_shards = 3;
  build.block_bytes = layout.block_bytes;
  build.restart_interval = layout.restart_interval;
  ASSERT_TRUE(BuildServingShards(stats, dir->path().string(), build).ok());

  uint64_t largest_block = 0;
  const Manifest manifest = ReadManifestOrDie(dir->path().string());
  for (const ShardEntry& shard : manifest.shards) {
    for (const BlockEntry& block : shard.blocks) {
      largest_block = std::max(largest_block, block.length);
    }
  }
  const std::vector<std::string> probes = Probes(table);
  // Every stored prefix, its absent extensions, and the empty prefix.
  std::map<std::pair<TermSequence, size_t>, std::vector<Completion>>
      expected_top;
  std::set<TermSequence> prefixes = {TermSequence{}, TermSequence{999983}};
  for (const auto& [seq, cf] : stats.entries) {
    prefixes.insert(TermSequence(seq.begin(), seq.end() - 1));
    TermSequence absent = seq;
    absent.push_back(999983);
    prefixes.insert(absent);
  }
  for (const TermSequence& prefix : prefixes) {
    for (const size_t k : {size_t{0}, size_t{1}, size_t{3}, size_t{1000}}) {
      expected_top[{prefix, k}] = ExpectedTopK(stats, prefix, k);
    }
  }

  for (const size_t cache_bytes :
       {size_t{0}, static_cast<size_t>(largest_block), SIZE_MAX}) {
    SCOPED_TRACE("cache_bytes=" + std::to_string(cache_bytes));
    ServingOptions serving;
    serving.cache_bytes = cache_bytes;
    auto service = StatsService::Open(dir->path().string(), serving);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    const ShardedStatsStore& store = *(*service)->store();

    for (const std::string& probe : probes) {
      uint64_t count = 0;
      const Status st = store.Count(Slice(probe), &count);
      ASSERT_TRUE(st.ok()) << st.ToString();
      const auto it = table.find(probe);
      ASSERT_EQ(count, it == table.end() ? 0u : it->second)
          << "probe of " << probe.size() << " bytes";
    }

    // Ranges between probe pairs (empty upper = to the end), compared
    // with the table slice; every 16th range stops after three records.
    Rng rng(layout.restart_interval * 131 + layout.block_bytes);
    for (int r = 0; r < 300; ++r) {
      std::string lower = probes[rng.Uniform(probes.size())];
      std::string upper = probes[rng.Uniform(probes.size())];
      if (!upper.empty() && upper < lower) {
        std::swap(lower, upper);
      }
      const size_t limit = r % 16 == 0 ? 3 : SIZE_MAX;
      Table got;
      const Status st =
          store.ScanRange(Slice(lower), Slice(upper),
                          [&](Slice key, uint64_t count) {
                            got[key.ToString()] = count;
                            return got.size() < limit;
                          });
      ASSERT_TRUE(st.ok()) << st.ToString();
      Table expected;
      for (auto it = table.lower_bound(lower);
           it != table.end() && (upper.empty() || it->first < upper) &&
           expected.size() < limit;
           ++it) {
        expected.insert(*it);
      }
      ASSERT_EQ(got, expected) << "range " << r;
    }

    for (const auto& [query, expected] : expected_top) {
      auto top = (*service)->TopKCompletions(query.first, query.second);
      ASSERT_TRUE(top.ok()) << top.status().ToString();
      ASSERT_EQ(*top, expected) << SequenceToDebugString(query.first)
                                << " k=" << query.second;
    }
  }
}

std::string LayoutName(const ::testing::TestParamInfo<LayoutCase>& info) {
  return "restart" + std::to_string(info.param.restart_interval) +
         "_block" + std::to_string(info.param.block_bytes);
}

std::vector<LayoutCase> Layouts() {
  std::vector<LayoutCase> cases;
  for (const uint32_t restart_interval : {1u, 2u, 16u, 64u}) {
    for (const size_t block_bytes : {size_t{64}, size_t{16} << 10}) {
      cases.push_back({restart_interval, block_bytes});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Layouts, InPlaceReadTest,
                         ::testing::ValuesIn(Layouts()), LayoutName);

TEST(TopKCompletionsTest, TiesRankByTermAcrossVarintWidths) {
  // Equal counts throughout, and terms whose varint byte order (the scan
  // order) differs from their numeric order: 129 = [0x81 0x01] sorts
  // after 256 = [0x80 0x02]. The bounded selection must still break
  // every tie by ascending term.
  NgramStatistics stats;
  const TermId terms[] = {3, 129, 256, 130, 257, 1u << 20, 70, 128};
  stats.Add({1}, 9);
  for (const TermId term : terms) {
    stats.Add({1, term}, 7);
  }
  stats.Add({1, 40}, 8);
  stats.SortCanonical();
  auto dir = TempDir::Create("topk-ties");
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(BuildServingShards(stats, dir->path().string()).ok());
  auto service = StatsService::Open(dir->path().string());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  for (size_t k = 0; k <= 10; ++k) {
    auto top = (*service)->TopKCompletions({1}, k);
    ASSERT_TRUE(top.ok()) << top.status().ToString();
    EXPECT_EQ(*top, ExpectedTopK(stats, {1}, k)) << "k=" << k;
  }
}

// ---------------------------------------------------- block surgery --

/// One front-coded entry (runfile.h format), as a test-side parse.
struct RawEntry {
  uint64_t shared = 0;
  std::string suffix;
  std::string value;
};

struct RawBlock {
  std::vector<RawEntry> entries;
  std::vector<size_t> restarts;  // Indexes of restart entries.
};

/// Parses a writer-produced payload (trusted: the pristine segment).
RawBlock ParsePayload(const std::string& payload) {
  RawBlock block;
  const uint32_t num_restarts =
      DecodeFixed32(payload.data() + payload.size() - 4);
  const size_t entries_end = payload.size() - 4 * (num_restarts + 1);
  std::set<uint32_t> restart_offsets;
  for (uint32_t i = 0; i < num_restarts; ++i) {
    restart_offsets.insert(DecodeFixed32(payload.data() + entries_end + 4 * i));
  }
  Slice in(payload.data(), entries_end);
  while (!in.empty()) {
    const uint32_t offset = static_cast<uint32_t>(in.data() - payload.data());
    if (restart_offsets.count(offset) != 0) {
      block.restarts.push_back(block.entries.size());
    }
    const uint8_t tag = static_cast<uint8_t>(in[0]);
    in.RemovePrefix(1);
    RawEntry entry;
    uint64_t non_shared = tag & 0x0f;
    uint64_t vlen = 0;
    entry.shared = tag >> 4;
    if (entry.shared == 15) {
      EXPECT_TRUE(GetVarint64(&in, &entry.shared));
    }
    if (non_shared == 15) {
      EXPECT_TRUE(GetVarint64(&in, &non_shared));
    }
    EXPECT_TRUE(GetVarint64(&in, &vlen));
    entry.suffix.assign(in.data(), non_shared);
    entry.value.assign(in.data() + non_shared, vlen);
    in.RemovePrefix(non_shared + vlen);
    block.entries.push_back(std::move(entry));
  }
  return block;
}

/// Serializes `block`; `*entries_end` receives the entry region's size.
std::string SerializePayload(const RawBlock& block, size_t* entries_end) {
  std::string payload;
  std::vector<uint32_t> offsets;
  for (const RawEntry& entry : block.entries) {
    offsets.push_back(static_cast<uint32_t>(payload.size()));
    const uint64_t non_shared = entry.suffix.size();
    const uint8_t shared_nib = entry.shared < 15 ? entry.shared : 15;
    const uint8_t non_shared_nib = non_shared < 15 ? non_shared : 15;
    payload.push_back(static_cast<char>((shared_nib << 4) | non_shared_nib));
    if (shared_nib == 15) {
      PutVarint64(&payload, entry.shared);
    }
    if (non_shared_nib == 15) {
      PutVarint64(&payload, non_shared);
    }
    PutVarint64(&payload, entry.value.size());
    payload += entry.suffix;
    payload += entry.value;
  }
  *entries_end = payload.size();
  for (const size_t index : block.restarts) {
    PutFixed32(&payload, offsets[index]);
  }
  PutFixed32(&payload, static_cast<uint32_t>(block.restarts.size()));
  return payload;
}

/// Segment selector of the helpers below: a shard index, or this.
constexpr size_t kCompletionSegment = SIZE_MAX;

ShardEntry& SegmentOf(Manifest& manifest, size_t segment) {
  return segment == kCompletionSegment ? manifest.completions
                                       : manifest.shards[segment];
}

/// Payload of block `block` of segment `segment` in serving directory
/// `dir`.
std::string ReadPayload(const std::string& dir, size_t segment,
                        size_t block) {
  Manifest manifest = ReadManifestOrDie(dir);
  const ShardEntry& entry = SegmentOf(manifest, segment);
  const std::string file = ReadFileBytes(dir + "/" + entry.file_name);
  const BlockEntry& extent = entry.blocks[block];
  Slice in(file.data() + extent.offset, extent.length);
  uint64_t payload_len = 0;
  EXPECT_TRUE(GetVarint64(&in, &payload_len));
  return std::string(in.data(), payload_len);
}

/// Replaces block `block` of segment `segment` with the raw bytes
/// `framed` and rewrites the manifest so the block extents still tile the
/// file.
void ReplaceBlockBytes(const std::string& dir, size_t segment, size_t block,
                       const std::string& framed) {
  Manifest manifest = ReadManifestOrDie(dir);
  ShardEntry& entry = SegmentOf(manifest, segment);
  const std::string path = dir + "/" + entry.file_name;
  std::string file = ReadFileBytes(path);
  BlockEntry& extent = entry.blocks[block];
  file = file.substr(0, extent.offset) + framed +
         file.substr(extent.offset + extent.length);
  const uint64_t old_length = extent.length;
  extent.length = framed.size();
  for (size_t b = block + 1; b < entry.blocks.size(); ++b) {
    entry.blocks[b].offset = entry.blocks[b].offset + framed.size() -
                             old_length;
  }
  entry.file_size = file.size();
  WriteFileBytes(path, file);
  ASSERT_TRUE(WriteManifest(manifest, dir).ok());
}

/// Frames `payload` as a block with a matching CRC.
std::string FrameWithCrc(const std::string& payload) {
  std::string framed;
  PutVarint64(&framed, payload.size());
  framed += payload;
  PutFixed32(&framed, Crc32(0, payload.data(), payload.size()));
  return framed;
}

// --------------------------------------------- CRC-valid malformed blocks --

enum class Malformation {
  kRestartMidEntry,
  kRestartEntryShared,
  kEntryOverrunsRestarts,
  kSharedBeyondPreviousKey,
  kNoEntries,
};

/// `pristine` with one structural defect, still a CRC-valid block once
/// framed.
std::string Malform(const std::string& pristine, Malformation kind) {
  RawBlock block = ParsePayload(pristine);
  EXPECT_GE(block.entries.size(), 3u);
  EXPECT_GE(block.restarts.size(), 2u);
  size_t entries_end = 0;
  switch (kind) {
    case Malformation::kRestartMidEntry: {
      std::string payload = SerializePayload(block, &entries_end);
      // The last slot points one byte into its entry.
      char* slot = &payload[payload.size() - 8];
      EncodeFixed32To(slot, DecodeFixed32(slot) + 1);
      return payload;
    }
    case Malformation::kRestartEntryShared:
      block.entries[block.restarts[1]].shared = 1;
      return SerializePayload(block, &entries_end);
    case Malformation::kEntryOverrunsRestarts: {
      // Drop the last value byte: the last entry's declared value length
      // now reaches into the restart array.
      std::string payload = SerializePayload(block, &entries_end);
      payload.erase(entries_end - 1, 1);
      return payload;
    }
    case Malformation::kSharedBeyondPreviousKey: {
      // Entry 1 is not a restart (restart interval 2 in the fixture).
      const RawEntry& first = block.entries[0];
      block.entries[1].shared = first.shared + first.suffix.size() + 1;
      return SerializePayload(block, &entries_end);
    }
    case Malformation::kNoEntries: {
      std::string payload;
      PutFixed32(&payload, 0);
      PutFixed32(&payload, 0);
      PutFixed32(&payload, 2);
      return payload;
    }
  }
  return pristine;
}

/// The structure check each malformation must trip.
const char* ExpectedReason(Malformation kind) {
  switch (kind) {
    case Malformation::kRestartMidEntry:
      return "restart array does not point at entry starts";
    case Malformation::kRestartEntryShared:
      return "restart entry does not store its whole key";
    case Malformation::kEntryOverrunsRestarts:
      return "malformed entry";
    case Malformation::kSharedBeyondPreviousKey:
      return "entry shares more bytes than the previous key has";
    case Malformation::kNoEntries:
      return "block with no entries";
  }
  return "";
}

class MalformedBlockTest : public ::testing::TestWithParam<Malformation> {};

/// Index of the first block after the first of `segment` that the
/// malformations can edit: at least three entries and two restarts.
size_t EditableBlock(const std::string& dir, size_t segment) {
  Manifest manifest = ReadManifestOrDie(dir);
  const ShardEntry& entry = SegmentOf(manifest, segment);
  for (size_t b = 1; b < entry.blocks.size(); ++b) {
    const RawBlock block = ParsePayload(ReadPayload(dir, segment, b));
    if (block.entries.size() >= 3 && block.restarts.size() >= 2) {
      return b;
    }
  }
  ADD_FAILURE() << "no editable block in " << entry.file_name;
  return 0;
}

TEST_P(MalformedBlockTest, EveryQueryTypeIsCorruptionNamingTheShard) {
  const NgramStatistics stats = FamilyStats(9, 60);
  auto dir = TempDir::Create("malformed-block");
  ASSERT_TRUE(dir.ok());
  const std::string root = dir->path().string();
  BuildServingOptions build;
  build.num_shards = 1;
  build.block_bytes = 128;
  build.restart_interval = 2;
  ASSERT_TRUE(BuildServingShards(stats, root, build).ok());
  const Manifest manifest = ReadManifestOrDie(root);
  ASSERT_GE(manifest.shards[0].blocks.size(), 3u);
  const size_t victim = 1;
  const std::string first_key = manifest.shards[0].blocks[victim].first_key;
  const std::string shard_path = root + "/" + manifest.shards[0].file_name;
  // TopKCompletions reads the completion segment only: malform one of its
  // blocks too, and ask for the prefix that block starts with.
  const size_t completion_victim = EditableBlock(root, kCompletionSegment);
  ASSERT_GT(completion_victim, 0u);
  const std::string completion_key =
      manifest.completions.blocks[completion_victim].first_key;
  const std::string completion_path =
      root + "/" + manifest.completions.file_name;

  ReplaceBlockBytes(
      root, 0, victim,
      FrameWithCrc(Malform(ReadPayload(root, 0, victim), GetParam())));
  ReplaceBlockBytes(
      root, kCompletionSegment, completion_victim,
      FrameWithCrc(Malform(
          ReadPayload(root, kCompletionSegment, completion_victim),
          GetParam())));

  TermSequence prefix;
  ASSERT_TRUE(SequenceCodec::Decode(Slice(completion_key), &prefix));

  auto expect_corruption = [&](const Status& st, const std::string& path,
                               const char* query) {
    EXPECT_TRUE(st.IsCorruption()) << query << ": " << st.ToString();
    EXPECT_NE(st.ToString().find(path), std::string::npos)
        << query << ": " << st.ToString();
    EXPECT_NE(st.ToString().find(ExpectedReason(GetParam())),
              std::string::npos)
        << query << ": " << st.ToString();
  };
  for (const size_t cache_bytes : {size_t{0}, SIZE_MAX}) {
    SCOPED_TRACE("cache_bytes=" + std::to_string(cache_bytes));
    ServingOptions serving;
    serving.cache_bytes = cache_bytes;
    auto service = StatsService::Open(root, serving);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    const ShardedStatsStore& store = *(*service)->store();
    // Nothing gets cached, and a failed check marks nothing checked.
    for (int attempt = 0; attempt < 2; ++attempt) {
      uint64_t count = 0;
      expect_corruption(store.Count(Slice(first_key), &count), shard_path,
                        "Count");
      expect_corruption(
          store.ScanRange(Slice(first_key), Slice(),
                          [](Slice, uint64_t) { return true; }),
          shard_path, "ScanRange");
      expect_corruption((*service)->TopKCompletions(prefix, 10).status(),
                        completion_path, "TopKCompletions");
    }
  }
}

std::string MalformationName(
    const ::testing::TestParamInfo<Malformation>& info) {
  switch (info.param) {
    case Malformation::kRestartMidEntry:
      return "RestartMidEntry";
    case Malformation::kRestartEntryShared:
      return "RestartEntryShared";
    case Malformation::kEntryOverrunsRestarts:
      return "EntryOverrunsRestarts";
    case Malformation::kSharedBeyondPreviousKey:
      return "SharedBeyondPreviousKey";
    case Malformation::kNoEntries:
      return "NoEntries";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(
    Malformations, MalformedBlockTest,
    ::testing::Values(Malformation::kRestartMidEntry,
                      Malformation::kRestartEntryShared,
                      Malformation::kEntryOverrunsRestarts,
                      Malformation::kSharedBeyondPreviousKey,
                      Malformation::kNoEntries),
    MalformationName);

TEST(MalformedCompletionListTest, UnrankedOrTruncatedListIsCorruption) {
  const NgramStatistics stats = FamilyStats(9, 60);
  auto dir = TempDir::Create("malformed-list");
  ASSERT_TRUE(dir.ok());
  const std::string root = dir->path().string();
  BuildServingOptions build;
  build.num_shards = 1;
  build.block_bytes = 128;
  build.restart_interval = 2;
  ASSERT_TRUE(BuildServingShards(stats, root, build).ok());
  const Manifest manifest = ReadManifestOrDie(root);
  const std::string completion_path =
      root + "/" + manifest.completions.file_name;
  const std::string pristine = ReadFileBytes(completion_path);

  // The first list of at least two pairs: its block, entry and prefix.
  size_t victim_block = 0;
  size_t victim_entry = 0;
  std::string victim_key;
  bool found = false;
  for (size_t b = 0; b < manifest.completions.blocks.size() && !found;
       ++b) {
    const RawBlock block =
        ParsePayload(ReadPayload(root, kCompletionSegment, b));
    std::string key;
    for (size_t e = 0; e < block.entries.size(); ++e) {
      const RawEntry& entry = block.entries[e];
      key = key.substr(0, entry.shared) + entry.suffix;
      Slice list(entry.value);
      TermId term = 0;
      uint64_t count = 0;
      int pairs = 0;
      while (GetVarint32(&list, &term) && GetVarint64(&list, &count)) {
        ++pairs;
      }
      if (pairs >= 2) {
        victim_block = b;
        victim_entry = e;
        victim_key = key;
        found = true;
        break;
      }
    }
  }
  ASSERT_TRUE(found);
  TermSequence prefix;
  ASSERT_TRUE(SequenceCodec::Decode(Slice(victim_key), &prefix));

  // Two edits of the list, each framed with a valid CRC: the first two
  // pairs swapped (out of rank order), and the last byte dropped (a
  // truncated varint).
  for (const bool swap : {true, false}) {
    SCOPED_TRACE(swap ? "unranked" : "truncated");
    WriteFileBytes(completion_path, pristine);
    ASSERT_TRUE(WriteManifest(manifest, root).ok());
    RawBlock block =
        ParsePayload(ReadPayload(root, kCompletionSegment, victim_block));
    std::string& value = block.entries[victim_entry].value;
    if (swap) {
      Slice list(value);
      TermId term = 0;
      uint64_t count = 0;
      ASSERT_TRUE(GetVarint32(&list, &term) && GetVarint64(&list, &count));
      const size_t first = value.size() - list.size();
      ASSERT_TRUE(GetVarint32(&list, &term) && GetVarint64(&list, &count));
      const size_t second = value.size() - list.size();
      value = value.substr(first, second - first) + value.substr(0, first) +
              value.substr(second);
    } else {
      value.pop_back();
    }
    size_t entries_end = 0;
    ReplaceBlockBytes(root, kCompletionSegment, victim_block,
                      FrameWithCrc(SerializePayload(block, &entries_end)));
    for (const size_t cache_bytes : {size_t{0}, SIZE_MAX}) {
      ServingOptions serving;
      serving.cache_bytes = cache_bytes;
      auto service = StatsService::Open(root, serving);
      ASSERT_TRUE(service.ok()) << service.status().ToString();
      auto top = (*service)->TopKCompletions(prefix, 1000);
      ASSERT_FALSE(top.ok());
      EXPECT_TRUE(top.status().IsCorruption()) << top.status().ToString();
      EXPECT_NE(top.status().ToString().find("malformed completion list"),
                std::string::npos)
          << top.status().ToString();
      EXPECT_NE(top.status().ToString().find(completion_path),
                std::string::npos)
          << top.status().ToString();
    }
  }
}

// ------------------------------------------------ seeded mutation loop --

/// Applies the mutation `seed` derives (SplitMix64-seeded, so a failing
/// seed replays exactly) to the single shard of `dir` or to its
/// completion segment, and returns the mutated file's path: a bit flip
/// anywhere in the segment, a block cut short under its stale length and
/// CRC, or a restart-array edit with the CRC recomputed. Restart edits
/// either break the array's invariants (Corruption) or leave every slot
/// on a whole-key entry in ascending order — a valid seek structure.
std::string Mutate(const std::string& dir, uint64_t seed) {
  Rng rng(seed);
  Manifest manifest = ReadManifestOrDie(dir);
  const size_t segment = rng.OneIn(0.5) ? 0 : kCompletionSegment;
  const ShardEntry& shard = SegmentOf(manifest, segment);
  const std::string path = dir + "/" + shard.file_name;
  const size_t block = rng.Uniform(shard.blocks.size());
  switch (rng.Uniform(3)) {
    case 0: {
      std::string file = ReadFileBytes(path);
      file[rng.Uniform(file.size())] ^= static_cast<char>(1u << rng.Uniform(8));
      WriteFileBytes(path, file);
      return path;
    }
    case 1: {
      // Keep the original header and CRC trailer around a shorter
      // payload.
      const std::string payload = ReadPayload(dir, segment, block);
      const size_t cut = 1 + rng.Uniform(payload.size() - 1);
      std::string framed;
      PutVarint64(&framed, payload.size());
      framed += payload.substr(0, payload.size() - cut);
      PutFixed32(&framed, Crc32(0, payload.data(), payload.size()));
      ReplaceBlockBytes(dir, segment, block, framed);
      return path;
    }
    default: {
      std::string payload = ReadPayload(dir, segment, block);
      const uint32_t num_restarts =
          DecodeFixed32(payload.data() + payload.size() - 4);
      const size_t array = payload.size() - 4 * (num_restarts + 1);
      auto slot = [&](uint32_t i) { return &payload[array + 4 * i]; };
      const uint32_t i = static_cast<uint32_t>(rng.Uniform(num_restarts));
      const uint32_t j = static_cast<uint32_t>(rng.Uniform(num_restarts));
      const uint32_t old_value = DecodeFixed32(slot(i));
      switch (rng.Uniform(4)) {
        case 0:  // Anywhere in (or just past) the entry region.
          EncodeFixed32To(slot(i),
                          static_cast<uint32_t>(rng.Uniform(array + 8)));
          break;
        case 1:  // One byte off.
          EncodeFixed32To(slot(i), rng.OneIn(0.5) ? old_value + 1
                                                  : old_value - 1);
          break;
        case 2: {  // Two slots swapped.
          const uint32_t other = DecodeFixed32(slot(j));
          EncodeFixed32To(slot(i), other);
          EncodeFixed32To(slot(j), old_value);
          break;
        }
        default:  // A slot duplicated into another.
          EncodeFixed32To(slot(j), old_value);
          break;
      }
      ReplaceBlockBytes(dir, segment, block, FrameWithCrc(payload));
      return path;
    }
  }
}

TEST(ServingMutationTest, SeededMutationsAnswerRightOrCorruption) {
  const NgramStatistics stats = FamilyStats(13, 40);
  const Table table = TableOf(stats);
  auto dir = TempDir::Create("serving-mutation");
  ASSERT_TRUE(dir.ok());
  const std::string root = dir->path().string();
  BuildServingOptions build;
  build.num_shards = 1;
  build.block_bytes = 128;
  build.restart_interval = 4;
  ASSERT_TRUE(BuildServingShards(stats, root, build).ok());
  const Manifest pristine_manifest = ReadManifestOrDie(root);
  const std::string shard_path =
      root + "/" + pristine_manifest.shards[0].file_name;
  const std::string completion_path =
      root + "/" + pristine_manifest.completions.file_name;
  const std::string pristine_segment = ReadFileBytes(shard_path);
  const std::string pristine_completions = ReadFileBytes(completion_path);
  const std::vector<std::string> probes = Probes(table);
  std::set<TermSequence> prefixes = {TermSequence{}};
  for (const auto& [seq, cf] : stats.entries) {
    prefixes.insert(TermSequence(seq.begin(), seq.end() - 1));
  }

  uint64_t right = 0;
  uint64_t corrupt = 0;
  uint64_t completion_corrupt = 0;
  // Every query is either answered right or refused with Corruption
  // naming the mutated segment; anything else fails the seed.
  std::string mutated;
  auto check = [&](const Status& st, bool answer_right, const char* query,
                   uint64_t seed) {
    if (st.ok()) {
      ASSERT_TRUE(answer_right) << query << " answered wrong, seed " << seed;
      ++right;
    } else {
      ASSERT_TRUE(st.IsCorruption()) << query << " seed " << seed << ": "
                                     << st.ToString();
      ASSERT_NE(st.ToString().find(mutated), std::string::npos)
          << query << " seed " << seed << ": " << st.ToString();
      ++corrupt;
      completion_corrupt += mutated == completion_path ? 1 : 0;
    }
  };
  for (uint64_t seed = 1; seed <= 240; ++seed) {
    WriteFileBytes(shard_path, pristine_segment);
    WriteFileBytes(completion_path, pristine_completions);
    ASSERT_TRUE(WriteManifest(pristine_manifest, root).ok());
    mutated = Mutate(root, seed);
    for (const size_t cache_bytes : {size_t{0}, SIZE_MAX}) {
      ServingOptions serving;
      serving.cache_bytes = cache_bytes;
      auto service = StatsService::Open(root, serving);
      ASSERT_TRUE(service.ok()) << service.status().ToString();
      const ShardedStatsStore& store = *(*service)->store();
      for (size_t p = 0; p < probes.size(); p += 3) {
        uint64_t count = 0;
        const Status st = store.Count(Slice(probes[p]), &count);
        const auto it = table.find(probes[p]);
        check(st, count == (it == table.end() ? 0u : it->second), "Count",
              seed);
      }
      Table scanned;
      const Status scan = store.ScanRange(
          Slice(), Slice(), [&](Slice key, uint64_t count) {
            scanned[key.ToString()] = count;
            return true;
          });
      check(scan, scanned == table, "ScanRange", seed);
      for (const TermSequence& prefix : prefixes) {
        auto top = (*service)->TopKCompletions(prefix, 5);
        check(top.status(),
              top.ok() && *top == ExpectedTopK(stats, prefix, 5),
              "TopKCompletions", seed);
      }
    }
  }
  // The loop exercised both outcomes, and corruption in both segments.
  EXPECT_GT(right, 0u);
  EXPECT_GT(corrupt, completion_corrupt);
  EXPECT_GT(completion_corrupt, 0u);
}

}  // namespace
}  // namespace ngram::serve
