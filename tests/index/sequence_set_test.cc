#include "index/sequence_set.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <thread>

#include "testing/recording_env.h"
#include "util/random.h"
#include "util/temp_dir.h"

namespace ngram {
namespace {

Status InsertSequence(SequenceSet* set, const TermSequence& seq) {
  std::string encoded;
  SequenceCodec::Encode(seq, &encoded);
  return set->Insert(Slice(encoded));
}

/// Membership of `seq[begin..end)`; a probe error fails the test.
bool Has(const SequenceSet& set, const TermSequence& seq, size_t begin,
         size_t end) {
  std::string encoded;
  SequenceCodec::EncodeRange(seq, begin, end, &encoded);
  bool found = false;
  const Status st = set.Contains(Slice(encoded), &found);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return found;
}

bool Has(const SequenceSet& set, const TermSequence& seq) {
  return Has(set, seq, 0, seq.size());
}

size_t FilesIn(const std::filesystem::path& dir) {
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(SequenceSetTest, InsertAndContains) {
  SequenceSet set;
  ASSERT_TRUE(InsertSequence(&set, {1, 2, 3}).ok());
  ASSERT_TRUE(InsertSequence(&set, {1, 2}).ok());
  EXPECT_TRUE(Has(set, {1, 2, 3}, 0, 3));
  EXPECT_TRUE(Has(set, {1, 2, 3}, 0, 2));
  EXPECT_FALSE(Has(set, {1, 2, 3}, 1, 3));
  EXPECT_EQ(set.size(), 2u);
}

TEST(SequenceSetTest, DuplicatesIgnored) {
  SequenceSet set;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(InsertSequence(&set, {7, 8}).ok());
  }
  EXPECT_EQ(set.size(), 1u);
}

TEST(SequenceSetTest, EmptySequenceIsStorable) {
  SequenceSet set;
  ASSERT_TRUE(InsertSequence(&set, {}).ok());
  EXPECT_TRUE(Has(set, {}));
  EXPECT_EQ(set.size(), 1u);
}

TEST(SequenceSetTest, GrowsThroughManyInsertsAndRehashes) {
  SequenceSet set;
  Rng rng(5);
  std::set<TermSequence> model;
  for (int i = 0; i < 20000; ++i) {
    TermSequence seq;
    const uint64_t len = 1 + rng.Uniform(5);
    for (uint64_t j = 0; j < len; ++j) {
      seq.push_back(1 + static_cast<TermId>(rng.Uniform(50)));
    }
    ASSERT_TRUE(InsertSequence(&set, seq).ok());
    model.insert(seq);
  }
  EXPECT_EQ(set.size(), model.size());
  for (const auto& seq : model) {
    ASSERT_TRUE(Has(set, seq));
  }
  // Random absent probes.
  for (int i = 0; i < 1000; ++i) {
    TermSequence seq = {1 + static_cast<TermId>(rng.Uniform(50)),
                        100 + static_cast<TermId>(rng.Uniform(50))};
    EXPECT_EQ(Has(set, seq), model.count(seq) > 0);
  }
}

/// Options that spill into `dir` past `budget` bytes.
SequenceSet::Options SpillOptions(const TempDir& dir, size_t budget,
                                  mr::IoEnv* env = nullptr) {
  SequenceSet::Options options;
  options.memory_budget_bytes = budget;
  options.spill_prefix = dir.File("dict");
  options.env = env;
  return options;
}

TEST(SequenceSetTest, SpillsToBlockRunPastBudget) {
  auto dir = TempDir::Create("seqset-test");
  ASSERT_TRUE(dir.ok());
  const SequenceSet::Options options = SpillOptions(*dir, 4096);
  {
    SequenceSet set(options);
    std::vector<TermSequence> inserted;
    for (TermId i = 1; i <= 20000; ++i) {
      const TermSequence seq = {i, i + 1, i + 2};
      ASSERT_TRUE(InsertSequence(&set, seq).ok());
      inserted.push_back(seq);
    }
    EXPECT_TRUE(set.spilled());
    ASSERT_TRUE(set.Finish().ok());
    EXPECT_EQ(set.size(), 20000u);
    for (const auto& seq : inserted) {
      ASSERT_TRUE(Has(set, seq)) << seq[0];
    }
    EXPECT_FALSE(Has(set, {90000, 1, 2}));
    EXPECT_FALSE(Has(set, {}));  // Sorts before every stored key.
    // One merged run is left, and the arena is gone: what stays in memory
    // is the run's block index, which MemoryBytes() counts.
    EXPECT_EQ(FilesIn(dir->path()), 1u);
    EXPECT_GT(set.MemoryBytes(), 0u);
    EXPECT_LT(set.MemoryBytes(), options.memory_budget_bytes);
    EXPECT_FALSE(InsertSequence(&set, {1}).ok());  // The build is over.
  }
  EXPECT_EQ(FilesIn(dir->path()), 0u);  // Dropping the set removes the run.
}

TEST(SequenceSetTest, SpilledContainsAgreesWithStdSet) {
  auto dir = TempDir::Create("seqset-test");
  ASSERT_TRUE(dir.ok());
  const size_t budget = 1 << 16;
  SequenceSet set(SpillOptions(*dir, budget));
  Rng rng(17);
  std::set<TermSequence> model;
  for (int i = 0; i < 60000; ++i) {
    TermSequence seq;
    const uint64_t len = 1 + rng.Uniform(4);
    for (uint64_t j = 0; j < len; ++j) {
      seq.push_back(1 + static_cast<TermId>(rng.Uniform(300)));
    }
    const bool was_spilled = set.spilled();
    ASSERT_TRUE(InsertSequence(&set, seq).ok());  // Duplicates included.
    model.insert(seq);
    if (!was_spilled && set.spilled()) {
      // The spill emptied the arena: a fresh table plus a block index.
      EXPECT_LT(set.MemoryBytes(), budget);
    }
  }
  ASSERT_TRUE(set.spilled());
  ASSERT_TRUE(set.Finish().ok());
  EXPECT_EQ(set.size(), model.size());  // Cross-run duplicates dropped.
  for (const auto& seq : model) {
    ASSERT_TRUE(Has(set, seq));
  }
  for (int i = 0; i < 5000; ++i) {
    TermSequence seq;
    const uint64_t len = 1 + rng.Uniform(5);
    for (uint64_t j = 0; j < len; ++j) {
      seq.push_back(1 + static_cast<TermId>(rng.Uniform(320)));
    }
    EXPECT_EQ(Has(set, seq), model.count(seq) > 0);
  }
}

TEST(SequenceSetTest, SpilledSetAnswersConcurrentProbes) {
  // Map tasks on different slots probe one shared dictionary; the first
  // probe of each block checks it, racing with the others.
  auto dir = TempDir::Create("seqset-test");
  ASSERT_TRUE(dir.ok());
  SequenceSet set(SpillOptions(*dir, 1));
  for (TermId i = 1; i <= 20000; i += 2) {
    ASSERT_TRUE(InsertSequence(&set, {i, i + 1}).ok());
  }
  ASSERT_TRUE(set.Finish().ok());
  ASSERT_TRUE(set.spilled());
  std::vector<uint64_t> hits(4, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < hits.size(); ++t) {
    threads.emplace_back([&set, &hits, t] {
      for (TermId i = 1; i <= 20000; ++i) {
        hits[t] += Has(set, {i, i + 1}) ? 1 : 0;
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (uint64_t h : hits) {
    EXPECT_EQ(h, 10000u);
  }
}

TEST(SequenceSetTest, ProbeOfCorruptedRunReturnsCorruption) {
  auto build = [](SequenceSet* set) {
    for (TermId i = 1; i <= 40000; ++i) {
      ASSERT_TRUE(InsertSequence(set, {i, i}).ok());
    }
    ASSERT_TRUE(set->Finish().ok());
  };
  // A clean build names the run Finish() leaves: the last file written.
  auto clean_dir = TempDir::Create("seqset-test");
  ASSERT_TRUE(clean_dir.ok());
  testing::RecordingEnv recorder;
  std::string final_name;
  {
    SequenceSet set(SpillOptions(*clean_dir, 1, &recorder));
    build(&set);
    ASSERT_GT(recorder.written().size(), 2u);  // Several runs, merged.
    final_name = std::filesystem::path(recorder.written().back())
                     .filename()
                     .string();
  }

  // Flip a bit in that run only: the merge checks its inputs, so this is
  // the damage that only a probe can meet.
  auto dir = TempDir::Create("seqset-test");
  ASSERT_TRUE(dir.ok());
  testing::RecordingEnv env(/*flip_fragment=*/"/" + final_name);
  SequenceSet set(SpillOptions(*dir, 1, &env));
  build(&set);
  ASSERT_FALSE(env.flipped_path().empty());
  Status first_error;
  for (TermId i = 1; i <= 40000 && first_error.ok(); ++i) {
    std::string encoded;
    SequenceCodec::Encode({i, i}, &encoded);
    bool found = false;
    first_error = set.Contains(Slice(encoded), &found);
  }
  EXPECT_TRUE(first_error.IsCorruption()) << first_error.ToString();
  const std::string final_path =
      (dir->path() / final_name).string();
  EXPECT_NE(first_error.message().find(
                final_path.substr(0, final_path.size() - 4)),  // No ".tmp".
            std::string::npos)
      << first_error.ToString();
}

TEST(SequenceSetTest, OverBudgetWithoutSpillDirFails) {
  SequenceSet::Options options;
  options.memory_budget_bytes = 64;
  SequenceSet set(options);
  Status last;
  for (TermId i = 1; i <= 100 && last.ok(); ++i) {
    last = InsertSequence(&set, {i, i, i, i});
  }
  EXPECT_TRUE(last.IsResourceExhausted());
}

TEST(SequenceSetTest, InsertAfterSpillDeduplicates) {
  auto dir = TempDir::Create("seqset-test");
  ASSERT_TRUE(dir.ok());
  SequenceSet set(SpillOptions(*dir, 256));
  for (TermId i = 1; i <= 40000; ++i) {
    ASSERT_TRUE(InsertSequence(&set, {i}).ok());
  }
  ASSERT_TRUE(set.spilled());
  ASSERT_TRUE(InsertSequence(&set, {5}).ok());  // Already in a spilled run.
  ASSERT_TRUE(set.Finish().ok());
  EXPECT_EQ(set.size(), 40000u);
}

}  // namespace
}  // namespace ngram
