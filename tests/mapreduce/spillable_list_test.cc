#include "mapreduce/spillable_list.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "testing/recording_env.h"
#include "util/temp_dir.h"

namespace ngram::mr {
namespace {

class SpillableListTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Create("spillable-list-test");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(dir).ValueOrDie());
  }

  size_t FilesInDir() const {
    size_t n = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir_->path())) {
      (void)entry;
      ++n;
    }
    return n;
  }

  std::unique_ptr<TempDir> dir_;
};

TEST_F(SpillableListTest, StaysInMemoryUnderBudget) {
  SpillableList<uint64_t> list(dir_->File("v"), 1 << 20);
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(list.Append(i).ok());
  }
  EXPECT_FALSE(list.spilled());
  EXPECT_EQ(list.size(), 100u);
  EXPECT_EQ(FilesInDir(), 0u);
}

TEST_F(SpillableListTest, SpillsPastBudgetAndReplaysInOrder) {
  std::vector<std::string> expected;
  {
    SpillableList<std::string> list(dir_->File("v"), 64);
    for (int i = 0; i < 50; ++i) {
      const std::string item = "item-" + std::to_string(i);
      ASSERT_TRUE(list.Append(item).ok());
      expected.push_back(item);
    }
    EXPECT_TRUE(list.spilled());
    EXPECT_EQ(list.size(), 50u);

    // Replays are repeatable (the nested-loop join replays its inner
    // side once per outer item).
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<std::string> seen;
      ASSERT_TRUE(list.ForEach([&](const std::string& s) {
                        seen.push_back(s);
                        return Status::OK();
                      })
                      .ok());
      EXPECT_EQ(seen, expected);
    }
    EXPECT_TRUE(std::filesystem::exists(dir_->File("v")));
    // A replayed (committed) list takes no more items.
    EXPECT_FALSE(list.Append("late").ok());
  }
  EXPECT_EQ(FilesInDir(), 0u);  // The destructor removes the run.
}

TEST_F(SpillableListTest, ComplexValueType) {
  using Item = std::pair<TermSequence, uint64_t>;
  SpillableList<Item> list(dir_->File("c"), 32);
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(list.Append({{1, 2, static_cast<TermId>(i)}, i}).ok());
  }
  EXPECT_TRUE(list.spilled());
  uint64_t count = 0;
  ASSERT_TRUE(list.ForEach([&](const Item& item) {
                    EXPECT_EQ(item.first[2], count);
                    EXPECT_EQ(item.second, count);
                    ++count;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(count, 20u);
}

TEST_F(SpillableListTest, ForEachPropagatesCallbackError) {
  for (size_t budget : {size_t{1} << 20, size_t{4}}) {
    SpillableList<uint64_t> list(dir_->File("d"), budget);
    ASSERT_TRUE(list.Append(1).ok());
    ASSERT_TRUE(list.Append(2).ok());
    Status st = list.ForEach([](const uint64_t& v) {
      return v == 2 ? Status::Cancelled("stop") : Status::OK();
    });
    EXPECT_EQ(st.code(), StatusCode::kCancelled) << "budget=" << budget;
  }
}

TEST_F(SpillableListTest, SpillGoesThroughTheEnv) {
  testing::RecordingEnv env;
  {
    SpillableList<uint64_t> list(dir_->File("e"), 8, &env);
    for (uint64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(list.Append(i).ok());
    }
    uint64_t sum = 0;
    ASSERT_TRUE(list.ForEach([&](const uint64_t& v) {
                      sum += v;
                      return Status::OK();
                    })
                    .ok());
    EXPECT_EQ(sum, 45u);
  }
  ASSERT_EQ(env.written().size(), 1u);
  EXPECT_EQ(env.written()[0].rfind(dir_->File("e"), 0), 0u);
  EXPECT_EQ(FilesInDir(), 0u);
}

TEST_F(SpillableListTest, BitFlipSurfacesAsCorruptionNamingTheFile) {
  testing::RecordingEnv env(/*flip_fragment=*/dir_->File("f"));
  SpillableList<std::string> list(dir_->File("f"), 8, &env);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(list.Append("value-" + std::to_string(i)).ok());
  }
  Status st = list.ForEach([](const std::string&) { return Status::OK(); });
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find(dir_->File("f")), std::string::npos)
      << st.ToString();
  EXPECT_FALSE(env.flipped_path().empty());
}

}  // namespace
}  // namespace ngram::mr
