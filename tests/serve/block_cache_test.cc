#include "serve/block_cache.h"

#include <gtest/gtest.h>

namespace ngram::kv {
namespace {

std::shared_ptr<const std::string> Block(const std::string& data) {
  return std::make_shared<const std::string>(data);
}

TEST(BlockCacheTest, InsertAndLookup) {
  BlockCache cache(1024);
  cache.Insert({1, 0}, Block("hello"));
  auto hit = cache.Lookup({1, 0});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "hello");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.Lookup({1, 1}), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(BlockCacheTest, EvictsLruWhenOverCapacity) {
  BlockCache cache(10);
  cache.Insert({1, 0}, Block("aaaa"));  // 4 bytes
  cache.Insert({1, 1}, Block("bbbb"));  // 8 bytes total
  ASSERT_NE(cache.Lookup({1, 0}), nullptr);  // Touch 0: now 1 is LRU.
  cache.Insert({1, 2}, Block("cccc"));       // 12 > 10: evict block 1.
  EXPECT_EQ(cache.Lookup({1, 1}), nullptr);
  EXPECT_NE(cache.Lookup({1, 0}), nullptr);
  EXPECT_NE(cache.Lookup({1, 2}), nullptr);
}

TEST(BlockCacheTest, ZeroCapacityDisablesCaching) {
  BlockCache cache(0);
  cache.Insert({1, 0}, Block("data"));
  EXPECT_EQ(cache.Lookup({1, 0}), nullptr);
  EXPECT_EQ(cache.charged_bytes(), 0u);
}

TEST(BlockCacheTest, ReplaceSameKeyUpdatesCharge) {
  BlockCache cache(100);
  cache.Insert({2, 5}, Block("xx"));
  cache.Insert({2, 5}, Block("yyyy"));
  EXPECT_EQ(cache.charged_bytes(), 4u);
  auto hit = cache.Lookup({2, 5});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "yyyy");
}

TEST(BlockCacheTest, DistinctFilesDoNotCollide) {
  BlockCache cache(1024);
  cache.Insert({1, 7}, Block("file1"));
  cache.Insert({2, 7}, Block("file2"));
  EXPECT_EQ(*cache.Lookup({1, 7}), "file1");
  EXPECT_EQ(*cache.Lookup({2, 7}), "file2");
}

TEST(BlockCacheTest, SnapshotReportsAllCounters) {
  BlockCache cache(10);
  cache.Insert({1, 0}, Block("aaaa"));
  cache.Insert({1, 1}, Block("bbbb"));
  EXPECT_NE(cache.Lookup({1, 0}), nullptr);    // Hit; 1 becomes LRU.
  EXPECT_EQ(cache.Lookup({9, 9}), nullptr);    // Miss.
  cache.Insert({1, 2}, Block("cccc"));         // Evicts {1, 1}.

  const BlockCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.charged_bytes, 8u);
  EXPECT_EQ(stats.capacity_bytes, 10u);
  EXPECT_DOUBLE_EQ(stats.hit_ratio(), 0.5);
}

TEST(BlockCacheTest, HitRatioIsZeroBeforeAnyLookup) {
  BlockCache cache(16);
  EXPECT_DOUBLE_EQ(cache.Snapshot().hit_ratio(), 0.0);
}

TEST(BlockCacheTest, AllocateCacheFileIdIsUnique) {
  const uint64_t a = AllocateCacheFileId();
  const uint64_t b = AllocateCacheFileId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace ngram::kv
