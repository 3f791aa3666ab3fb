#include "serve/block_cache.h"

namespace ngram::kv {

uint64_t AllocateCacheFileId() {
  static std::atomic<uint64_t> source{1};
  return source.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const std::string> BlockCache::Lookup(const BlockKey& key) {
  MutexLock lock(&mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  // Move to front (most recently used).
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->block;
}

void BlockCache::Insert(const BlockKey& key,
                        std::shared_ptr<const std::string> block) {
  if (capacity_bytes_ == 0 || block == nullptr) {
    return;
  }
  MutexLock lock(&mu_);
  inserts_.fetch_add(1, std::memory_order_relaxed);
  auto it = index_.find(key);
  if (it != index_.end()) {
    charged_bytes_.fetch_sub(it->second->block->size(),
                             std::memory_order_relaxed);
    it->second->block = std::move(block);
    charged_bytes_.fetch_add(it->second->block->size(),
                             std::memory_order_relaxed);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, std::move(block)});
    index_[key] = lru_.begin();
    charged_bytes_.fetch_add(lru_.front().block->size(),
                             std::memory_order_relaxed);
  }
  EvictIfNeeded();
}

void BlockCache::EvictIfNeeded() {
  while (charged_bytes_.load(std::memory_order_relaxed) > capacity_bytes_ &&
         !lru_.empty()) {
    const Entry& victim = lru_.back();
    charged_bytes_.fetch_sub(victim.block->size(), std::memory_order_relaxed);
    index_.erase(victim.key);
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace ngram::kv
