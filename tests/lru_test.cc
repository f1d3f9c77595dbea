#include "memory/lru.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <list>
#include <optional>
#include <random>
#include <unordered_map>
#include <utility>

namespace stellar {
namespace {

// The list + hash-map LRU that LruCache replaced, kept as the oracle for
// the differential test below: same interface, one heap node per entry in
// each structure.
template <typename Key, typename Value>
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  const Value* get(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  const Value* peek(const Key& key) const {
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->second;
  }

  std::optional<std::pair<Key, Value>> put(const Key& key, Value value) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return std::nullopt;
    }
    if (capacity_ == 0) return std::nullopt;
    std::optional<std::pair<Key, Value>> victim;
    if (index_.size() >= capacity_) {
      ++evictions_;
      victim = std::move(order_.back());
      index_.erase(victim->first);
      order_.pop_back();
    }
    order_.emplace_front(key, std::move(value));
    index_[key] = order_.begin();
    return victim;
  }

  template <typename Pred>
  std::optional<std::pair<Key, Value>> evict_lru_matching(Pred pred) {
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
      if (!pred(it->first, it->second)) continue;
      std::pair<Key, Value> victim = std::move(*it);
      ++evictions_;
      index_.erase(victim.first);
      order_.erase(std::next(it).base());
      return victim;
    }
    return std::nullopt;
  }

  bool erase(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    order_.erase(it->second);
    index_.erase(it);
    return true;
  }

  void clear() {
    order_.clear();
    index_.clear();
  }

  std::size_t size() const { return index_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  std::size_t capacity_;
  std::list<std::pair<Key, Value>> order_;  // MRU at front
  std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator>
      index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

TEST(LruCacheTest, HitAndMissCounters) {
  LruCache<int, int> cache(2);
  EXPECT_EQ(cache.get(1), nullptr);
  cache.put(1, 10);
  ASSERT_NE(cache.get(1), nullptr);
  EXPECT_EQ(*cache.get(1), 10);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int, int> cache(2);
  cache.put(1, 10);
  cache.put(2, 20);
  cache.get(1);       // 1 becomes MRU
  cache.put(3, 30);   // evicts 2
  EXPECT_EQ(cache.get(2), nullptr);
  EXPECT_NE(cache.get(1), nullptr);
  EXPECT_NE(cache.get(3), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCacheTest, PutRefreshesRecency) {
  LruCache<int, int> cache(2);
  cache.put(1, 10);
  cache.put(2, 20);
  cache.put(1, 11);  // refresh + overwrite
  cache.put(3, 30);  // evicts 2, not 1
  EXPECT_EQ(cache.get(2), nullptr);
  EXPECT_EQ(*cache.get(1), 11);
}

TEST(LruCacheTest, PeekDoesNotTouch) {
  LruCache<int, int> cache(2);
  cache.put(1, 10);
  cache.put(2, 20);
  EXPECT_NE(cache.peek(1), nullptr);  // no recency update, no counter
  cache.put(3, 30);                   // evicts 1 (peek didn't refresh)
  EXPECT_EQ(cache.peek(1), nullptr);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(LruCacheTest, EraseAndClear) {
  LruCache<int, int> cache(4);
  cache.put(1, 1);
  cache.put(2, 2);
  EXPECT_TRUE(cache.erase(1));
  EXPECT_FALSE(cache.erase(1));
  EXPECT_EQ(cache.size(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCacheTest, ZeroCapacityNeverStores) {
  LruCache<int, int> cache(0);
  cache.put(1, 1);
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCacheTest, HitRate) {
  LruCache<int, int> cache(8);
  cache.put(1, 1);
  cache.get(1);
  cache.get(1);
  cache.get(2);
  EXPECT_NEAR(cache.hit_rate(), 2.0 / 3.0, 1e-9);
  cache.reset_counters();
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(LruCacheTest, CapacityStress) {
  LruCache<std::uint64_t, std::uint64_t> cache(128);
  for (std::uint64_t i = 0; i < 10'000; ++i) cache.put(i, i);
  EXPECT_EQ(cache.size(), 128u);
  // The last 128 inserted keys are resident.
  for (std::uint64_t i = 10'000 - 128; i < 10'000; ++i) {
    EXPECT_NE(cache.peek(i), nullptr);
  }
  EXPECT_EQ(cache.peek(0), nullptr);
}

// Seeded random get/peek/put/insert_absent/erase/clear/evict_lru_matching
// sequences over page-aligned keys, run against LruCache and the reference
// side by side (insert_absent only for keys the cache does not hold). Every
// returned value and victim, size() and all three counters must agree after
// every operation.
TEST(LruCacheTest, MatchesReferenceLruUnderRandomOps) {
  using Key = std::uint64_t;
  using Value = std::uint64_t;
  using Result = std::optional<std::pair<Key, Value>>;
  const auto value_of = [](const Value* v) -> std::optional<Value> {
    if (v == nullptr) return std::nullopt;
    return *v;
  };
  for (const std::size_t capacity : {0, 1, 2, 3, 7, 64, 500}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(::testing::Message()
                   << "capacity " << capacity << ", seed " << seed);
      LruCache<Key, Value> cache(capacity);
      ReferenceLru<Key, Value> ref(capacity);
      std::mt19937_64 rng(seed * 1000 + capacity);
      // Half again the capacity in distinct pages (plus a few): gets both
      // hit and miss, and the cache sits near capacity so puts both
      // refresh and evict. clear() is rare enough for it to refill.
      const std::uint64_t pages = capacity + capacity / 2 + 3;
      const auto draw = [&](std::uint64_t n) { return rng() % n; };
      const auto page = [&] { return draw(pages) << 12; };
      for (int op = 0; op < 40'000; ++op) {
        const std::uint64_t kind = draw(1000);
        if (kind < 400) {
          const Key k = page();
          ASSERT_EQ(value_of(cache.get(k)), value_of(ref.get(k))) << "get";
        } else if (kind < 450) {
          const Key k = page();
          ASSERT_EQ(value_of(cache.peek(k)), value_of(ref.peek(k))) << "peek";
        } else if (kind < 870) {
          const Key k = page();
          const Value v = rng();
          // Half the inserts of an absent key take the probe-free path.
          const bool absent = cache.peek(k) == nullptr;
          const Result a = absent && v % 2 == 0 ? cache.insert_absent(k, v)
                                                : cache.put(k, v);
          const Result b = ref.put(k, v);
          ASSERT_EQ(a, b) << (absent ? "insert_absent victim" : "put victim");
        } else if (kind < 930) {
          const Key k = page();
          ASSERT_EQ(cache.erase(k), ref.erase(k)) << "erase";
        } else if (kind < 999) {
          // Predicates over the key, the value, both, and the extremes.
          const std::uint64_t which = draw(5);
          const std::uint64_t m = 2 + draw(5);
          const auto pred = [&](const Key& k, const Value& v) {
            switch (which) {
              case 0: return (k >> 12) % m == 0;
              case 1: return v % m == 0;
              case 2: return ((k >> 12) + v) % m == 1;
              case 3: return true;
              default: return false;
            }
          };
          ASSERT_EQ(cache.evict_lru_matching(pred),
                    ref.evict_lru_matching(pred))
              << "evict_lru_matching";
        } else {
          cache.clear();
          ref.clear();
        }
        ASSERT_EQ(cache.size(), ref.size()) << "op " << op;
        ASSERT_EQ(cache.hits(), ref.hits()) << "op " << op;
        ASSERT_EQ(cache.misses(), ref.misses()) << "op " << op;
        ASSERT_EQ(cache.evictions(), ref.evictions()) << "op " << op;
      }
      if (capacity > 0) {
        EXPECT_GT(cache.evictions(), 0u);
      }
    }
  }
}

}  // namespace
}  // namespace stellar
