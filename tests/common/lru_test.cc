#include "common/lru_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/fingerprint.h"
#include "common/rng.h"

namespace freqdedup {
namespace {

TEST(Lru, BasicPutGet) {
  LruCache<int, int> cache(4);
  cache.put(1, 10);
  cache.put(2, 20);
  EXPECT_EQ(cache.get(1), 10);
  EXPECT_EQ(cache.get(2), 20);
  EXPECT_EQ(cache.get(3), std::nullopt);
}

TEST(Lru, EvictsLeastRecentlyUsed) {
  LruCache<int, int> cache(2);
  cache.put(1, 10);
  cache.put(2, 20);
  cache.put(3, 30);  // evicts 1
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
}

TEST(Lru, GetPromotes) {
  LruCache<int, int> cache(2);
  cache.put(1, 10);
  cache.put(2, 20);
  EXPECT_TRUE(cache.get(1).has_value());  // 1 becomes MRU
  cache.put(3, 30);                       // evicts 2
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
}

TEST(Lru, TouchPromotes) {
  LruCache<int, int> cache(2);
  cache.put(1, 10);
  cache.put(2, 20);
  EXPECT_TRUE(cache.touch(1));
  cache.put(3, 30);
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
}

TEST(Lru, ContainsDoesNotPromote) {
  LruCache<int, int> cache(2);
  cache.put(1, 10);
  cache.put(2, 20);
  EXPECT_TRUE(cache.contains(1));  // non-promoting
  cache.put(3, 30);                // still evicts 1
  EXPECT_FALSE(cache.contains(1));
}

TEST(Lru, PutExistingUpdatesValueWithoutEviction) {
  LruCache<int, int> cache(2);
  cache.put(1, 10);
  cache.put(2, 20);
  EXPECT_FALSE(cache.put(1, 11));
  EXPECT_EQ(cache.get(1), 11);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(Lru, PutReturnsTrueOnEviction) {
  LruCache<int, int> cache(1);
  EXPECT_FALSE(cache.put(1, 10));
  EXPECT_TRUE(cache.put(2, 20));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(Lru, CapacityOne) {
  LruCache<int, int> cache(1);
  cache.put(1, 10);
  cache.put(2, 20);
  EXPECT_FALSE(cache.contains(1));
  EXPECT_EQ(cache.get(2), 20);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(Lru, Erase) {
  LruCache<int, int> cache(4);
  cache.put(1, 10);
  EXPECT_TRUE(cache.erase(1));
  EXPECT_FALSE(cache.erase(1));
  EXPECT_FALSE(cache.contains(1));
}

TEST(Lru, Clear) {
  LruCache<int, int> cache(4);
  cache.put(1, 10);
  cache.put(2, 20);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.contains(1));
}

TEST(Lru, ZeroCapacityRejected) {
  EXPECT_THROW((LruCache<int, int>(0)), std::logic_error);
}

TEST(Lru, WorksWithFingerprintKeys) {
  LruCache<Fp, uint32_t, FpHash> cache(3);
  cache.put(0xdeadULL, 1);
  cache.put(0xbeefULL, 2);
  EXPECT_EQ(cache.get(0xdeadULL), 1u);
}

TEST(Lru, HeavyChurnRespectsCapacity) {
  LruCache<int, int> cache(16);
  for (int i = 0; i < 1000; ++i) cache.put(i, i);
  EXPECT_EQ(cache.size(), 16u);
  for (int i = 1000 - 16; i < 1000; ++i) EXPECT_TRUE(cache.contains(i));
}

// A full cache reuses the victim's nodes for the new entry; random puts,
// gets and erases over a small key space must still match a plain
// most-recent-first list, value for value.
TEST(Lru, MatchesAReferenceModelUnderRandomOps) {
  constexpr size_t kCapacity = 8;
  LruCache<int, int> cache(kCapacity);
  std::vector<std::pair<int, int>> model;  // front = most recently used
  uint64_t evictions = 0;
  Rng rng(17);
  for (int step = 0; step < 20000; ++step) {
    const int key = static_cast<int>(rng.uniformInt(0, 23));
    const auto it = std::find_if(model.begin(), model.end(),
                                 [key](const auto& e) { return e.first == key; });
    switch (rng.uniformInt(0, 2)) {
      case 0: {  // put
        bool evicted = false;
        if (it != model.end()) {
          model.erase(it);
        } else if (model.size() == kCapacity) {
          model.pop_back();
          evicted = true;
          ++evictions;
        }
        model.insert(model.begin(), {key, step});
        ASSERT_EQ(cache.put(key, step), evicted) << "step " << step;
        break;
      }
      case 1: {  // get
        const std::optional<int> got = cache.get(key);
        if (it == model.end()) {
          ASSERT_EQ(got, std::nullopt) << "step " << step;
        } else {
          ASSERT_EQ(got, it->second) << "step " << step;
          const auto entry = *it;
          model.erase(it);
          model.insert(model.begin(), entry);
        }
        break;
      }
      default:  // erase
        ASSERT_EQ(cache.erase(key), it != model.end()) << "step " << step;
        if (it != model.end()) model.erase(it);
    }
    ASSERT_EQ(cache.size(), model.size());
  }
  EXPECT_EQ(cache.evictions(), evictions);
  for (const auto& [key, value] : model) EXPECT_EQ(cache.get(key), value);
}

}  // namespace
}  // namespace freqdedup
