// BlockCache: byte-budget semantics (0 = disabled, finite, unbounded),
// actual-payload-byte accounting, admission rejects for objects larger than
// the whole budget, LRU eviction order, GC invalidation, and the
// admission-time payload CRC table that lets every cache hit be
// integrity-re-checked. The budget regression test pins peak cached bytes
// at or under the budget across a mixed-size admission churn.
#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/rng.h"
#include "storage/backup_store.h"
#include "storage/block_cache.h"

namespace freqdedup {
namespace {

std::shared_ptr<const Container> makeContainer(uint32_t id, int chunks,
                                               size_t chunkBytes = 64) {
  ContainerBuilder builder(64 << 20);
  for (int i = 0; i < chunks; ++i) {
    ByteVec bytes(chunkBytes + static_cast<size_t>(i),
                  static_cast<uint8_t>(id * 31 + i));
    builder.add(/*fp=*/id * 1000 + static_cast<uint32_t>(i),
                static_cast<uint32_t>(bytes.size()), bytes);
  }
  return std::make_shared<const Container>(builder.seal(id));
}

uint64_t chargeOf(uint32_t id, int chunks, size_t chunkBytes = 64) {
  return BlockCache::entryCharge(
      BlockCache::makeEntry(makeContainer(id, chunks, chunkBytes)));
}

TEST(BlockCache, DisabledCacheRetainsNothingButStillServes) {
  BlockCache cache(0);
  const auto entry = cache.admit(1, makeContainer(1, 3));
  ASSERT_NE(entry.container, nullptr);
  EXPECT_EQ(entry.payloadCrcs->size(), 3u);
  EXPECT_FALSE(cache.get(1).has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.cachedBytes(), 0u);
  EXPECT_EQ(cache.stats().admissions, 0u);
  EXPECT_FALSE(cache.enabled());
}

TEST(BlockCache, ChargeAccountsPayloadBytesPlusPerChunkOverhead) {
  const auto container = makeContainer(5, 4);
  const auto entry = BlockCache::makeEntry(container);
  EXPECT_EQ(BlockCache::entryCharge(entry),
            container->data.size() + 4 * kBlockCachePerChunkOverhead);

  BlockCache cache(1 << 20);
  cache.admit(5, container);
  EXPECT_EQ(cache.cachedBytes(), BlockCache::entryCharge(entry));
}

TEST(BlockCache, AdmissionRejectsObjectLargerThanWholeBudget) {
  const uint64_t smallCharge = chargeOf(1, 1);
  BlockCache cache(smallCharge + 8);
  cache.admit(1, makeContainer(1, 1));
  EXPECT_TRUE(cache.get(1).has_value());

  // A container whose charge alone exceeds the budget is served but never
  // retained — and, critically, does not evict the resident working set.
  const auto big = cache.admit(2, makeContainer(2, 64, 4096));
  ASSERT_NE(big.container, nullptr);
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_TRUE(cache.get(1).has_value()) << "oversized admit must not evict";
  EXPECT_EQ(cache.stats().admissionRejects, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(BlockCache, BudgetForOneEvictsLeastRecentlyUsed) {
  // Budget sized to hold either container but not both.
  BlockCache cache(chargeOf(1, 2) + chargeOf(2, 2) - 1);
  cache.admit(1, makeContainer(1, 2));
  EXPECT_TRUE(cache.get(1).has_value());
  cache.admit(2, makeContainer(2, 2));
  EXPECT_FALSE(cache.get(1).has_value()) << "admitting 2 must evict 1";
  EXPECT_TRUE(cache.get(2).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(BlockCache, LruAccessOrderDecidesTheVictim) {
  BlockCache cache(3 * chargeOf(0, 1));
  cache.admit(1, makeContainer(1, 1));
  cache.admit(2, makeContainer(2, 1));
  cache.admit(3, makeContainer(3, 1));
  EXPECT_TRUE(cache.get(1).has_value());  // 2 is now the LRU entry
  cache.admit(4, makeContainer(4, 1));
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_TRUE(cache.get(3).has_value());
  EXPECT_TRUE(cache.get(4).has_value());
}

TEST(BlockCache, UnboundedNeverEvicts) {
  BlockCache cache(kUnboundedBlockCacheBytes);
  for (uint32_t id = 0; id < 200; ++id) cache.admit(id, makeContainer(id, 1));
  EXPECT_EQ(cache.size(), 200u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  for (uint32_t id = 0; id < 200; ++id) EXPECT_TRUE(cache.get(id).has_value());
}

TEST(BlockCache, InvalidateDropsEntryAndReleasesItsBytes) {
  BlockCache cache(1 << 20);
  cache.admit(7, makeContainer(7, 2));
  const auto held = cache.get(7);  // an in-flight reader's copy
  ASSERT_TRUE(held.has_value());
  cache.invalidate(7);
  EXPECT_FALSE(cache.get(7).has_value());
  EXPECT_EQ(cache.cachedBytes(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  // The evicted shared state stays intact for the reader that holds it.
  EXPECT_EQ(held->container->id, 7u);
  EXPECT_EQ(held->payloadCrcs->size(), 2u);
}

TEST(BlockCache, PayloadCrcsMatchEveryChunkAndDetectCorruption) {
  BlockCache cache(1 << 20);
  const auto entry = cache.admit(3, makeContainer(3, 4));
  const Container& c = *entry.container;
  ASSERT_EQ(entry.payloadCrcs->size(), c.entries.size());
  for (size_t i = 0; i < c.entries.size(); ++i) {
    const ByteView payload =
        ByteView(c.data).subspan(c.entries[i].dataOffset, c.entries[i].size);
    EXPECT_EQ(crc32c(payload), (*entry.payloadCrcs)[i]);
  }
  // A flipped bit in a (hypothetically corrupted) copy no longer matches —
  // this is the re-check ContainerBackupStore applies on every serve.
  ByteVec corrupted(c.data.begin(), c.data.end());
  corrupted[c.entries[1].dataOffset] ^= 0x80;
  const ByteView badPayload = ByteView(corrupted).subspan(
      c.entries[1].dataOffset, c.entries[1].size);
  EXPECT_NE(crc32c(badPayload), (*entry.payloadCrcs)[1]);
}

TEST(BlockCache, CountsHitsMissesAndLookups) {
  BlockCache cache(1 << 20);
  EXPECT_FALSE(cache.get(1).has_value());
  cache.admit(1, makeContainer(1, 1));
  EXPECT_TRUE(cache.get(1).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.admissions, 1u);
  EXPECT_EQ(stats.lookups, stats.hits + stats.misses);
}

// The budget is a hard ceiling: under a randomized churn of admissions with
// wildly mixed container sizes (some oversized, some tiny), the cache's
// peak charged bytes never exceed the budget, and re-admitting an already
// resident id never double-charges.
TEST(BlockCache, PeakCachedBytesNeverExceedBudgetUnderMixedSizes) {
  const uint64_t budget = 256 * 1024;
  BlockCache cache(budget);
  Rng rng(99);
  for (uint32_t round = 0; round < 300; ++round) {
    const uint32_t id = rng.next() % 40;
    const int chunks = 1 + static_cast<int>(rng.next() % 8);
    const size_t chunkBytes = 16 << (rng.next() % 10);  // 16 B .. 8 KiB
    const auto entry = cache.admit(id, makeContainer(id, chunks, chunkBytes));
    ASSERT_NE(entry.container, nullptr);
    ASSERT_LE(cache.cachedBytes(), budget)
        << "budget exceeded after admitting id " << id;
    if (rng.next() % 4 == 0) cache.get(rng.next() % 40);
    if (rng.next() % 16 == 0) cache.invalidate(rng.next() % 40);
  }
  const auto stats = cache.stats();
  EXPECT_LE(stats.peakCachedBytes, budget)
      << "peak charged bytes breached the budget";
  EXPECT_EQ(stats.lookups, stats.hits + stats.misses)
      << "lookup accounting must balance";
  cache.clear();
  EXPECT_EQ(cache.cachedBytes(), 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(BlockCache, ProbeLookupPromotesWithoutCounting) {
  BlockCache cache(2 * chargeOf(0, 1));
  cache.admit(1, makeContainer(1, 1));
  cache.admit(2, makeContainer(2, 1));
  // An internal probe still refreshes recency: 2 becomes the LRU entry.
  EXPECT_TRUE(cache.get(1, /*recordStats=*/false).has_value());
  cache.admit(3, makeContainer(3, 1));
  EXPECT_FALSE(cache.get(2, /*recordStats=*/false).has_value());
  EXPECT_TRUE(cache.get(1, /*recordStats=*/false).has_value());
  EXPECT_TRUE(cache.get(3, /*recordStats=*/false).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.lookups, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(BlockCache, ReadmittingAResidentIdKeepsTheResidentCopy) {
  BlockCache cache(1 << 20);
  const auto first = cache.admit(4, makeContainer(4, 2));
  const uint64_t charge = cache.cachedBytes();
  // A racing loader's copy is returned to its caller but not retained.
  const auto second = cache.admit(4, makeContainer(4, 2));
  ASSERT_NE(second.container, nullptr);
  EXPECT_NE(second.container, first.container);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.cachedBytes(), charge) << "re-admission double-charged";
  const auto resident = cache.get(4);
  ASSERT_TRUE(resident.has_value());
  EXPECT_EQ(resident->container, first.container);
  EXPECT_EQ(cache.stats().admissions, 1u);
}

TEST(BlockCache, InvalidateOfAbsentIdIsANoOp) {
  BlockCache cache(1 << 20);
  cache.admit(1, makeContainer(1, 2));
  const uint64_t before = cache.cachedBytes();
  cache.invalidate(99);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.cachedBytes(), before);
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_EQ(cache.stats().invalidations, 0u);
}

TEST(BlockCache, ClearEmptiesTheCacheButKeepsThePeak) {
  BlockCache cache(1 << 20);
  cache.admit(1, makeContainer(1, 2));
  cache.admit(2, makeContainer(2, 3));
  const uint64_t peak = cache.cachedBytes();
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.cachedBytes(), 0u);
  EXPECT_FALSE(cache.get(1).has_value());
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_EQ(cache.stats().peakCachedBytes, peak);
  // The recency list was cleared with the map: admission and eviction
  // work as on a fresh cache.
  cache.admit(3, makeContainer(3, 1));
  EXPECT_TRUE(cache.get(3).has_value());
  EXPECT_EQ(cache.cachedBytes(), chargeOf(3, 1));
}

}  // namespace
}  // namespace freqdedup
