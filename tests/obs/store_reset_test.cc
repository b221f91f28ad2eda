// Reset-on-reopen contract: a store instance owns its metrics registry, so
// a fresh open starts every operational counter from zero while the
// functional gauges (unique chunks, stored bytes) are rebuilt from the
// recovered index.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "obs/metrics.h"
#include "storage/file_backup_store.h"

namespace freqdedup {
namespace {

ByteVec chunkOf(uint8_t seed, size_t bytes = 4096) {
  ByteVec v(bytes);
  for (size_t i = 0; i < bytes; ++i)
    v[i] = static_cast<uint8_t>(seed + i * 31);
  return v;
}

TEST(StoreMetricsReset, ReopenStartsCountersFromZero) {
  const auto dir =
      std::filesystem::temp_directory_path() / "fdd_obs_reset_store";
  std::filesystem::remove_all(dir);

  uint64_t uniqueBefore = 0;
  uint64_t storedBefore = 0;
  {
    FileBackupStore store(dir.string());
    for (uint8_t i = 0; i < 10; ++i) {
      const ByteVec c = chunkOf(i);
      store.putChunk(fpOfContent(c), c);
    }
    store.flush();
    for (uint8_t i = 0; i < 10; ++i)
      store.getChunk(fpOfContent(chunkOf(i)));

    const obs::MetricsSnapshot snap = store.metricsSnapshot();
    EXPECT_EQ(snap.counter("store.put_chunks"), 10u);
    EXPECT_EQ(snap.counter("store.chunk_reads"), 10u);
    EXPECT_GT(snap.counter("store.container_writes"), 0u);
    uniqueBefore = static_cast<uint64_t>(snap.gauge("store.unique_chunks"));
    storedBefore = static_cast<uint64_t>(snap.gauge("store.stored_bytes"));
  }

  {
    FileBackupStore reopened(dir.string());
    const obs::MetricsSnapshot snap = reopened.metricsSnapshot();
    // Operational counters are per-instance and must read zero on a fresh
    // open — the cache satellite's reset semantics ride on the same rule.
    EXPECT_EQ(snap.counter("store.put_chunks"), 0u);
    EXPECT_EQ(snap.counter("store.chunk_reads"), 0u);
    EXPECT_EQ(snap.counter("store.batch_reads"), 0u);
    EXPECT_EQ(snap.counter("store.container_loads"), 0u);
    EXPECT_EQ(snap.counter("store.container_writes"), 0u);
    EXPECT_EQ(snap.counter("store.read_cache_hits"), 0u);
    EXPECT_EQ(snap.counter("cache.hits"), 0u);
    EXPECT_EQ(snap.counter("cache.misses"), 0u);
    EXPECT_EQ(snap.counter("cache.admissions"), 0u);
    EXPECT_EQ(snap.counter("cache.evictions"), 0u);
    EXPECT_EQ(snap.histogram("store.container_load_us").count, 0u);
    // Functional state survives: recovery rebuilds the occupancy gauges.
    EXPECT_EQ(static_cast<uint64_t>(snap.gauge("store.unique_chunks")),
              uniqueBefore);
    EXPECT_EQ(static_cast<uint64_t>(snap.gauge("store.stored_bytes")),
              storedBefore);
    EXPECT_EQ(uniqueBefore, 10u);
    EXPECT_GT(storedBefore, 0u);

    // Reads on the reopened instance count from zero, not from the first
    // instance's history.
    reopened.getChunk(fpOfContent(chunkOf(0)));
    EXPECT_EQ(reopened.metricsSnapshot().counter("store.chunk_reads"), 1u);
    EXPECT_EQ(reopened.metricsSnapshot().counter("store.container_loads"),
              1u);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace freqdedup
