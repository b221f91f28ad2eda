#include "storage/dedup_engine.h"

#include <gtest/gtest.h>

#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace freqdedup {
namespace {

DedupEngineParams tinyParams() {
  DedupEngineParams p;
  p.containerBytes = 16 * 1024;     // 4 chunks of 4 KB per container
  p.cacheBytes = 64 * kFpMetadataBytes;  // 64 cached fingerprints
  p.expectedFingerprints = 10'000;
  return p;
}

std::vector<ChunkRecord> makeRecords(std::initializer_list<Fp> fps,
                                     uint32_t size = 4096) {
  std::vector<ChunkRecord> records;
  for (const Fp fp : fps) records.push_back({fp, size});
  return records;
}

TEST(DedupEngine, AllUniqueChunksStored) {
  DedupEngine engine(tinyParams());
  engine.ingestBackup(makeRecords({1, 2, 3, 4, 5}));
  EXPECT_EQ(engine.stats().uniqueChunks, 5u);
  EXPECT_EQ(engine.stats().logicalChunks, 5u);
}

TEST(DedupEngine, DuplicateInOpenBufferDetected) {
  DedupEngine engine(tinyParams());
  engine.ingestBackup(makeRecords({1, 2, 1}));
  EXPECT_EQ(engine.stats().uniqueChunks, 2u);
  EXPECT_EQ(engine.stats().bufferHits + engine.stats().cacheHits, 1u);
}

TEST(DedupEngine, DuplicateAfterFlushGoesThroughIndex) {
  DedupEngine engine(tinyParams());
  // Fill exactly one container (4 chunks x 4 KB = 16 KB), then overflow so
  // it flushes, then repeat a chunk from the flushed container.
  engine.ingestBackup(makeRecords({1, 2, 3, 4, 5}));  // 5 forces flush
  const IngestOutcome outcome = engine.ingest({1, 4096});
  EXPECT_TRUE(outcome.duplicate);
  ASSERT_TRUE(outcome.containerId.has_value());
  EXPECT_EQ(engine.stats().indexHits, 1u);
  // S4 loaded the container's fingerprints (4 entries x 32 B).
  EXPECT_EQ(engine.stats().metadata.loadingBytes, 4u * kFpMetadataBytes);
}

TEST(DedupEngine, CacheHitAfterContainerLoad) {
  DedupEngine engine(tinyParams());
  engine.ingestBackup(makeRecords({1, 2, 3, 4, 5}));
  (void)engine.ingest({1, 4096});  // index hit, loads container fps
  const auto metadataBefore = engine.stats().metadata;
  const IngestOutcome outcome = engine.ingest({2, 4096});  // neighbor: cached
  EXPECT_TRUE(outcome.duplicate);
  EXPECT_EQ(engine.stats().metadata.totalBytes(), metadataBefore.totalBytes())
      << "a fingerprint-cache hit must not touch on-disk metadata";
}

TEST(DedupEngine, UpdateAccessCountedOnFlush) {
  DedupEngine engine(tinyParams());
  engine.ingestBackup(makeRecords({1, 2, 3, 4}));
  EXPECT_EQ(engine.stats().metadata.updateBytes, 0u);  // still buffered
  engine.flushOpenContainer();
  EXPECT_EQ(engine.stats().metadata.updateBytes, 4u * kFpMetadataBytes);
  EXPECT_EQ(engine.containerCount(), 1u);
}

TEST(DedupEngine, ContainerCapacityRespected) {
  DedupEngine engine(tinyParams());
  std::vector<ChunkRecord> records;
  for (Fp fp = 0; fp < 20; ++fp) records.push_back({fp, 4096});
  engine.ingestBackup(records);
  engine.flushOpenContainer();
  EXPECT_EQ(engine.containerCount(), 5u);  // 20 chunks / 4 per container
  for (uint32_t id = 0; id < 5; ++id)
    EXPECT_EQ(engine.containerFingerprints(id).size(), 4u);
}

TEST(DedupEngine, BloomNegativeSkipsIndex) {
  DedupEngine engine(tinyParams());
  engine.ingestBackup(makeRecords({1, 2, 3}));
  // All chunks were new; their uniqueness was provable by the Bloom filter
  // except for rare false positives.
  EXPECT_EQ(engine.stats().bloomNegatives +
                engine.stats().bloomFalsePositives,
            3u);
  EXPECT_LE(engine.stats().metadata.indexBytes,
            3u * kFpMetadataBytes);  // only false positives pay index lookups
}

TEST(DedupEngine, StatsDedupRatio) {
  DedupEngine engine(tinyParams());
  engine.ingestBackup(makeRecords({1, 2, 1, 2, 1, 2}));
  EXPECT_DOUBLE_EQ(engine.stats().dedupRatio(), 3.0);
}

TEST(DedupEngineStats, DedupRatioIsZeroWithoutTraffic) {
  DedupEngineStats stats;
  EXPECT_EQ(stats.dedupRatio(), 0.0);  // both counters zero: no division
  stats.uniqueBytes = 4096;            // degenerate snapshot, logicalBytes 0
  EXPECT_EQ(stats.dedupRatio(), 0.0);
  stats.uniqueBytes = 0;
  stats.logicalBytes = 4096;  // unique 0: also guarded
  EXPECT_EQ(stats.dedupRatio(), 0.0);
}

TEST(MetadataAccessStats, DifferenceSaturatesInsteadOfUnderflowing) {
  MetadataAccessStats earlier;
  earlier.updateBytes = 100;
  earlier.indexBytes = 50;
  earlier.loadingBytes = 10;
  MetadataAccessStats later;
  later.updateBytes = 150;
  later.indexBytes = 20;  // lower than `earlier`: swapped-snapshot hazard
  later.loadingBytes = 10;

  const MetadataAccessStats diff = later - earlier;
  EXPECT_EQ(diff.updateBytes, 50u);
  EXPECT_EQ(diff.indexBytes, 0u);  // saturates instead of wrapping to 2^64-30
  EXPECT_EQ(diff.loadingBytes, 0u);
  EXPECT_EQ(diff.totalBytes(), 50u);
}

class DedupEngineProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DedupEngineProperty, MatchesNaiveDeduplication) {
  Rng rng(GetParam());
  std::vector<ChunkRecord> records;
  for (int i = 0; i < 5000; ++i) {
    // Draw from a small fingerprint space to force many duplicates.
    records.push_back({rng.uniformInt(0, 700),
                       static_cast<uint32_t>(rng.uniformInt(1024, 8192))});
  }
  // A fingerprint must always denote the same content/size.
  std::unordered_map<Fp, uint32_t, FpHash> canonicalSize;
  for (auto& r : records) {
    const auto [it, inserted] = canonicalSize.try_emplace(r.fp, r.size);
    r.size = it->second;
  }

  DedupEngineParams p = tinyParams();
  DedupEngine engine(p);
  engine.ingestBackup(records);

  std::unordered_set<Fp, FpHash> naive;
  uint64_t naiveBytes = 0;
  for (const auto& r : records) {
    if (naive.insert(r.fp).second) naiveBytes += r.size;
  }
  EXPECT_EQ(engine.stats().uniqueChunks, naive.size());
  EXPECT_EQ(engine.stats().uniqueBytes, naiveBytes);
  EXPECT_EQ(engine.stats().logicalChunks, records.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DedupEngineProperty,
                         ::testing::Values(1, 17, 23, 77));

TEST(DedupEngine, LoadingDominatesWithSmallCache) {
  // The paper's observation (Section 7.4.2): with an insufficient cache,
  // loading access dominates total metadata traffic.
  DedupEngineParams p;
  p.containerBytes = 64 * 1024;
  p.cacheBytes = 8 * kFpMetadataBytes;  // pathologically small cache
  p.expectedFingerprints = 10'000;
  DedupEngine engine(p);
  Rng rng(5);
  std::vector<ChunkRecord> backup1;
  for (int i = 0; i < 2000; ++i) backup1.push_back({rng.next(), 4096});
  engine.ingestBackup(backup1);
  engine.flushOpenContainer();
  engine.ingestBackup(backup1);  // second backup: all duplicates
  const auto& m = engine.stats().metadata;
  EXPECT_GT(m.loadingBytes, m.updateBytes);
  EXPECT_GT(m.loadingBytes, m.indexBytes);
}

TEST(DedupEngine, SufficientCacheEliminatesRepeatLoading) {
  DedupEngineParams p;
  p.containerBytes = 64 * 1024;
  p.cacheBytes = 1'000'000 * kFpMetadataBytes;  // effectively unbounded
  p.expectedFingerprints = 10'000;
  DedupEngine engine(p);
  Rng rng(6);
  std::vector<ChunkRecord> backup;
  for (int i = 0; i < 2000; ++i) backup.push_back({rng.next(), 4096});
  engine.ingestBackup(backup);
  engine.flushOpenContainer();
  engine.ingestBackup(backup);
  const uint64_t loadingAfterSecond = engine.stats().metadata.loadingBytes;
  engine.ingestBackup(backup);  // third pass: everything cache-resident
  EXPECT_EQ(engine.stats().metadata.loadingBytes, loadingAfterSecond);
}

/// A multi-backup stream with churn: each backup mutates a slice of the
/// previous one, like the synthetic dataset generators.
std::vector<std::vector<ChunkRecord>> churnBackups(uint64_t seed,
                                                   size_t backups,
                                                   size_t chunksPerBackup) {
  Rng rng(seed);
  std::vector<std::vector<ChunkRecord>> result;
  std::vector<ChunkRecord> current;
  for (size_t i = 0; i < chunksPerBackup; ++i)
    current.push_back(
        {rng.next(), static_cast<uint32_t>(rng.uniformInt(1024, 8192))});
  result.push_back(current);
  for (size_t b = 1; b < backups; ++b) {
    for (size_t m = 0; m < chunksPerBackup / 10; ++m)
      current[rng.pickIndex(current.size())] = {
          rng.next(), static_cast<uint32_t>(rng.uniformInt(1024, 8192))};
    result.push_back(current);
  }
  return result;
}

void expectSameStats(const DedupEngineStats& a, const DedupEngineStats& b) {
  EXPECT_EQ(a.logicalChunks, b.logicalChunks);
  EXPECT_EQ(a.logicalBytes, b.logicalBytes);
  EXPECT_EQ(a.uniqueChunks, b.uniqueChunks);
  EXPECT_EQ(a.uniqueBytes, b.uniqueBytes);
  EXPECT_EQ(a.cacheHits, b.cacheHits);
  EXPECT_EQ(a.bufferHits, b.bufferHits);
  EXPECT_EQ(a.bloomNegatives, b.bloomNegatives);
  EXPECT_EQ(a.bloomFalsePositives, b.bloomFalsePositives);
  EXPECT_EQ(a.indexHits, b.indexHits);
  EXPECT_EQ(a.metadata.updateBytes, b.metadata.updateBytes);
  EXPECT_EQ(a.metadata.indexBytes, b.metadata.indexBytes);
  EXPECT_EQ(a.metadata.loadingBytes, b.metadata.loadingBytes);
}

TEST(DedupEngine, BatchedIngestMatchesPerRecordIngest) {
  const auto backups = churnBackups(3, 4, 5000);
  DedupEngineParams p = tinyParams();
  p.containerBytes = 64 * 1024;
  p.cacheBytes = 1024 * kFpMetadataBytes;
  DedupEngine batched(p);
  DedupEngine perRecord(p);
  for (const auto& backup : backups) {
    batched.ingestBackup(backup);
    for (const auto& r : backup) (void)perRecord.ingest(r);
  }
  batched.flushOpenContainer();
  perRecord.flushOpenContainer();
  // ingestBackup must account every path exactly as the per-record entry
  // point does.
  expectSameStats(batched.stats(), perRecord.stats());
  uint64_t logical = 0;
  for (const auto& backup : backups) logical += backup.size();
  EXPECT_EQ(batched.stats().logicalChunks, logical);
}

TEST(DedupEngine, RepeatedRunsAreDeterministic) {
  const auto backups = churnBackups(4, 3, 4000);
  const auto runOnce = [&] {
    DedupEngine engine(tinyParams());
    std::vector<IngestOutcome> outcomes;
    for (const auto& backup : backups)
      for (const auto& r : backup) outcomes.push_back(engine.ingest(r));
    engine.flushOpenContainer();
    return std::make_pair(outcomes, engine.stats());
  };
  const auto [outcomesA, statsA] = runOnce();
  const auto [outcomesB, statsB] = runOnce();
  ASSERT_EQ(outcomesA.size(), outcomesB.size());
  for (size_t i = 0; i < outcomesA.size(); ++i) {
    EXPECT_EQ(outcomesA[i].duplicate, outcomesB[i].duplicate) << "record " << i;
    EXPECT_EQ(outcomesA[i].containerId, outcomesB[i].containerId)
        << "record " << i;
  }
  expectSameStats(statsA, statsB);
}

TEST(DedupEngine, EmptyBackupChangesNothing) {
  DedupEngine engine(tinyParams());
  engine.ingestBackup({});
  engine.flushOpenContainer();
  const DedupEngineStats s = engine.stats();
  EXPECT_EQ(s.logicalChunks, 0u);
  EXPECT_EQ(s.uniqueChunks, 0u);
  EXPECT_EQ(s.metadata.totalBytes(), 0u);
  EXPECT_EQ(s.dedupRatio(), 0.0);
  // The first real chunk after it is unique and lands in container 0.
  EXPECT_FALSE(engine.ingest({42, 4096}).duplicate);
  engine.flushOpenContainer();
  const IngestOutcome again = engine.ingest({42, 4096});
  EXPECT_TRUE(again.duplicate);
  EXPECT_EQ(again.containerId, std::optional<uint32_t>(0));
}

TEST(DedupEngine, FlushingAnEmptyBufferSealsNoContainer) {
  DedupEngine engine(tinyParams());
  engine.ingestBackup(makeRecords({1, 2, 3}));  // fits one open container
  engine.flushOpenContainer();                  // seals container 0
  engine.flushOpenContainer();                  // nothing buffered: no-op
  EXPECT_EQ(engine.stats().metadata.updateBytes, 3u * kFpMetadataBytes);
  (void)engine.ingest({10, 4096});
  engine.flushOpenContainer();  // container 1, not 2
  EXPECT_EQ(engine.ingest({10, 4096}).containerId,
            std::optional<uint32_t>(1));
  EXPECT_EQ(engine.ingest({1, 4096}).containerId, std::optional<uint32_t>(0));
}

}  // namespace
}  // namespace freqdedup
