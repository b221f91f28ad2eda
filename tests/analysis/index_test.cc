// Unit tests for the columnar analysis indexes: interner, stream index,
// frequency counts, rankings, and the CSR neighbor index (including the
// Section 4.2 worked example that the legacy freq_tables tests pinned).
#include <gtest/gtest.h>

#include "analysis/attack_engine.h"
#include "analysis/frequency_index.h"
#include "analysis/neighbor_index.h"
#include "analysis/stream_index.h"
#include "pipeline/thread_pool.h"

namespace freqdedup::analysis {
namespace {

std::vector<ChunkRecord> seq(std::initializer_list<Fp> fps,
                             uint32_t size = 100) {
  std::vector<ChunkRecord> records;
  for (const Fp fp : fps) records.push_back({fp, size});
  return records;
}

uint64_t countOf(const NeighborIndex& index, const ChunkStreamIndex& stream,
                 Fp fp, Fp neighborFp) {
  const auto id = stream.idOf(fp);
  if (!id) return 0;
  for (const NeighborIndex::Entry& e : index.neighbors(*id)) {
    if (stream.fpOf(e.id) == neighborFp) return e.count;
  }
  return 0;
}

TEST(FpInterner, FirstAppearanceOrder) {
  FpInterner interner;
  EXPECT_EQ(interner.intern(50), 0u);
  EXPECT_EQ(interner.intern(10), 1u);
  EXPECT_EQ(interner.intern(50), 0u);
  EXPECT_EQ(interner.intern(99), 2u);
  EXPECT_EQ(interner.uniqueCount(), 3u);
  EXPECT_EQ(interner.fpOf(1), 10u);
  EXPECT_EQ(interner.idOf(99).value(), 2u);
  EXPECT_FALSE(interner.idOf(1234).has_value());
  EXPECT_EQ(interner.fps(), (std::vector<Fp>{50, 10, 99}));
}

TEST(ChunkStreamIndex, ColumnsMatchStream) {
  const auto records = seq({7, 8, 7, 9});
  const auto stream = ChunkStreamIndex::build(records);
  EXPECT_EQ(stream.recordCount(), 4u);
  EXPECT_EQ(stream.uniqueCount(), 3u);
  EXPECT_EQ(stream.ids(), (std::vector<ChunkId>{0, 1, 0, 2}));
  EXPECT_EQ(stream.fpOf(0), 7u);
  EXPECT_EQ(stream.fpOf(2), 9u);
}

TEST(ChunkStreamIndex, SizesKeepFirstOccurrence) {
  std::vector<ChunkRecord> records{{1, 64}, {2, 128}, {1, 64}};
  const auto stream = ChunkStreamIndex::build(records);
  EXPECT_EQ(stream.sizeOf(*stream.idOf(1)), 64u);
  EXPECT_EQ(stream.sizeOf(*stream.idOf(2)), 128u);
}

TEST(FrequencyIndex, CountsFrequenciesAtEveryThreadCount) {
  // Four counts of the stream side by side, one pool task each.
  const auto stream = ChunkStreamIndex::build(seq({1, 2, 1, 3, 1}));
  const std::vector<const ChunkStreamIndex*> streams(4, &stream);
  for (const uint32_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    for (const FrequencyIndex& freq : FrequencyIndex::buildAll(streams, &pool)) {
      EXPECT_EQ(freq.counts[*stream.idOf(1)], 3u);
      EXPECT_EQ(freq.counts[*stream.idOf(2)], 1u);
      EXPECT_EQ(freq.counts[*stream.idOf(3)], 1u);
    }
  }
}

TEST(FrequencyIndex, LargeStreamThreadInvariant) {
  std::vector<ChunkRecord> records;
  for (uint32_t i = 0; i < 50'000; ++i)
    records.push_back({(i * 7919) % 997, 100});
  const auto stream = ChunkStreamIndex::build(records);
  const auto serial = FrequencyIndex::build(stream);
  ThreadPool pool(8);
  const std::vector<const ChunkStreamIndex*> streams(8, &stream);
  for (const FrequencyIndex& parallel :
       FrequencyIndex::buildAll(streams, &pool)) {
    EXPECT_EQ(serial.counts, parallel.counts);
  }
}

TEST(Ranking, ByCountDescThenFpAsc) {
  // Counts: 20 -> 3, 10 -> 2, 30 -> 2 (tie broken by fingerprint).
  const auto stream =
      ChunkStreamIndex::build(seq({20, 30, 10, 20, 30, 10, 20}));
  const auto freq = FrequencyIndex::build(stream);
  const auto top = rankByFrequency(freq, stream, 10);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(stream.fpOf(top[0]), 20u);
  EXPECT_EQ(stream.fpOf(top[1]), 10u);
  EXPECT_EQ(stream.fpOf(top[2]), 30u);
  EXPECT_EQ(rankByFrequency(freq, stream, 2).size(), 2u);
}

TEST(Ranking, SizeClassesAscendingWithRankedRuns) {
  std::vector<ChunkRecord> records{{1, 16}, {2, 32}, {3, 16},
                                   {1, 16}, {4, 32}, {4, 32}};
  const auto stream = ChunkStreamIndex::build(records);
  const auto freq = FrequencyIndex::build(stream);
  const auto ranking = rankBySizeClass(freq, stream);
  ASSERT_EQ(ranking.classes.size(), 2u);
  EXPECT_EQ(ranking.classes[0].sizeClass, 1u);
  EXPECT_EQ(ranking.classes[1].sizeClass, 2u);
  // Class 1 (16 bytes): fp 1 (count 2) then fp 3 (count 1).
  EXPECT_EQ(stream.fpOf(ranking.ids[ranking.classes[0].begin]), 1u);
  EXPECT_EQ(stream.fpOf(ranking.ids[ranking.classes[0].begin + 1]), 3u);
  // Class 2 (32 bytes): fp 4 (count 2) then fp 2 (count 1).
  EXPECT_EQ(stream.fpOf(ranking.ids[ranking.classes[1].begin]), 4u);
  EXPECT_EQ(stream.fpOf(ranking.ids[ranking.classes[1].begin + 1]), 2u);
}

TEST(NeighborIndex, PaperExampleTables) {
  // The plaintext sequence from the Figure 3 worked example:
  // M = <M1, M2, M1, M2, M3, M4, M2, M3, M4>.
  // L_M2 = {M1:2, M4:1}; R_M2 = {M1:1, M3:2} (Section 4.2's example).
  const auto stream =
      ChunkStreamIndex::build(seq({1, 2, 1, 2, 3, 4, 2, 3, 4}));
  const NeighborIndex::Source sources[] = {
      {&stream, NeighborIndex::Side::kLeft},
      {&stream, NeighborIndex::Side::kRight}};
  for (const uint32_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const auto built = NeighborIndex::buildAll(sources, &pool);
    const NeighborIndex& left = built[0];
    const NeighborIndex& right = built[1];
    EXPECT_EQ(countOf(left, stream, 2, 1), 2u);
    EXPECT_EQ(countOf(left, stream, 2, 4), 1u);
    EXPECT_EQ(left.neighbors(*stream.idOf(2)).size(), 2u);
    EXPECT_EQ(countOf(right, stream, 2, 1), 1u);
    EXPECT_EQ(countOf(right, stream, 2, 3), 2u);
    EXPECT_EQ(right.neighbors(*stream.idOf(2)).size(), 2u);
  }
}

TEST(NeighborIndex, BoundaryChunksHaveNoOuterNeighbor) {
  const auto stream = ChunkStreamIndex::build(seq({7, 8}));
  const auto left =
      NeighborIndex::build(stream, NeighborIndex::Side::kLeft);
  const auto right =
      NeighborIndex::build(stream, NeighborIndex::Side::kRight);
  EXPECT_TRUE(left.neighbors(*stream.idOf(7)).empty());
  EXPECT_EQ(countOf(left, stream, 8, 7), 1u);
  EXPECT_TRUE(right.neighbors(*stream.idOf(8)).empty());
  EXPECT_EQ(countOf(right, stream, 7, 8), 1u);
}

TEST(NeighborIndex, SelfAdjacency) {
  const auto stream = ChunkStreamIndex::build(seq({5, 5, 5}));
  const auto left =
      NeighborIndex::build(stream, NeighborIndex::Side::kLeft);
  EXPECT_EQ(countOf(left, stream, 5, 5), 2u);
}

TEST(NeighborIndex, ListsRankedByCountThenFp) {
  // Neighbors of 9: fp 4 twice, fps 2 and 8 once each -> 4, then 2, then 8.
  const auto stream =
      ChunkStreamIndex::build(seq({4, 9, 4, 9, 2, 9, 8, 9}));
  const auto left =
      NeighborIndex::build(stream, NeighborIndex::Side::kLeft);
  const auto list = left.neighbors(*stream.idOf(9));
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(stream.fpOf(list[0].id), 4u);
  EXPECT_EQ(list[0].count, 2u);
  EXPECT_EQ(stream.fpOf(list[1].id), 2u);
  EXPECT_EQ(stream.fpOf(list[2].id), 8u);
}

TEST(NeighborIndex, ThreadCountInvariant) {
  std::vector<ChunkRecord> records;
  for (uint32_t i = 0; i < 20'000; ++i)
    records.push_back({(i * 31) % 512, 100});
  const auto stream = ChunkStreamIndex::build(records);
  // Eight builds side by side on eight workers, four of each side.
  std::vector<NeighborIndex::Source> sources;
  for (int copy = 0; copy < 4; ++copy) {
    sources.push_back({&stream, NeighborIndex::Side::kLeft});
    sources.push_back({&stream, NeighborIndex::Side::kRight});
  }
  const NeighborIndex serials[] = {
      NeighborIndex::build(stream, NeighborIndex::Side::kLeft),
      NeighborIndex::build(stream, NeighborIndex::Side::kRight)};
  ThreadPool pool(8);
  const auto built = NeighborIndex::buildAll(sources, &pool);
  for (size_t b = 0; b < built.size(); ++b) {
    const NeighborIndex& serial = serials[b % 2];
    const NeighborIndex& parallel = built[b];
    ASSERT_EQ(serial.entryCount(), parallel.entryCount());
    for (ChunkId id = 0; id < stream.uniqueCount(); ++id) {
      const auto a = serial.neighbors(id);
      const auto b = parallel.neighbors(id);
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].count, b[i].count);
      }
    }
  }
}

TEST(NeighborIndex, EmptyAndSingleStreams) {
  ThreadPool pool(4);
  const auto empty = ChunkStreamIndex::build({});
  const auto single = ChunkStreamIndex::build(seq({9}));
  const NeighborIndex::Source sources[] = {
      {&empty, NeighborIndex::Side::kLeft},
      {&single, NeighborIndex::Side::kLeft}};
  const auto built = NeighborIndex::buildAll(sources, &pool);
  EXPECT_EQ(built[0].entryCount(), 0u);
  const NeighborIndex& left = built[1];
  EXPECT_TRUE(left.neighbors(0).empty());
}

TEST(AttackEngine, ZeroThreadsMatchesOneThread) {
  // threads = 0 builds on the calling thread, as threads = 1 does, and a
  // build with no pool needs no workers at all.
  const auto records = seq({1, 2, 1, 3, 1, 2, 4, 2, 1, 3});
  const auto stream = ChunkStreamIndex::build(records);
  const NeighborIndex index =
      NeighborIndex::build(stream, NeighborIndex::Side::kRight);
  // 1 -> {2, 3}, 2 -> {1, 4}, 3 -> {1}, 4 -> {2}
  EXPECT_EQ(index.entryCount(), 6u);
  EXPECT_EQ(countOf(index, stream, 1, 2), 2u);
  EXPECT_EQ(countOf(index, stream, 2, 4), 1u);

  AttackConfig config;
  config.u = 2;
  config.v = 3;
  for (const bool sizeAware : {false, true}) {
    config.sizeAware = sizeAware;
    AttackEngine one = AttackEngine::fromRecords(records, records, {1});
    AttackEngine zero = AttackEngine::fromRecords(records, records, {0});
    EXPECT_EQ(one.basicAttack(sizeAware).inferred,
              zero.basicAttack(sizeAware).inferred);
    const AttackResult expected = one.localityAttack(config);
    const AttackResult got = zero.localityAttack(config);
    EXPECT_EQ(expected.inferred, got.inferred);
    EXPECT_EQ(expected.processedPairs, got.processedPairs);
    EXPECT_GT(got.processedPairs, 0u);
  }
}

}  // namespace
}  // namespace freqdedup::analysis
