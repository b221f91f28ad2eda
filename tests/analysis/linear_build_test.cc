// Reference checks for the linear builds: rankByFrequency and
// rankBySizeClass against brute-force rankings, the NeighborIndex against a
// map-of-maps neighbor table at every thread count, and engines whose
// builds run side by side against a serial engine. The streams carry the
// shapes that stress a counting or radix sort: a hub chunk whose row holds
// more than 10k entries, self-adjacent runs, size classes spread over the
// whole uint32 range, fingerprints with the high 16 bits set, and a
// two-record stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/attack_engine.h"
#include "analysis/frequency_index.h"
#include "analysis/neighbor_index.h"
#include "analysis/stream_index.h"
#include "common/rng.h"
#include "pipeline/thread_pool.h"

namespace freqdedup::analysis {
namespace {

constexpr size_t kUnbounded = std::numeric_limits<size_t>::max();

/// Chunk size per fingerprint: spread over many size classes, with one
/// UINT32_MAX-sized chunk (the largest class, 2^28).
uint32_t sizeFor(Fp fp) {
  if (fp == 7) return std::numeric_limits<uint32_t>::max();
  return static_cast<uint32_t>(1 + mix64(fp) % 70'000);
}

/// A skewed random stream with a hub chunk (fp 1) between fresh chunks, so
/// the hub's rows hold more than 10k distinct neighbors, and runs of
/// self-adjacent repeats.
std::vector<ChunkRecord> hubStream(uint64_t seed) {
  Rng rng(seed);
  std::vector<ChunkRecord> records;
  const auto push = [&](Fp fp) { records.push_back({fp, sizeFor(fp)}); };
  Fp fresh = 1'000'000;
  for (size_t i = 0; i < 12'000; ++i) {
    push(1);
    push(fresh++);
  }
  for (size_t i = 0; i < 20'000; ++i) {
    const Fp fp = rng.bernoulli(0.7) ? rng.uniformInt(2, 300)
                                     : rng.uniformInt(2, 5'000);
    const size_t repeats = rng.bernoulli(0.1) ? 2 + rng.uniformInt(0, 4) : 1;
    for (size_t r = 0; r < repeats; ++r) push(fp);
  }
  push(7);
  push(1);
  push(7);
  return records;
}

// --- rankByFrequency ------------------------------------------------------

/// Checks rankByFrequency against a (count desc, fp asc) std::sort of the
/// stream's fingerprints, for k of none, one, all but one, all, and more.
void checkRankByFrequency(const std::vector<ChunkRecord>& records,
                          const std::string& name) {
  const auto stream = ChunkStreamIndex::build(records);
  const auto freq = FrequencyIndex::build(stream);
  std::map<Fp, uint64_t> counts;
  for (const ChunkRecord& r : records) ++counts[r.fp];
  std::vector<Fp> reference;
  for (const auto& [fp, count] : counts) reference.push_back(fp);
  std::sort(reference.begin(), reference.end(), [&](Fp a, Fp b) {
    if (counts[a] != counts[b]) return counts[a] > counts[b];
    return a < b;
  });
  const size_t unique = reference.size();
  for (const size_t k : {size_t{0}, size_t{1}, unique - 1, unique,
                         unique + 5}) {
    const std::string label = name + " k=" + std::to_string(k);
    const std::vector<ChunkId> ranked = rankByFrequency(freq, stream, k);
    ASSERT_EQ(ranked.size(), std::min(k, unique)) << label;
    for (size_t i = 0; i < ranked.size(); ++i) {
      ASSERT_EQ(stream.fpOf(ranked[i]), reference[i])
          << label << " rank=" << i;
    }
  }
}

TEST(LinearBuild, RankByFrequencyMatchesBruteForce) {
  // Skewed counts around a hub.
  checkRankByFrequency(hubStream(47), "hub");

  // Fingerprints that differ only in their high 16 bits (every other digit
  // pass is skipped), then the same among random 64-bit fingerprints with
  // the top bit set (every digit varies).
  std::vector<ChunkRecord> high;
  for (uint64_t i = 0; i < 3'000; ++i) {
    high.push_back({((i % 97) << 48) | 5, 100});
    if (i % 5 == 0) high.push_back({((i % 89) << 48) | 5, 100});
  }
  checkRankByFrequency(high, "high bits only");
  Rng rng(48);
  for (uint64_t i = 0; i < 3'000; ++i)
    high.push_back({rng.next() | (uint64_t{1} << 63), 100});
  checkRankByFrequency(high, "high bits and random");

  // All counts equal: the order is the fingerprint order.
  std::vector<ChunkRecord> equal;
  for (uint64_t i = 0; i < 5'000; ++i) {
    const Fp fp = mix64(i);
    equal.push_back({fp, 100});
    equal.push_back({fp, 100});
  }
  checkRankByFrequency(equal, "equal counts");

  // One dominant count over singletons; it exceeds 2^16, so the count key
  // takes two digit passes.
  std::vector<ChunkRecord> dominant;
  for (uint64_t i = 0; i < 70'000; ++i) {
    dominant.push_back({42, 100});
    if (i % 10 == 0) dominant.push_back({mix64(i + 1), 100});
  }
  checkRankByFrequency(dominant, "dominant");

  checkRankByFrequency({{9, 100}}, "one chunk");
}

TEST(LinearBuild, RankByFrequencyCapsHugeK) {
  // k is capped at the unique count before it picks the heap select: a k of
  // 2^60 would otherwise wrap k * 16 to 0 and select past the end.
  std::vector<ChunkRecord> records;
  for (uint64_t i = 0; i < 300; ++i) records.push_back({mix64(i % 100), 100});
  const auto stream = ChunkStreamIndex::build(records);
  const auto freq = FrequencyIndex::build(stream);
  const std::vector<ChunkId> all =
      rankByFrequency(freq, stream, stream.uniqueCount());
  ASSERT_EQ(all.size(), 100u);
  for (const size_t k : {size_t{1} << 60, kUnbounded})
    EXPECT_EQ(rankByFrequency(freq, stream, k), all) << "k=" << k;
}

// --- rankBySizeClass ------------------------------------------------------

TEST(LinearBuild, RankBySizeClassMatchesBruteForce) {
  const std::vector<ChunkRecord> records = hubStream(41);
  const auto stream = ChunkStreamIndex::build(records);
  const auto freq = FrequencyIndex::build(stream);

  // Reference: class -> fingerprints ranked by (count desc, fp asc).
  std::map<Fp, uint64_t> counts;
  for (const ChunkRecord& r : records) ++counts[r.fp];
  std::map<uint32_t, std::vector<Fp>> byClass;
  for (const auto& [fp, count] : counts)
    byClass[sizeClassOf(sizeFor(fp))].push_back(fp);
  for (auto& [sizeClass, fps] : byClass) {
    std::sort(fps.begin(), fps.end(), [&](Fp a, Fp b) {
      if (counts[a] != counts[b]) return counts[a] > counts[b];
      return a < b;
    });
  }
  ASSERT_GT(byClass.size(), 1'000u);
  ASSERT_EQ(byClass.rbegin()->first, 1u << 28);

  for (const size_t k : {size_t{1}, size_t{3}, kUnbounded}) {
    const std::string label = "perClassK=" + std::to_string(k);
    const SizeClassRanking ranking = rankBySizeClass(freq, stream, k);
    ASSERT_EQ(ranking.ids.size(), counts.size()) << label;
    ASSERT_EQ(ranking.classes.size(), byClass.size()) << label;
    uint32_t at = 0;
    auto ref = byClass.begin();
    for (const ClassRange& c : ranking.classes) {
      ASSERT_EQ(c.sizeClass, ref->first) << label;
      ASSERT_EQ(c.begin, at) << label;
      ASSERT_EQ(c.end - c.begin, ref->second.size()) << label;
      const size_t ranked = std::min(k, ref->second.size());
      for (size_t i = 0; i < ranked; ++i) {
        EXPECT_EQ(stream.fpOf(ranking.ids[c.begin + i]), ref->second[i])
            << label << " class=" << c.sizeClass << " rank=" << i;
      }
      // The unranked rest of a run holds exactly the class's other chunks.
      std::set<Fp> rest(ref->second.begin() + ranked, ref->second.end());
      std::set<Fp> got;
      for (uint32_t i = c.begin + ranked; i < c.end; ++i)
        got.insert(stream.fpOf(ranking.ids[i]));
      EXPECT_EQ(got, rest) << label << " class=" << c.sizeClass;
      at = c.end;
      ++ref;
    }
  }
}

// --- NeighborIndex --------------------------------------------------------

using Side = NeighborIndex::Side;
using RankedRow = std::vector<std::pair<Fp, uint32_t>>;

/// Reference neighbor table: fp -> neighbor fp -> count, each row then
/// ranked by (count desc, neighbor fp asc).
std::map<Fp, RankedRow> naiveTable(const std::vector<ChunkRecord>& records,
                                   Side side) {
  std::map<Fp, std::map<Fp, uint32_t>> table;
  for (size_t j = 0; j + 1 < records.size(); ++j) {
    const Fp earlier = records[j].fp;
    const Fp later = records[j + 1].fp;
    if (side == Side::kLeft) {
      ++table[later][earlier];
    } else {
      ++table[earlier][later];
    }
  }
  std::map<Fp, RankedRow> ranked;
  for (const auto& [fp, row] : table) {
    RankedRow& out = ranked[fp];
    out.assign(row.begin(), row.end());
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
  }
  return ranked;
}

void expectMatchesReference(const NeighborIndex& index,
                            const ChunkStreamIndex& stream,
                            const std::map<Fp, RankedRow>& reference,
                            const std::string& label) {
  size_t entries = 0;
  for (ChunkId id = 0; id < stream.uniqueCount(); ++id) {
    const auto it = reference.find(stream.fpOf(id));
    const auto row = index.neighbors(id);
    if (it == reference.end()) {
      EXPECT_TRUE(row.empty()) << label << " id=" << id;
      continue;
    }
    ASSERT_EQ(row.size(), it->second.size()) << label << " id=" << id;
    for (size_t i = 0; i < row.size(); ++i) {
      ASSERT_EQ(stream.fpOf(row[i].id), it->second[i].first)
          << label << " id=" << id << " i=" << i;
      ASSERT_EQ(row[i].count, it->second[i].second)
          << label << " id=" << id << " i=" << i;
    }
    entries += row.size();
  }
  EXPECT_EQ(index.entryCount(), entries) << label;
}

void checkAgainstReferences(const std::vector<ChunkRecord>& records,
                            const std::string& name) {
  const auto stream = ChunkStreamIndex::build(records);
  const NeighborIndex::Source sources[] = {{&stream, Side::kLeft},
                                           {&stream, Side::kRight}};
  const std::map<Fp, RankedRow> references[] = {
      naiveTable(records, Side::kLeft), naiveTable(records, Side::kRight)};
  for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
    // Both sides side by side on the pool.
    ThreadPool pool(threads);
    const std::vector<NeighborIndex> built =
        NeighborIndex::buildAll(sources, &pool);
    for (size_t i = 0; i < 2; ++i) {
      const std::string label = name + (i == 0 ? " left" : " right") +
                                " threads=" + std::to_string(threads);
      expectMatchesReference(built[i], stream, references[i], label);
    }
  }
}

TEST(LinearBuild, NeighborIndexWithHubMatchesReferences) {
  const std::vector<ChunkRecord> records = hubStream(43);
  const auto stream = ChunkStreamIndex::build(records);
  const auto hub = NeighborIndex::build(stream, Side::kRight);
  ASSERT_GT(hub.neighbors(*stream.idOf(1)).size(), 10'000u);
  checkAgainstReferences(records, "hub");
}

TEST(LinearBuild, NeighborIndexOnSelfAdjacentRuns) {
  std::vector<ChunkRecord> records;
  for (const Fp fp : {5, 5, 5, 6, 6, 5, 5, 9, 9, 9, 9, 6})
    records.push_back({static_cast<Fp>(fp), sizeFor(fp)});
  checkAgainstReferences(records, "runs");
}

TEST(LinearBuild, NeighborIndexOnTwoRecords) {
  checkAgainstReferences({{3, sizeFor(3)}, {4, sizeFor(4)}}, "two distinct");
  checkAgainstReferences({{3, sizeFor(3)}, {3, sizeFor(3)}}, "two equal");
}

// --- Builds side by side -------------------------------------------------

TEST(LinearBuild, BuildAllMatchesSeparateBuilds) {
  const std::vector<ChunkRecord> hub = hubStream(46);
  std::vector<ChunkRecord> runs;
  for (const Fp fp : {5, 5, 5, 6, 6, 5, 5, 9, 9, 9, 9, 6})
    runs.push_back({static_cast<Fp>(fp), sizeFor(fp)});
  const std::vector<ChunkRecord> one{{3, sizeFor(3)}};
  const std::vector<const std::vector<ChunkRecord>*> records{&hub, &runs,
                                                             &one};
  std::vector<ChunkStreamIndex> streams;
  for (const auto* r : records) streams.push_back(ChunkStreamIndex::build(*r));
  std::vector<NeighborIndex::Source> sources;
  std::vector<const ChunkStreamIndex*> frequencySources;
  for (const ChunkStreamIndex& stream : streams) {
    sources.push_back({&stream, Side::kLeft});
    sources.push_back({&stream, Side::kRight});
    frequencySources.push_back(&stream);
  }

  for (const uint32_t threads : {0u, 2u, 4u}) {
    // 0: no pool, every build inline on this thread.
    std::optional<ThreadPool> pool;
    if (threads > 0) pool.emplace(threads);
    ThreadPool* workers = pool ? &*pool : nullptr;
    const std::string label = "threads=" + std::to_string(threads);
    const std::vector<NeighborIndex> built =
        NeighborIndex::buildAll(sources, workers);
    ASSERT_EQ(built.size(), sources.size()) << label;
    for (size_t i = 0; i < sources.size(); ++i) {
      expectMatchesReference(built[i], *sources[i].stream,
                             naiveTable(*records[i / 2], sources[i].side),
                             label + " source=" + std::to_string(i));
    }

    const std::vector<FrequencyIndex> counted =
        FrequencyIndex::buildAll(frequencySources, workers);
    ASSERT_EQ(counted.size(), streams.size()) << label;
    for (size_t i = 0; i < streams.size(); ++i) {
      EXPECT_EQ(counted[i].counts, FrequencyIndex::build(streams[i]).counts)
          << label << " stream=" << i;
    }
  }
}

void expectSameResult(const AttackResult& expected, const AttackResult& got,
                      const std::string& label) {
  EXPECT_EQ(expected.processedPairs, got.processedPairs) << label;
  EXPECT_EQ(expected.inferred, got.inferred) << label;
}

TEST(LinearBuild, EngineSideBySideBuildsMatchSerialBuilds) {
  // The target is a hub stream under a one-to-one fingerprint map (sizes
  // kept, as deterministic encryption keeps a chunk's size class), attacked
  // with another hub stream as auxiliary data. An engine of several threads
  // runs all its builds on its pool at once.
  std::vector<ChunkRecord> target = hubStream(44);
  for (ChunkRecord& r : target) r.fp = mix64(r.fp ^ 0x5eed);
  const std::vector<ChunkRecord> aux = hubStream(45);

  AttackConfig plain;
  plain.u = 3;
  plain.v = 15;
  plain.w = 5'000;
  AttackConfig sized = plain;
  sized.sizeAware = true;

  AttackEngine reference = AttackEngine::fromRecords(target, aux);
  const AttackResult basic = reference.basicAttack(false);
  const AttackResult basicSized = reference.basicAttack(true);
  const AttackResult locality = reference.localityAttack(plain);
  const AttackResult localitySized = reference.localityAttack(sized);
  ASSERT_GT(locality.processedPairs, 100u);
  ASSERT_GT(localitySized.processedPairs, 100u);

  for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
    const std::string label = "threads=" + std::to_string(threads);
    AnalysisOptions options;
    options.threads = threads;
    AttackEngine engine = AttackEngine::fromRecords(target, aux, options);
    expectSameResult(basic, engine.basicAttack(false), label + " basic");
    expectSameResult(basicSized, engine.basicAttack(true),
                     label + " basic sized");
    expectSameResult(locality, engine.localityAttack(plain),
                     label + " locality");
    expectSameResult(localitySized, engine.localityAttack(sized),
                     label + " locality sized");
  }
}

}  // namespace
}  // namespace freqdedup::analysis
