// Thread invariance of the index builds and the attacks: every index and
// every attack result must be bit-identical across thread counts, on
// randomized traces and an FSL-mini dataset. Builds take a ThreadPool of N
// workers, and an engine of N threads builds on N workers, on any machine.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/attack_engine.h"
#include "analysis/frequency_index.h"
#include "analysis/neighbor_index.h"
#include "analysis/stream_index.h"
#include "common/rng.h"
#include "core/attack_eval.h"
#include "datagen/fsl_gen.h"
#include "pipeline/thread_pool.h"

namespace freqdedup::analysis {
namespace {

constexpr uint32_t kThreadCounts[] = {1, 2, 8};

uint32_t sizeFor(Fp fp) {
  return static_cast<uint32_t>(100 + 16 * (fp % 7));
}

/// Random stream with motif runs, skewed frequencies, and fresh singletons
/// (same structure the engine-equivalence suite uses).
std::vector<ChunkRecord> randomStream(uint64_t seed, size_t length) {
  Rng rng(seed);
  std::vector<ChunkRecord> records;
  records.reserve(length);
  Fp freshFp = 1'000'000 + seed * 10'000'000;
  while (records.size() < length) {
    if (rng.bernoulli(0.6)) {
      const Fp base = rng.uniformInt(0, 40) * 10;
      const size_t run = 1 + rng.uniformInt(0, 6);
      for (size_t i = 0; i < run && records.size() < length; ++i) {
        const Fp fp = base + i;
        records.push_back({fp, sizeFor(fp)});
      }
    } else {
      const Fp fp = rng.bernoulli(0.5) ? rng.uniformInt(500, 700) : freshFp++;
      records.push_back({fp, sizeFor(fp)});
    }
  }
  return records;
}

std::vector<ChunkRecord> perturb(std::vector<ChunkRecord> records,
                                 uint64_t seed) {
  Rng rng(seed);
  for (auto& r : records) {
    if (rng.bernoulli(0.05)) {
      const Fp fp = 2'000'000 + rng.uniformInt(0, 100'000);
      r = {fp, sizeFor(fp)};
    }
  }
  return records;
}

void expectSameNeighbors(const NeighborIndex& expected,
                         const NeighborIndex& got, size_t unique,
                         const std::string& label) {
  ASSERT_EQ(expected.entryCount(), got.entryCount()) << label;
  for (ChunkId id = 0; id < unique; ++id) {
    const auto a = expected.neighbors(id);
    const auto b = got.neighbors(id);
    ASSERT_EQ(a.size(), b.size()) << label << " id=" << id;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << label << " id=" << id << " i=" << i;
      EXPECT_EQ(a[i].count, b[i].count)
          << label << " id=" << id << " i=" << i;
    }
  }
}

TEST(BudgetEquivalence, NeighborIndexAcrossThreads) {
  using Side = NeighborIndex::Side;
  for (const uint64_t seed : {11u, 12u}) {
    const auto records = randomStream(seed, 3000);
    const auto stream = ChunkStreamIndex::build(records);
    const NeighborIndex baselines[] = {
        NeighborIndex::build(stream, Side::kLeft),
        NeighborIndex::build(stream, Side::kRight)};
    for (const uint32_t threads : kThreadCounts) {
      // One left and one right build per worker, side by side.
      std::vector<NeighborIndex::Source> sources;
      for (uint32_t w = 0; w < threads; ++w) {
        sources.push_back({&stream, Side::kLeft});
        sources.push_back({&stream, Side::kRight});
      }
      ThreadPool pool(threads);
      const std::vector<NeighborIndex> built =
          NeighborIndex::buildAll(sources, &pool);
      for (size_t i = 0; i < built.size(); ++i) {
        const std::string label =
            "seed=" + std::to_string(seed) +
            " threads=" + std::to_string(threads) + " build=" +
            std::to_string(i) + (i % 2 == 0 ? " left" : " right");
        expectSameNeighbors(baselines[i % 2], built[i], stream.uniqueCount(),
                            label);
      }
    }
  }
}

TEST(BudgetEquivalence, FrequencyIndexAcrossPlans) {
  for (const uint64_t seed : {21u, 22u}) {
    const auto records = randomStream(seed, 4000);
    const auto stream = ChunkStreamIndex::build(records);
    const FrequencyIndex baseline = FrequencyIndex::build(stream);
    for (const uint32_t threads : kThreadCounts) {
      // Two counts per worker, side by side.
      const std::vector<const ChunkStreamIndex*> streams(2 * threads,
                                                         &stream);
      ThreadPool pool(threads);
      for (const FrequencyIndex& got :
           FrequencyIndex::buildAll(streams, &pool)) {
        EXPECT_EQ(baseline.counts, got.counts)
            << "seed=" << seed << " threads=" << threads;
      }
    }
  }
}

void expectIdentical(const AttackResult& expected, const AttackResult& got,
                     const std::string& label) {
  EXPECT_EQ(expected.processedPairs, got.processedPairs) << label;
  ASSERT_EQ(expected.inferred.size(), got.inferred.size()) << label;
  for (const auto& [cipherFp, plainFp] : expected.inferred) {
    const auto it = got.inferred.find(cipherFp);
    ASSERT_NE(it, got.inferred.end()) << label;
    EXPECT_EQ(it->second, plainFp) << label;
  }
}

void checkAttacksAcrossThreads(const EncryptedTrace& target,
                               const std::vector<ChunkRecord>& aux,
                               const std::string& label) {
  for (const bool sizeAware : {false, true}) {
    AttackConfig config;
    config.u = 3;
    config.v = 5;
    config.w = 500;
    config.sizeAware = sizeAware;

    AnalysisOptions serialOpts;
    AttackEngine serialEngine =
        AttackEngine::fromRecords(target.records, aux, serialOpts);
    const AttackResult baselineBasic = serialEngine.basicAttack(sizeAware);
    const AttackResult baselineLocality =
        serialEngine.localityAttack(config);

    for (const uint32_t threads : kThreadCounts) {
      const std::string tag = label + (sizeAware ? " sized" : " plain") +
                              " threads=" + std::to_string(threads);
      AnalysisOptions options;
      options.threads = threads;
      AttackEngine engine =
          AttackEngine::fromRecords(target.records, aux, options);
      expectIdentical(baselineBasic, engine.basicAttack(sizeAware),
                      tag + " basic");
      expectIdentical(baselineLocality, engine.localityAttack(config),
                      tag + " locality");
    }
  }
}

TEST(BudgetEquivalence, AttacksOnRandomizedTraces) {
  const std::vector<ChunkRecord> plainTarget = randomStream(31, 2500);
  const std::vector<ChunkRecord> aux = perturb(plainTarget, 131);
  const EncryptedTrace target = mleEncryptTrace(plainTarget);
  checkAttacksAcrossThreads(target, aux, "randomized");
}

TEST(BudgetEquivalence, AttacksOnFslMiniDataset) {
  FslGenParams params;
  params.users = 2;
  params.filesPerUser = 20;
  params.backups = 2;
  params.sharedTemplateFiles = 10;
  const Dataset dataset = generateFslDataset(params);
  const EncryptedTrace target =
      mleEncryptTrace(dataset.backups[1].records, kFslFpBits);
  checkAttacksAcrossThreads(target, dataset.backups[0].records, "fsl-mini");
}

}  // namespace
}  // namespace freqdedup::analysis
