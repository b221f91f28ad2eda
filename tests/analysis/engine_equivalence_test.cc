// Golden equivalence tests: the analysis engine must reproduce the frozen
// legacy serial implementation bit-identically — same inferred mapping and
// same processed-pair count — for all three attacks, both attack modes, and
// every thread count.
#include <gtest/gtest.h>

#include "analysis/attack_engine.h"
#include "common/rng.h"
#include "core/attack_eval.h"
#include "core/defense.h"
#include "datagen/fsl_gen.h"
#include "legacy_reference.h"

namespace freqdedup {
namespace {

// An engine of N threads builds on a pool of N workers on any machine.
constexpr uint32_t kThreadCounts[] = {1, 2, 8};

/// Deterministic chunk size per fingerprint (a fingerprint fixes its
/// content and hence its size); mixes several AES-block size classes.
uint32_t sizeFor(Fp fp) {
  return static_cast<uint32_t>(100 + 16 * (fp % 7));
}

/// A random stream with locality (motif runs), skewed frequencies, and
/// fresh singletons — the structural features the attacks exploit.
std::vector<ChunkRecord> randomStream(uint64_t seed, size_t length) {
  Rng rng(seed);
  std::vector<ChunkRecord> records;
  records.reserve(length);
  Fp freshFp = 1'000'000 + seed * 10'000'000;
  while (records.size() < length) {
    if (rng.bernoulli(0.6)) {
      // A motif: a short run from a small hot pool (ties + adjacency).
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

/// A perturbed copy: what a neighboring backup of the same source looks
/// like (shared runs, some churn).
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

void checkAllAttacks(const EncryptedTrace& target,
                     const std::vector<ChunkRecord>& aux,
                     const std::vector<InferredPair>& leaked,
                     const std::string& label) {
  for (const bool sizeAware : {false, true}) {
    const AttackResult legacyBasic =
        legacy::basicAttack(target.records, aux, sizeAware);

    AttackConfig co;
    co.u = 3;
    co.v = 5;
    co.w = 500;
    co.sizeAware = sizeAware;
    const AttackResult legacyCo =
        legacy::localityAttack(target.records, aux, co);

    AttackConfig kp = co;
    kp.mode = AttackMode::kKnownPlaintext;
    kp.leakedPairs = leaked;
    const AttackResult legacyKp =
        legacy::localityAttack(target.records, aux, kp);

    for (const uint32_t threads : kThreadCounts) {
      const std::string tag = label + (sizeAware ? " sized" : " plain") +
                              " threads=" + std::to_string(threads);
      analysis::AttackEngine engine = analysis::AttackEngine::fromRecords(
          target.records, aux, {threads});
      expectIdentical(legacyBasic, engine.basicAttack(sizeAware),
                      tag + " basic");
      expectIdentical(legacyCo, engine.localityAttack(co),
                      tag + " ciphertext-only");
      expectIdentical(legacyKp, engine.localityAttack(kp),
                      tag + " known-plaintext");
    }
  }
}

TEST(EngineEquivalence, RandomizedTraces) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<ChunkRecord> plainTarget = randomStream(seed, 2500);
    const std::vector<ChunkRecord> aux = perturb(plainTarget, seed + 100);
    const EncryptedTrace target = mleEncryptTrace(plainTarget);
    Rng rng(seed + 200);
    const std::vector<InferredPair> leaked =
        sampleLeakedPairs(target, 0.01, rng);
    checkAllAttacks(target, aux, leaked, "seed=" + std::to_string(seed));
  }
}

TEST(EngineEquivalence, FslMiniDataset) {
  FslGenParams params;
  params.users = 2;
  params.filesPerUser = 20;
  params.backups = 2;
  params.sharedTemplateFiles = 10;
  const Dataset dataset = generateFslDataset(params);
  const EncryptedTrace target =
      mleEncryptTrace(dataset.backups[1].records, kFslFpBits);
  Rng rng(77);
  const std::vector<InferredPair> leaked =
      sampleLeakedPairs(target, 0.002, rng);
  checkAllAttacks(target, dataset.backups[0].records, leaked, "fsl-mini");
}

TEST(EngineEquivalence, MinHashDefenseEvaluation) {
  // The defense evaluation path: attacks against MinHash-encrypted (and
  // scrambled) targets must also match the legacy engine exactly.
  const std::vector<ChunkRecord> plainTarget = randomStream(9, 2000);
  const std::vector<ChunkRecord> aux = perturb(plainTarget, 42);
  for (const bool scramble : {false, true}) {
    DefenseConfig defense;
    defense.scramble = scramble;
    defense.segment.avgChunkBytes = 128;
    defense.segment.minBytes = 1 << 10;
    defense.segment.avgBytes = 2 << 10;
    defense.segment.maxBytes = 4 << 10;
    const EncryptedTrace target = minHashEncryptTrace(plainTarget, defense);
    Rng rng(5);
    const std::vector<InferredPair> leaked =
        sampleLeakedPairs(target, 0.01, rng);
    checkAllAttacks(target, aux, leaked,
                    scramble ? "minhash+scramble" : "minhash");
  }
}

TEST(EngineEquivalence, EmptyAndDegenerateStreams) {
  const std::vector<ChunkRecord> empty;
  const std::vector<ChunkRecord> one{{42, 100}};
  for (const uint32_t threads : kThreadCounts) {
    analysis::AnalysisOptions options{threads};
    {
      analysis::AttackEngine engine =
          analysis::AttackEngine::fromRecords(empty, empty, options);
      EXPECT_TRUE(engine.basicAttack(false).inferred.empty());
      AttackConfig config;
      EXPECT_TRUE(engine.localityAttack(config).inferred.empty());
    }
    {
      analysis::AttackEngine engine =
          analysis::AttackEngine::fromRecords(one, empty, options);
      EXPECT_TRUE(engine.basicAttack(true).inferred.empty());
    }
    {
      analysis::AttackEngine engine =
          analysis::AttackEngine::fromRecords(one, one, options);
      const AttackResult result = engine.basicAttack(false);
      ASSERT_EQ(result.inferred.size(), 1u);
      EXPECT_EQ(result.inferred.at(42), 42u);
    }
  }
}

}  // namespace
}  // namespace freqdedup
