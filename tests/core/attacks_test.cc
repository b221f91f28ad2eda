#include <gtest/gtest.h>

#include <limits>
#include <tuple>

#include "analysis/attack_engine.h"

namespace freqdedup {
namespace {

using analysis::AttackEngine;

std::vector<ChunkRecord> seq(std::initializer_list<Fp> fps,
                             uint32_t size = 100) {
  std::vector<ChunkRecord> records;
  for (const Fp fp : fps) records.push_back({fp, size});
  return records;
}

// The worked example of Section 4.2 (Figure 3):
//   M = <M1, M2, M1, M2, M3, M4, M2, M3, M4>
//   C = <C1, C2, C5, C2, C1, C2, C3, C4, C2, C3, C4, C4>
// Ground truth: Ci <-> Mi for i = 1..4; C5 is new content absent from M.
// With u = v = 1 and unbounded G, the attack infers (Ci, Mi) for i = 1..4
// and cannot infer C5.
constexpr Fp kM1 = 1, kM2 = 2, kM3 = 3, kM4 = 4;
constexpr Fp kC1 = 101, kC2 = 102, kC3 = 103, kC4 = 104, kC5 = 105;

std::vector<ChunkRecord> paperM() {
  return seq({kM1, kM2, kM1, kM2, kM3, kM4, kM2, kM3, kM4});
}

std::vector<ChunkRecord> paperC() {
  return seq({kC1, kC2, kC5, kC2, kC1, kC2, kC3, kC4, kC2, kC3, kC4, kC4});
}

AttackEngine paperEngine() {
  return AttackEngine::fromRecords(paperC(), paperM());
}

TEST(LocalityAttack, PaperFigure3Example) {
  AttackConfig config;
  config.u = 1;
  config.v = 1;
  config.w = 1'000'000;  // "unbounded" in the example
  const AttackResult result = paperEngine().localityAttack(config);

  EXPECT_EQ(result.inferred.at(kC1), kM1);
  EXPECT_EQ(result.inferred.at(kC2), kM2);
  EXPECT_EQ(result.inferred.at(kC3), kM3);
  EXPECT_EQ(result.inferred.at(kC4), kM4);
  // C5's plaintext never appears in M; whatever the attack maps it to (if
  // anything), it cannot be a *new* chunk — the example says it cannot be
  // inferred. With v=1 the walk never pairs it correctly; it must not be
  // paired with any of M1..M4's fingerprints that are already taken.
  const auto it = result.inferred.find(kC5);
  if (it != result.inferred.end()) {
    EXPECT_NE(it->second, kM1);
    EXPECT_NE(it->second, kM3);
    EXPECT_NE(it->second, kM4);
  }
}

TEST(LocalityAttack, Figure3SeedIsMostFrequentPair) {
  // Frequency analysis finds (C2, M2) as the most frequent pair first. With
  // v = 0 the walk adds nothing, so the result is the seed set alone.
  AttackConfig config;
  config.u = 1;
  config.v = 0;
  const AttackResult seeds = paperEngine().localityAttack(config);
  ASSERT_EQ(seeds.inferred.size(), 1u);
  EXPECT_EQ(seeds.inferred.at(kC2), kM2);
}

TEST(BasicAttack, RanksGloballyByFrequency) {
  // Frequencies: cipher 102 > 101 > 103; plain 2 > 1 > 3.
  const auto cipher = seq({102, 102, 102, 101, 101, 103});
  const auto plain = seq({2, 2, 2, 1, 1, 3});
  const AttackResult result =
      AttackEngine::fromRecords(cipher, plain).basicAttack(false);
  EXPECT_EQ(result.inferred.at(102), 2u);
  EXPECT_EQ(result.inferred.at(101), 1u);
  EXPECT_EQ(result.inferred.at(103), 3u);
}

TEST(BasicAttack, SizeAwareSeparatesSizeClasses) {
  std::vector<ChunkRecord> cipher{{101, 16}, {102, 32}};
  std::vector<ChunkRecord> plain{{1, 16}, {2, 32}};
  const AttackResult plainRank =
      AttackEngine::fromRecords(cipher, plain).basicAttack(false);
  // Without sizes, ties are broken by fingerprint: wrong pairing possible.
  // With sizes, each chunk is alone in its class: pairing is forced.
  const AttackResult sized =
      AttackEngine::fromRecords(cipher, plain).basicAttack(true);
  EXPECT_EQ(sized.inferred.at(101), 1u);
  EXPECT_EQ(sized.inferred.at(102), 2u);
  EXPECT_EQ(plainRank.inferred.size(), 2u);
}

TEST(LocalityAttack, KnownPlaintextSeedsFromLeakedPairs) {
  AttackConfig config;
  config.mode = AttackMode::kKnownPlaintext;
  config.v = 1;
  config.leakedPairs = {{kC3, kM3}};
  const AttackResult result = paperEngine().localityAttack(config);
  // From (C3, M3) the walk reaches its neighbors: C2/M2 (left) and C4/M4
  // (right), and from those C1/M1.
  EXPECT_EQ(result.inferred.at(kC3), kM3);
  EXPECT_EQ(result.inferred.at(kC2), kM2);
  EXPECT_EQ(result.inferred.at(kC4), kM4);
  EXPECT_EQ(result.inferred.at(kC1), kM1);
}

TEST(LocalityAttack, LeakedPairsAbsentFromAuxStillCounted) {
  AttackConfig config;
  config.mode = AttackMode::kKnownPlaintext;
  config.leakedPairs = {{kC5, 999}};  // 999 does not occur in M
  const AttackResult result = paperEngine().localityAttack(config);
  // The leaked pair itself is known to the adversary (counted in T), but it
  // cannot seed the walk.
  EXPECT_EQ(result.inferred.at(kC5), 999u);
  EXPECT_EQ(result.processedPairs, 0u);
}

TEST(LocalityAttack, LeakedPairsAbsentFromTargetIgnored) {
  AttackConfig config;
  config.mode = AttackMode::kKnownPlaintext;
  config.leakedPairs = {{777, kM2}};  // 777 is not a ciphertext chunk of C
  const AttackResult result = paperEngine().localityAttack(config);
  EXPECT_FALSE(result.inferred.contains(777));
}

TEST(LocalityAttack, FirstInferenceWins) {
  AttackConfig config;
  config.u = 1;
  config.v = 1;
  const AttackResult result = paperEngine().localityAttack(config);
  // Every ciphertext chunk maps to exactly one plaintext chunk.
  EXPECT_LE(result.inferred.size(), 5u);
}

TEST(LocalityAttack, WBoundsTheQueue) {
  // Algorithm 2 line 17: a pair joins G only while |G| <= w. With w = 0 the
  // queue holds at most one pending pair at a time, so the walk degenerates
  // to a single chain and can never process more pairs than with a large w.
  AttackConfig tightCfg;
  tightCfg.u = 1;
  tightCfg.v = 1;
  tightCfg.w = 0;
  AttackConfig looseCfg = tightCfg;
  looseCfg.w = 1'000'000;
  const AttackResult tight = paperEngine().localityAttack(tightCfg);
  const AttackResult loose = paperEngine().localityAttack(looseCfg);
  EXPECT_GE(tight.processedPairs, 1u);
  EXPECT_LE(tight.processedPairs, loose.processedPairs);
  EXPECT_LE(tight.inferred.size(), loose.inferred.size());
}

TEST(LocalityAttack, LargerUSeedsMorePairs) {
  AttackConfig config;
  config.u = 3;
  config.v = 1;
  const AttackResult result = paperEngine().localityAttack(config);
  EXPECT_GE(result.processedPairs, 3u);
}

TEST(LocalityAttack, EmptyStreams) {
  AttackConfig config;
  const AttackResult result =
      AttackEngine::fromRecords({}, {}).localityAttack(config);
  EXPECT_TRUE(result.inferred.empty());
}

TEST(LocalityAttack, AdvancedVariantOnFixedSizeEqualsPlainVariant) {
  // With fixed-size chunks there is a single size class, so the advanced
  // attack reduces to the locality attack (Section 5.3: "equivalent for the
  // VM dataset").
  AttackConfig plainCfg;
  plainCfg.v = 1;
  AttackConfig sizedCfg = plainCfg;
  sizedCfg.sizeAware = true;
  const AttackResult a = paperEngine().localityAttack(plainCfg);
  const AttackResult b = paperEngine().localityAttack(sizedCfg);
  EXPECT_EQ(a.inferred, b.inferred);
}

TEST(BasicAttack, EmptyInputs) {
  EXPECT_TRUE(
      AttackEngine::fromRecords({}, {}).basicAttack(false).inferred.empty());
  EXPECT_TRUE(AttackEngine::fromRecords(seq({1}), {})
                  .basicAttack(false)
                  .inferred.empty());
}

TEST(BasicAttack, PairsByRankCappedByShorterSide) {
  // Frequencies: cipher 101:3 > 102:2 > 103:1; plain 201:3 > 202:2. The
  // third cipher chunk has no plaintext rank left to pair with.
  const auto cipher = seq({101, 101, 101, 102, 102, 103});
  const auto plain = seq({201, 201, 201, 202, 202});
  const AttackResult result =
      AttackEngine::fromRecords(cipher, plain).basicAttack(false);
  ASSERT_EQ(result.inferred.size(), 2u);
  EXPECT_EQ(result.inferred.at(101), 201u);
  EXPECT_EQ(result.inferred.at(102), 202u);
}

TEST(BasicAttack, TiesBrokenByAscendingFingerprint) {
  // The cipher chunks all occur once and arrive out of fingerprint order;
  // plain ranks 1:3 > 2:2 > 3:1. Only an ascending-fingerprint tie-break
  // pairs 10, 20, 30 with 1, 2, 3.
  const auto cipher = seq({30, 10, 20});
  const auto plain = seq({3, 2, 1, 2, 1, 1});
  const AttackResult result =
      AttackEngine::fromRecords(cipher, plain).basicAttack(false);
  ASSERT_EQ(result.inferred.size(), 3u);
  EXPECT_EQ(result.inferred.at(10), 1u);
  EXPECT_EQ(result.inferred.at(20), 2u);
  EXPECT_EQ(result.inferred.at(30), 3u);
}

TEST(BasicAttack, SizeAwarePairsWithinSizeClassesOnly) {
  // Class 1 (<= 16 bytes): cipher 1:10 > 2:5 against plain 11:20 > 12:8.
  // Class 2 (17..32 bytes): cipher 3:7 against plain 13:9.
  std::vector<ChunkRecord> cipher, plain;
  for (const auto& [fp, count, size] :
       {std::tuple<Fp, int, uint32_t>{1, 10, 16}, {2, 5, 10}, {3, 7, 32}}) {
    for (int i = 0; i < count; ++i) cipher.push_back({fp, size});
  }
  for (const auto& [fp, count, size] :
       {std::tuple<Fp, int, uint32_t>{11, 20, 16}, {12, 8, 12}, {13, 9, 20}}) {
    for (int i = 0; i < count; ++i) plain.push_back({fp, size});
  }
  const AttackResult result =
      AttackEngine::fromRecords(cipher, plain).basicAttack(true);
  ASSERT_EQ(result.inferred.size(), 3u);
  EXPECT_EQ(result.inferred.at(1), 11u);
  EXPECT_EQ(result.inferred.at(2), 12u);
  EXPECT_EQ(result.inferred.at(3), 13u);
}

TEST(BasicAttack, SizeAwareMismatchedClassesPairNothing) {
  // One AES block against ten: no shared size class, so nothing pairs.
  const std::vector<ChunkRecord> cipher{{1, 16}};
  const std::vector<ChunkRecord> plain{{11, 160}};
  EXPECT_TRUE(AttackEngine::fromRecords(cipher, plain)
                  .basicAttack(true)
                  .inferred.empty());
}

TEST(LocalityAttack, SizeAwareSeedsUPairsPerClass) {
  // Algorithm 3 returns up to u seed pairs for EACH size class: with u = 1
  // and v = 0 the result is the top pair of each of the two classes.
  std::vector<ChunkRecord> cipher, plain;
  for (const auto& [fp, count, size] :
       {std::tuple<Fp, int, uint32_t>{1, 10, 16}, {2, 5, 16}, {3, 7, 32},
        {4, 6, 32}}) {
    for (int i = 0; i < count; ++i) cipher.push_back({fp, size});
  }
  for (const auto& [fp, count, size] :
       {std::tuple<Fp, int, uint32_t>{11, 20, 16}, {12, 8, 16}, {13, 9, 32},
        {14, 2, 32}}) {
    for (int i = 0; i < count; ++i) plain.push_back({fp, size});
  }
  AttackConfig config;
  config.u = 1;
  config.v = 0;
  config.sizeAware = true;
  const AttackResult result =
      AttackEngine::fromRecords(cipher, plain).localityAttack(config);
  ASSERT_EQ(result.inferred.size(), 2u);
  EXPECT_EQ(result.inferred.at(1), 11u);
  EXPECT_EQ(result.inferred.at(3), 13u);
}

TEST(LocalityAttack, USeedsAtMostUPairs) {
  // Frequencies: cipher 1:3 > 2:2 > 3:1; plain 4:3 > 5:2 > 6:1. With v = 0
  // the walk adds nothing, so the result is the top-u ranked pairs.
  const auto cipher = seq({1, 1, 1, 2, 2, 3});
  const auto plain = seq({4, 4, 4, 5, 5, 6});
  AttackConfig config;
  config.v = 0;
  config.u = 2;
  const AttackResult two =
      AttackEngine::fromRecords(cipher, plain).localityAttack(config);
  ASSERT_EQ(two.inferred.size(), 2u);
  EXPECT_EQ(two.inferred.at(1), 4u);
  EXPECT_EQ(two.inferred.at(2), 5u);
  config.u = 10;
  EXPECT_EQ(AttackEngine::fromRecords(cipher, plain)
                .localityAttack(config)
                .inferred.size(),
            3u);
}

TEST(SizeClass, SixteenByteBlocks) {
  EXPECT_EQ(sizeClassOf(1), 1u);
  EXPECT_EQ(sizeClassOf(16), 1u);
  EXPECT_EQ(sizeClassOf(17), 2u);
  EXPECT_EQ(sizeClassOf(4096), 256u);
  EXPECT_EQ(sizeClassOf(4097), 257u);
}

TEST(SizeClass, LargestSizesDoNotWrap) {
  constexpr uint32_t kMax = std::numeric_limits<uint32_t>::max();
  EXPECT_EQ(sizeClassOf(0), 0u);
  EXPECT_EQ(sizeClassOf(kMax - 15), (1u << 28) - 1);  // 16 * (2^28 - 1)
  EXPECT_EQ(sizeClassOf(kMax - 14), 1u << 28);
  EXPECT_EQ(sizeClassOf(kMax), 1u << 28);
}

}  // namespace
}  // namespace freqdedup
