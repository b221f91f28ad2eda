#include "core/defense.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "common/hash.h"
#include "common/rng.h"

namespace freqdedup {
namespace {

std::vector<ChunkRecord> randomTrace(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<ChunkRecord> records(n);
  for (auto& r : records) {
    // Small fingerprint space: plenty of duplicates.
    r = {rng.uniformInt(0, n / 3), 8192};
  }
  return records;
}

SegmentParams tinySegments() {
  SegmentParams p;
  p.minBytes = 64 * 1024;
  p.avgBytes = 128 * 1024;
  p.maxBytes = 256 * 1024;
  p.avgChunkBytes = 8192;
  return p;
}

TEST(MleTrace, OneToOneAndDeterministic) {
  const auto plain = randomTrace(1, 1000);
  const EncryptedTrace a = mleEncryptTrace(plain);
  const EncryptedTrace b = mleEncryptTrace(plain);
  EXPECT_EQ(a.records, b.records);
  // Identical plaintext fps always map to identical cipher fps.
  std::unordered_map<Fp, Fp, FpHash> mapping;
  for (size_t i = 0; i < plain.size(); ++i) {
    const auto [it, inserted] =
        mapping.try_emplace(plain[i].fp, a.records[i].fp);
    EXPECT_EQ(it->second, a.records[i].fp);
  }
}

TEST(MleTrace, TruthInvertsTheMapping) {
  const auto plain = randomTrace(2, 500);
  const EncryptedTrace enc = mleEncryptTrace(plain);
  for (size_t i = 0; i < plain.size(); ++i)
    EXPECT_EQ(enc.truth.at(enc.records[i].fp), plain[i].fp);
}

TEST(MleTrace, SizesPreserved) {
  const auto plain = randomTrace(3, 500);
  const EncryptedTrace enc = mleEncryptTrace(plain);
  for (size_t i = 0; i < plain.size(); ++i)
    EXPECT_EQ(enc.records[i].size, plain[i].size);
}

TEST(MleTrace, PreservesDeduplication) {
  const auto plain = randomTrace(4, 2000);
  const EncryptedTrace enc = mleEncryptTrace(plain);
  std::unordered_set<Fp, FpHash> plainUnique, cipherUnique;
  for (const auto& r : plain) plainUnique.insert(r.fp);
  for (const auto& r : enc.records) cipherUnique.insert(r.fp);
  EXPECT_EQ(plainUnique.size(), cipherUnique.size());
}

TEST(MleTrace, FingerprintWidthRespected) {
  const auto plain = randomTrace(5, 200);
  const EncryptedTrace enc = mleEncryptTrace(plain, 48);
  for (const auto& r : enc.records) EXPECT_LT(r.fp, 1ULL << 48);
}

// Section 7.1's trace-level MLE: cipher fp = trunc(SHA-256("mle" || fp)).
TEST(MleTrace, CipherFpIsTruncatedSha256OfPlainFp) {
  const std::vector<ChunkRecord> plain = {{42, 8192}, {7, 4096}};
  const EncryptedTrace enc = mleEncryptTrace(plain);
  for (size_t i = 0; i < plain.size(); ++i) {
    ByteVec msg = toBytes("mle");
    putU64(msg, plain[i].fp);
    EXPECT_EQ(enc.records[i].fp, fpFromDigest(sha256(msg), kFslFpBits));
  }
}

TEST(MleTrace, ThreadCountDoesNotChangeOutput) {
  const auto plain = randomTrace(9, 3000);
  const EncryptedTrace serial = mleEncryptTrace(plain, kFslFpBits, 1);
  const EncryptedTrace pooled = mleEncryptTrace(plain, kFslFpBits, 4);
  EXPECT_EQ(pooled.records, serial.records);
  EXPECT_EQ(pooled.truth, serial.truth);
}

TEST(ScrambleTrace, EmptyInputYieldsEmptyStream) {
  Rng rng(1);
  EXPECT_TRUE(scrambleTrace({}, tinySegments(), rng).empty());
}

class ScrambleProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScrambleProperty, PreservesPerSegmentMultisets) {
  const auto records = randomTrace(GetParam(), 3000);
  const SegmentParams params = tinySegments();
  Rng rng(GetParam() * 7 + 1);
  const auto scrambled = scrambleTrace(records, params, rng);
  ASSERT_EQ(scrambled.size(), records.size());

  const auto segments = segmentRecords(records, params);
  for (const Segment& seg : segments) {
    auto originalSlice = std::vector<ChunkRecord>(
        records.begin() + static_cast<ptrdiff_t>(seg.begin),
        records.begin() + static_cast<ptrdiff_t>(seg.end));
    auto scrambledSlice = std::vector<ChunkRecord>(
        scrambled.begin() + static_cast<ptrdiff_t>(seg.begin),
        scrambled.begin() + static_cast<ptrdiff_t>(seg.end));
    const auto byFp = [](const ChunkRecord& a, const ChunkRecord& b) {
      return a.fp < b.fp;
    };
    std::sort(originalSlice.begin(), originalSlice.end(), byFp);
    std::sort(scrambledSlice.begin(), scrambledSlice.end(), byFp);
    EXPECT_EQ(originalSlice, scrambledSlice);
  }
}

TEST_P(ScrambleProperty, ActuallyReordersLongSegments) {
  const auto records = randomTrace(GetParam(), 3000);
  Rng rng(GetParam());
  const auto scrambled = scrambleTrace(records, tinySegments(), rng);
  EXPECT_NE(scrambled, records);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScrambleProperty,
                         ::testing::Values(1, 2, 42));

TEST(MinHashTrace, RecordCountAndTruthPreserved) {
  const auto plain = randomTrace(6, 2000);
  DefenseConfig config;
  config.segment = tinySegments();
  const EncryptedTrace enc = minHashEncryptTrace(plain, config);
  ASSERT_EQ(enc.records.size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(enc.truth.at(enc.records[i].fp), plain[i].fp);
    EXPECT_EQ(enc.records[i].size, plain[i].size);
  }
}

TEST(MinHashTrace, MostDuplicatesStillDeduplicate) {
  // Broder's theorem applies to *similar streams* (backups of the same
  // source), not to uniformly scattered duplicates. Build two nearly
  // identical backup streams, as in real workloads: the blowup in unique
  // ciphertext chunks must stay small (the paper reports <= 3.6 % extra
  // storage).
  Rng rng(7);
  std::vector<ChunkRecord> backup1(10'000);
  for (auto& r : backup1) r = {rng.next(), 8192};
  std::vector<ChunkRecord> backup2 = backup1;
  for (int i = 0; i < 100; ++i) {  // 1 % clustered churn
    const size_t at = rng.pickIndex(backup2.size());
    backup2[at] = {rng.next(), 8192};
  }
  std::vector<ChunkRecord> stream = backup1;
  stream.insert(stream.end(), backup2.begin(), backup2.end());

  DefenseConfig config;
  config.segment = tinySegments();
  const EncryptedTrace enc = minHashEncryptTrace(stream, config);
  std::unordered_set<Fp, FpHash> plainUnique, cipherUnique;
  for (const auto& r : stream) plainUnique.insert(r.fp);
  for (const auto& r : enc.records) cipherUnique.insert(r.fp);
  EXPECT_GE(cipherUnique.size(), plainUnique.size());
  EXPECT_LT(static_cast<double>(cipherUnique.size()),
            static_cast<double>(plainUnique.size()) * 1.3);
}

TEST(MinHashTrace, SameMinimumSameCipher) {
  // Two streams whose segments contain the same minimum fingerprint encrypt
  // shared chunks identically.
  std::vector<ChunkRecord> streamA, streamB;
  for (Fp fp = 10; fp < 200; ++fp) streamA.push_back({fp, 8192});
  for (Fp fp = 10; fp < 200; ++fp) streamB.push_back({fp, 8192});
  DefenseConfig config;
  config.segment.minBytes = 1;
  config.segment.avgBytes = 100 * 8192ULL * 1024;  // one huge segment
  config.segment.maxBytes = 100 * 8192ULL * 1024;
  const EncryptedTrace a = minHashEncryptTrace(streamA, config);
  const EncryptedTrace b = minHashEncryptTrace(streamB, config);
  EXPECT_EQ(a.records, b.records);
}

TEST(MinHashTrace, DifferentMinimumDifferentCipher) {
  std::vector<ChunkRecord> streamA, streamB;
  for (Fp fp = 10; fp < 200; ++fp) streamA.push_back({fp, 8192});
  streamB = streamA;
  streamB[0].fp = 5;  // new minimum for B's (single) segment
  DefenseConfig config;
  config.segment.minBytes = 1;
  config.segment.avgBytes = 100 * 8192ULL * 1024;
  config.segment.maxBytes = 100 * 8192ULL * 1024;
  const EncryptedTrace a = minHashEncryptTrace(streamA, config);
  const EncryptedTrace b = minHashEncryptTrace(streamB, config);
  // Same plaintext chunk (fp 11 at index 1), different minima -> different
  // ciphertext chunks: this is what disturbs the frequency ranking.
  EXPECT_NE(a.records[1].fp, b.records[1].fp);
  EXPECT_EQ(a.truth.at(a.records[1].fp), b.truth.at(b.records[1].fp));
}

TEST(MinHashTrace, ScrambleKeepsSegmentMinimaAndTruth) {
  const auto plain = randomTrace(8, 2000);
  DefenseConfig noScramble;
  noScramble.segment = tinySegments();
  DefenseConfig withScramble = noScramble;
  withScramble.scramble = true;
  withScramble.scrambleSeed = 77;
  const EncryptedTrace a = minHashEncryptTrace(plain, noScramble);
  const EncryptedTrace b = minHashEncryptTrace(plain, withScramble);
  // Scrambling permutes within segments but does not change which
  // (minimum, chunk) pairs exist: the unique cipher fp sets are identical.
  std::unordered_set<Fp, FpHash> uniqueA, uniqueB;
  for (const auto& r : a.records) uniqueA.insert(r.fp);
  for (const auto& r : b.records) uniqueB.insert(r.fp);
  EXPECT_EQ(uniqueA, uniqueB);
  // But the order differs.
  EXPECT_NE(a.records, b.records);
}

// minHashEncryptTrace scrambles with Rng(scrambleSeed) exactly as
// scrambleTrace does: mapped back through the truth, its output is
// scrambleTrace's stream.
TEST(MinHashTrace, ScrambledOrderIsScrambleTraceOrder) {
  const auto plain = randomTrace(10, 2000);
  DefenseConfig config;
  config.segment = tinySegments();
  config.scramble = true;
  config.scrambleSeed = 31;
  const EncryptedTrace enc = minHashEncryptTrace(plain, config);
  Rng rng(config.scrambleSeed);
  const std::vector<ChunkRecord> scrambled =
      scrambleTrace(plain, config.segment, rng);
  ASSERT_EQ(enc.records.size(), scrambled.size());
  for (size_t i = 0; i < scrambled.size(); ++i) {
    EXPECT_EQ(enc.truth.at(enc.records[i].fp), scrambled[i].fp) << i;
    EXPECT_EQ(enc.records[i].size, scrambled[i].size) << i;
  }
}

TEST(MinHashTrace, ThreadCountDoesNotChangeOutput) {
  const auto plain = randomTrace(11, 3000);
  DefenseConfig config;
  config.segment = tinySegments();
  config.scramble = true;
  config.scrambleSeed = 5;
  const EncryptedTrace serial = minHashEncryptTrace(plain, config);
  config.threads = 4;
  const EncryptedTrace pooled = minHashEncryptTrace(plain, config);
  EXPECT_EQ(pooled.records, serial.records);
  EXPECT_EQ(pooled.truth, serial.truth);
}

// Inside one segment every copy of a chunk shares the segment's minimum, so
// the copies encrypt alike and still deduplicate.
TEST(MinHashTrace, RepeatInsideOneSegmentSharesCipher) {
  std::vector<ChunkRecord> stream;
  for (Fp fp = 10; fp < 40; ++fp) stream.push_back({fp, 8192});
  stream.push_back({17, 8192});
  DefenseConfig config;
  config.segment.minBytes = 1;
  config.segment.avgBytes = 100 * 8192ULL * 1024;  // one huge segment
  config.segment.maxBytes = 100 * 8192ULL * 1024;
  const EncryptedTrace enc = minHashEncryptTrace(stream, config);
  EXPECT_EQ(enc.records.back().fp, enc.records[7].fp);
  std::unordered_set<Fp, FpHash> unique;
  for (const auto& r : enc.records) unique.insert(r.fp);
  EXPECT_EQ(unique.size(), stream.size() - 1);
}

// Section 7.1's MinHash: cipher fp = trunc(SHA-256("mh" || min || fp)),
// with min the minimum fingerprint of the chunk's segment.
TEST(MinHashTrace, CipherFpIsTruncatedSha256OfMinimumAndPlainFp) {
  const auto plain = randomTrace(13, 1000);
  DefenseConfig config;
  config.segment = tinySegments();
  const EncryptedTrace enc = minHashEncryptTrace(plain, config);
  const std::vector<Segment> segments = segmentRecords(plain, config.segment);
  ASSERT_GE(segments.size(), 2u);
  for (const Segment& seg : segments) {
    const Fp minFp = segmentMinFingerprint(plain, seg);
    for (size_t i = seg.begin; i < seg.end; ++i) {
      ByteVec msg = toBytes("mh");
      putU64(msg, minFp);
      putU64(msg, plain[i].fp);
      EXPECT_EQ(enc.records[i].fp, fpFromDigest(sha256(msg), kFslFpBits)) << i;
    }
  }
}

TEST(MinHashTrace, FingerprintWidthRespected) {
  const auto plain = randomTrace(12, 500);
  DefenseConfig config;
  config.segment = tinySegments();
  config.fpBits = 48;
  const EncryptedTrace enc = minHashEncryptTrace(plain, config);
  for (const auto& r : enc.records) EXPECT_LT(r.fp, 1ULL << 48);
}

TEST(MinHashTrace, EmptyInput) {
  const EncryptedTrace enc = minHashEncryptTrace({}, DefenseConfig{});
  EXPECT_TRUE(enc.records.empty());
  EXPECT_TRUE(enc.truth.empty());
}

}  // namespace
}  // namespace freqdedup
