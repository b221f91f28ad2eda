#include "chunking/cdc_chunker.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "common/fingerprint.h"
#include "common/rng.h"

namespace freqdedup {
namespace {

ByteVec randomData(uint64_t seed, size_t n) {
  Rng rng(seed);
  ByteVec data(n);
  for (auto& b : data) b = static_cast<uint8_t>(rng.next());
  return data;
}

CdcParams smallParams() {
  CdcParams p;
  p.minSize = 256;
  p.avgSize = 1024;
  p.maxSize = 4096;
  p.windowSize = 48;
  return p;
}

TEST(Cdc, EmptyInputYieldsNoChunks) {
  CdcChunker chunker(smallParams());
  EXPECT_TRUE(chunker.split({}).empty());
}

TEST(Cdc, TinyInputYieldsOneChunk) {
  CdcChunker chunker(smallParams());
  const ByteVec data = randomData(1, 100);
  const auto chunks = chunker.split(data);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].offset, 0u);
  EXPECT_EQ(chunks[0].size, 100u);
}

class CdcProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CdcProperty, ChunksAreExhaustiveAndContiguous) {
  CdcChunker chunker(smallParams());
  const ByteVec data = randomData(GetParam(), 256 * 1024);
  const auto chunks = chunker.split(data);
  ASSERT_FALSE(chunks.empty());
  size_t expectOffset = 0;
  for (const auto& c : chunks) {
    EXPECT_EQ(c.offset, expectOffset);
    EXPECT_GT(c.size, 0u);
    expectOffset += c.size;
  }
  EXPECT_EQ(expectOffset, data.size());
}

TEST_P(CdcProperty, SizesWithinBounds) {
  const CdcParams p = smallParams();
  CdcChunker chunker(p);
  const ByteVec data = randomData(GetParam(), 256 * 1024);
  const auto chunks = chunker.split(data);
  for (size_t i = 0; i + 1 < chunks.size(); ++i) {  // last chunk may be short
    EXPECT_GE(chunks[i].size, p.minSize);
    EXPECT_LE(chunks[i].size, p.maxSize);
  }
  EXPECT_LE(chunks.back().size, p.maxSize);
}

TEST_P(CdcProperty, AverageSizeIsInTheRightRegime) {
  const CdcParams p = smallParams();
  CdcChunker chunker(p);
  const ByteVec data = randomData(GetParam(), 1024 * 1024);
  const auto chunks = chunker.split(data);
  const double avg = static_cast<double>(data.size()) /
                     static_cast<double>(chunks.size());
  // Expected size for min+avg-masked CDC is roughly min + avg; allow slack.
  EXPECT_GT(avg, p.avgSize * 0.5);
  EXPECT_LT(avg, p.avgSize * 2.5);
}

TEST_P(CdcProperty, DeterministicAcrossCalls) {
  CdcChunker chunker(smallParams());
  const ByteVec data = randomData(GetParam(), 128 * 1024);
  EXPECT_EQ(chunker.split(data), chunker.split(data));
}

// Content-defined chunking's raison d'être: a prefix insertion shifts all
// content, yet most chunks (identified by content hash) survive.
TEST_P(CdcProperty, RobustToContentShift) {
  CdcChunker chunker(smallParams());
  const ByteVec original = randomData(GetParam(), 512 * 1024);
  ByteVec shifted = randomData(GetParam() + 1000, 137);  // odd-size prefix
  shifted.insert(shifted.end(), original.begin(), original.end());

  std::unordered_set<Fp, FpHash> originalFps;
  for (const auto& c : chunker.split(original))
    originalFps.insert(fpOfContent(chunkBytes(original, c)));

  size_t surviving = 0;
  const auto shiftedChunks = chunker.split(shifted);
  for (const auto& c : shiftedChunks) {
    if (originalFps.contains(fpOfContent(chunkBytes(shifted, c))))
      ++surviving;
  }
  // All but the first few chunks should re-align.
  EXPECT_GT(surviving, shiftedChunks.size() * 3 / 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdcProperty, ::testing::Values(1, 2, 42, 99));

TEST(Cdc, MaxSizeForcedOnConstantData) {
  const CdcParams p = smallParams();
  CdcChunker chunker(p);
  // Constant data never matches the boundary pattern (fp is constant), so
  // every chunk is cut at maxSize.
  const ByteVec data(64 * 1024, 0x55);
  const auto chunks = chunker.split(data);
  for (size_t i = 0; i + 1 < chunks.size(); ++i)
    EXPECT_EQ(chunks[i].size, p.maxSize);
}

TEST(Cdc, RejectsNonPowerOfTwoAverage) {
  CdcParams p = smallParams();
  p.avgSize = 1000;
  EXPECT_THROW(CdcChunker{p}, std::logic_error);
}

TEST(Cdc, RejectsInvertedBounds) {
  CdcParams p = smallParams();
  p.minSize = 8192;
  EXPECT_THROW(CdcChunker{p}, std::logic_error);
}

TEST(Cdc, RejectsMinBelowWindow) {
  CdcParams p = smallParams();
  p.minSize = 16;
  p.windowSize = 48;
  EXPECT_THROW(CdcChunker{p}, std::logic_error);
}

// Golden boundaries: a digest of split()'s spans over fixed seeded inputs,
// per parameter set. Any change to where cuts land — a kernel rewrite, a
// table or window bug — changes the digest, so optimisations of the scan
// must leave these constants alone.
uint64_t fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::vector<ByteVec> goldenInputs(const CdcParams& p) {
  std::vector<ByteVec> inputs;
  inputs.push_back(randomData(1001, 1 << 20));  // random bytes
  Rng rng(1002);
  ByteVec lowEntropy(512 * 1024);  // 2 bits of entropy per byte
  for (auto& b : lowEntropy) b = static_cast<uint8_t>(rng.next() & 3);
  inputs.push_back(std::move(lowEntropy));
  inputs.emplace_back(100 * 1024, uint8_t{0x55});  // constant buffer
  inputs.push_back(randomData(1003, p.minSize - 1));  // shorter than minSize
  inputs.push_back(randomData(1004, 1));
  inputs.push_back(randomData(1005, p.minSize));  // exactly minSize
  return inputs;
}

uint64_t spanDigest(const CdcParams& p) {
  const CdcChunker chunker(p);
  uint64_t h = 0xCBF29CE484222325ULL;
  for (const ByteVec& input : goldenInputs(p)) {
    const auto spans = chunker.split(input);
    h = fnv1a(h, spans.size());
    for (const ChunkSpan& s : spans) h = fnv1a(fnv1a(h, s.offset), s.size);
  }
  return h;
}

CdcParams cdcParams(uint32_t minSize, uint32_t avgSize, uint32_t maxSize,
                    uint32_t windowSize) {
  CdcParams p;
  p.minSize = minSize;
  p.avgSize = avgSize;
  p.maxSize = maxSize;
  p.windowSize = windowSize;
  return p;
}

TEST(Cdc, GoldenBoundariesDefaultParams) {
  EXPECT_EQ(spanDigest(CdcParams{}),
            0x03F32329F131E070ULL);
}

TEST(Cdc, GoldenBoundariesSmallParams) {
  EXPECT_EQ(spanDigest(smallParams()),
            0x67F7C7C4FA7C65B1ULL);
}

TEST(Cdc, GoldenBoundariesMinEqualsWindow) {
  EXPECT_EQ(spanDigest(cdcParams(64, 512, 2048, 64)),
            0xB3C7464543012D0AULL);
}

TEST(Cdc, GoldenBoundariesMinEqualsAvgEqualsMax) {
  EXPECT_EQ(spanDigest(cdcParams(1024, 1024, 1024, 48)),
            0x1B4CAAE27A578E15ULL);
}

TEST(Cdc, GoldenBoundariesWindowWiderThan256) {
  EXPECT_EQ(spanDigest(cdcParams(512, 2048, 8192, 300)),
            0xFFBF47F19486488BULL);
}

TEST(Cdc, ChunkBytesExtractsCorrectSlice) {
  const ByteVec data = toBytes("abcdefgh");
  const ChunkSpan span{2, 3};
  const ByteView view = chunkBytes(data, span);
  EXPECT_EQ(toString(view), "cde");
}

}  // namespace
}  // namespace freqdedup
