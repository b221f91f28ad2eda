// ChunkStream equivalence: for CDC and fixed chunkers, pushing a buffer in
// any append granularity (1 byte, odd sizes, whole) must emit exactly the
// chunk sequence split() produces; CDC's split() and stream must both match
// a byte-at-a-time RabinWindow reference over random parameters; plus
// construction-time parameter validation for both chunkers.
#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>
#include <string>

#include "chunking/cdc_chunker.h"
#include "chunking/fixed_chunker.h"
#include "chunking/rabin.h"
#include "common/rng.h"

namespace freqdedup {
namespace {

ByteVec randomContent(uint64_t seed, size_t n) {
  Rng rng(seed);
  ByteVec data(n);
  for (auto& b : data) b = static_cast<uint8_t>(rng.next());
  return data;
}

CdcParams smallCdc() {
  CdcParams p;
  p.minSize = 128;
  p.avgSize = 512;
  p.maxSize = 2048;
  p.windowSize = 48;
  return p;
}

/// Chunks emitted by streaming `data` through `chunker` in `step`-byte
/// appends (step 0 = one push of the whole buffer).
std::vector<ByteVec> streamChunks(const Chunker& chunker, ByteView data,
                                  size_t step) {
  std::vector<ByteVec> chunks;
  const auto stream = chunker.makeStream(
      [&chunks](ByteView c) { chunks.emplace_back(c.begin(), c.end()); });
  if (step == 0) {
    stream->push(data);
  } else {
    for (size_t off = 0; off < data.size(); off += step)
      stream->push(data.subspan(off, std::min(step, data.size() - off)));
  }
  stream->flush();
  return chunks;
}

/// The oracle: split() spans materialized to chunk bytes.
std::vector<ByteVec> splitChunks(const Chunker& chunker, ByteView data) {
  std::vector<ByteVec> chunks;
  for (const ChunkSpan& span : chunker.split(data)) {
    const ByteView bytes = chunkBytes(data, span);
    chunks.emplace_back(bytes.begin(), bytes.end());
  }
  return chunks;
}

class ChunkStreamEquivalence : public ::testing::TestWithParam<size_t> {};

TEST_P(ChunkStreamEquivalence, CdcMatchesSplitAtAnyGranularity) {
  const CdcChunker chunker(smallCdc());
  for (const size_t contentBytes : {size_t{0}, size_t{1}, size_t{100},
                                    size_t{50'000}}) {
    const ByteVec content = randomContent(contentBytes + 1, contentBytes);
    EXPECT_EQ(streamChunks(chunker, content, GetParam()),
              splitChunks(chunker, content))
        << "content " << contentBytes << "B, step " << GetParam();
  }
}

TEST_P(ChunkStreamEquivalence, FixedMatchesSplitAtAnyGranularity) {
  const FixedChunker chunker(512);
  for (const size_t contentBytes :
       {size_t{0}, size_t{511}, size_t{512}, size_t{50'000}}) {
    const ByteVec content = randomContent(contentBytes + 2, contentBytes);
    EXPECT_EQ(streamChunks(chunker, content, GetParam()),
              splitChunks(chunker, content))
        << "content " << contentBytes << "B, step " << GetParam();
  }
}

// Granularities: 1 B, a prime, a power of two, larger than most chunks, and
// 0 = whole-buffer single push.
INSTANTIATE_TEST_SUITE_P(Granularities, ChunkStreamEquivalence,
                         ::testing::Values(1, 7, 1024, 65536, 0));

TEST(ChunkStream, FlushEndsTheObjectAndResetsForTheNext) {
  const CdcChunker chunker(smallCdc());
  const ByteVec a = randomContent(10, 10'000);
  const ByteVec b = randomContent(11, 12'000);

  // One stream, two objects separated by flush(): each object's chunks must
  // equal its own split() — no state leaks across the flush.
  std::vector<ByteVec> chunks;
  const auto stream = chunker.makeStream(
      [&chunks](ByteView c) { chunks.emplace_back(c.begin(), c.end()); });
  stream->push(a);
  stream->flush();
  const std::vector<ByteVec> fromA = chunks;
  chunks.clear();
  stream->push(b);
  stream->flush();

  EXPECT_EQ(fromA, splitChunks(chunker, a));
  EXPECT_EQ(chunks, splitChunks(chunker, b));
}

TEST(ChunkStream, EmptyObjectEmitsNoChunks) {
  const FixedChunker chunker(512);
  size_t emitted = 0;
  const auto stream = chunker.makeStream([&emitted](ByteView) { ++emitted; });
  stream->flush();
  EXPECT_EQ(emitted, 0u);
}

/// Reference CDC: slides every byte of the buffer through a RabinWindow and
/// cuts where the pattern matches at or past minSize, or at maxSize.
std::vector<ByteVec> referenceCdcChunks(const CdcParams& p, ByteView data) {
  std::vector<ByteVec> chunks;
  RabinWindow window(p.windowSize, p.poly);
  const uint64_t mask = p.avgSize - 1;
  size_t start = 0;
  for (size_t pos = 0; pos < data.size(); ++pos) {
    const uint64_t fp = window.slide(data[pos]);
    const size_t len = pos + 1 - start;
    if ((len >= p.minSize && (fp & mask) == mask) || len >= p.maxSize) {
      chunks.emplace_back(data.begin() + start, data.begin() + pos + 1);
      start = pos + 1;
      window.reset();
    }
  }
  if (start < data.size())
    chunks.emplace_back(data.begin() + start, data.end());
  return chunks;
}

/// Valid CdcParams with windowSize in [2, 512], minSize anywhere from the
/// window up to avgSize, and maxSize from avgSize up to 4 * avgSize.
CdcParams randomCdcParams(Rng& rng) {
  CdcParams p;
  p.windowSize = static_cast<uint32_t>(rng.uniformInt(2, 512));
  const int minExp = std::bit_width(p.windowSize - 1);  // avg >= window
  p.avgSize = 1u << rng.uniformInt(minExp, 12);
  p.minSize = static_cast<uint32_t>(rng.uniformInt(p.windowSize, p.avgSize));
  p.maxSize = rng.bernoulli(0.2)
                  ? p.avgSize
                  : static_cast<uint32_t>(
                        rng.uniformInt(p.avgSize, 4 * p.avgSize));
  return p;
}

TEST(CdcChunker, SplitAndStreamMatchRabinWindowReferenceOnRandomParams) {
  Rng rng(2024);
  for (int round = 0; round < 40; ++round) {
    const CdcParams p = randomCdcParams(rng);
    // Random bytes, then a 2-bit low-entropy run, then a constant run (its
    // fingerprint is constant, so it cuts only at minSize or at maxSize).
    ByteVec content = randomContent(round + 500, 24 * 1024);
    for (int i = 0; i < 12 * 1024; ++i)
      content.push_back(static_cast<uint8_t>(rng.next() & 3));
    content.insert(content.end(), 6 * 1024, uint8_t{0xA7});

    const CdcChunker chunker(p);
    const std::vector<ByteVec> expected = referenceCdcChunks(p, content);
    const std::string where = "window " + std::to_string(p.windowSize) +
                              " min " + std::to_string(p.minSize) + " avg " +
                              std::to_string(p.avgSize) + " max " +
                              std::to_string(p.maxSize);
    ASSERT_EQ(splitChunks(chunker, content), expected) << where;
    // Each granularity makes some push end right around a warm-up edge
    // (windowSize, minSize) or just past a forced maxSize cut.
    for (const size_t step :
         {size_t{1}, size_t{p.windowSize} - 1, size_t{p.windowSize} + 1,
          size_t{p.minSize} - 1, size_t{p.minSize} + 1,
          size_t{p.maxSize} + 1, size_t{0}}) {
      ASSERT_EQ(streamChunks(chunker, content, step), expected)
          << where << ", step " << step;
    }
  }
}

TEST(CdcChunker, RejectsInvalidParamsWithClearErrors) {
  {
    CdcParams p;
    p.avgSize = 1000;  // not a power of two
    EXPECT_THROW(CdcChunker{p}, std::invalid_argument);
  }
  {
    CdcParams p;
    p.avgSize = 0;
    EXPECT_THROW(CdcChunker{p}, std::invalid_argument);
  }
  {
    CdcParams p;
    p.windowSize = 0;
    EXPECT_THROW(CdcChunker{p}, std::invalid_argument);
  }
  {
    CdcParams p;
    p.minSize = 16;  // below the Rabin window
    EXPECT_THROW(CdcChunker{p}, std::invalid_argument);
  }
  {
    CdcParams p;
    p.minSize = p.maxSize * 2;  // min > avg
    EXPECT_THROW(CdcChunker{p}, std::invalid_argument);
  }
  {
    CdcParams p;
    p.maxSize = p.avgSize / 2;  // avg > max
    EXPECT_THROW(CdcChunker{p}, std::invalid_argument);
  }
  {
    CdcParams p;
    p.windowSize = 1;  // no room for a byte to expire
    EXPECT_THROW(CdcChunker{p}, std::invalid_argument);
  }
  {
    CdcParams p;
    p.poly = 0x1d;  // degree 4: the top byte cannot be folded back
    EXPECT_THROW(CdcChunker{p}, std::invalid_argument);
  }
  {
    CdcParams p;
    p.poly = 0;
    EXPECT_THROW(CdcChunker{p}, std::invalid_argument);
  }
  {
    CdcParams p;
    p.poly = 1ULL << 60 | 1;  // degree 60: fp << 8 would overflow
    EXPECT_THROW(CdcChunker{p}, std::invalid_argument);
  }
}

TEST(FixedChunker, RejectsZeroChunkSize) {
  EXPECT_THROW(FixedChunker(0), std::invalid_argument);
}

}  // namespace
}  // namespace freqdedup
