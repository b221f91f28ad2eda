#include "chunking/segmenter.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"

namespace freqdedup {
namespace {

std::vector<ChunkRecord> randomRecords(uint64_t seed, size_t n,
                                       uint32_t size = 8192) {
  Rng rng(seed);
  std::vector<ChunkRecord> records(n);
  for (auto& r : records) r = {rng.next(), size};
  return records;
}

TEST(Segmenter, EmptyInputYieldsNoSegments) {
  EXPECT_TRUE(segmentRecords({}, SegmentParams{}).empty());
}

TEST(Segmenter, SingleRecord) {
  const std::vector<ChunkRecord> records{{42, 100}};
  const auto segments = segmentRecords(records, SegmentParams{});
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0], (Segment{0, 1}));
}

class SegmenterProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SegmenterProperty, SegmentsAreExhaustiveAndContiguous) {
  const auto records = randomRecords(GetParam(), 5000);
  const auto segments = segmentRecords(records, SegmentParams{});
  ASSERT_FALSE(segments.empty());
  size_t expect = 0;
  for (const auto& s : segments) {
    EXPECT_EQ(s.begin, expect);
    EXPECT_GT(s.count(), 0u);
    expect = s.end;
  }
  EXPECT_EQ(expect, records.size());
}

TEST_P(SegmenterProperty, SegmentSizesRespectBounds) {
  const SegmentParams p;
  const auto records = randomRecords(GetParam(), 5000);
  const auto segments = segmentRecords(records, p);
  for (size_t i = 0; i < segments.size(); ++i) {
    uint64_t bytes = 0;
    for (size_t j = segments[i].begin; j < segments[i].end; ++j)
      bytes += records[j].size;
    EXPECT_LE(bytes, p.maxBytes);
    if (i + 1 < segments.size()) {
      // Non-final segments end either at the fingerprint pattern (size >=
      // min) or because the next chunk would overflow maxBytes.
      const bool atPattern =
          bytes >= p.minBytes &&
          records[segments[i].end - 1].fp % p.divisor() == p.divisor() - 1;
      const bool nextOverflows =
          bytes + records[segments[i].end].size > p.maxBytes;
      EXPECT_TRUE(atPattern || nextOverflows);
    }
  }
}

TEST_P(SegmenterProperty, AverageSegmentSizeInRegime) {
  const SegmentParams p;
  const auto records = randomRecords(GetParam(), 20'000);
  const auto segments = segmentRecords(records, p);
  const double avgBytes =
      8192.0 * static_cast<double>(records.size()) /
      static_cast<double>(segments.size());
  EXPECT_GT(avgBytes, p.minBytes);
  EXPECT_LT(avgBytes, p.maxBytes);
}

TEST_P(SegmenterProperty, Deterministic) {
  const auto records = randomRecords(GetParam(), 3000);
  EXPECT_EQ(segmentRecords(records, SegmentParams{}),
            segmentRecords(records, SegmentParams{}));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmenterProperty,
                         ::testing::Values(1, 7, 42, 1234));

TEST(Segmenter, MinFingerprintOfSegment) {
  const std::vector<ChunkRecord> records{{5, 1}, {3, 1}, {9, 1}, {1, 1}};
  EXPECT_EQ(segmentMinFingerprint(records, {0, 4}), 1u);
  EXPECT_EQ(segmentMinFingerprint(records, {0, 3}), 3u);
  EXPECT_EQ(segmentMinFingerprint(records, {2, 3}), 9u);
}

TEST(Segmenter, MinFingerprintRejectsEmptySegment) {
  const std::vector<ChunkRecord> records{{5, 1}};
  EXPECT_THROW(segmentMinFingerprint(records, {1, 1}), std::logic_error);
  EXPECT_THROW(segmentMinFingerprint(records, {0, 2}), std::logic_error);
}

TEST(Segmenter, DivisorDerivedFromAverageSizes) {
  SegmentParams p;
  p.avgBytes = 1024 * 1024;
  p.avgChunkBytes = 8192;
  EXPECT_EQ(p.divisor(), 128u);
  p.avgChunkBytes = 4096;
  EXPECT_EQ(p.divisor(), 256u);
}

TEST(Segmenter, BoundaryPlacedAtPatternMatch) {
  // Craft records: fp % divisor == divisor-1 exactly at index 80 with
  // everything sized so the min-bytes constraint is satisfied there.
  SegmentParams p;
  p.minBytes = 10 * 8192;
  p.avgBytes = 64 * 8192;
  p.maxBytes = 1000 * 8192;
  p.avgChunkBytes = 8192;
  const uint64_t divisor = p.divisor();
  std::vector<ChunkRecord> records(200);
  for (size_t i = 0; i < records.size(); ++i) {
    records[i] = {i == 80 ? divisor - 1 : divisor, 8192};  // only 80 matches
  }
  const auto segments = segmentRecords(records, p);
  ASSERT_GE(segments.size(), 2u);
  EXPECT_EQ(segments[0].end, 81u);  // boundary right after the match
}

TEST(Segmenter, RejectsInvalidParams) {
  SegmentParams p;
  p.minBytes = 0;
  EXPECT_THROW(segmentRecords(std::vector<ChunkRecord>{{1, 1}}, p),
               std::logic_error);
  SegmentParams q;
  q.minBytes = q.maxBytes + 1;
  EXPECT_THROW(segmentRecords(std::vector<ChunkRecord>{{1, 1}}, q),
               std::logic_error);
}

TEST(SegmentParams, ValidateRejectsEachBadFieldWithInvalidArgument) {
  EXPECT_NO_THROW(SegmentParams{}.validate());
  {
    SegmentParams p;
    p.minBytes = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    SegmentParams p;
    p.avgChunkBytes = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    SegmentParams p;
    p.minBytes = p.avgBytes + 1;  // min > avg
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    SegmentParams p;
    p.avgBytes = p.maxBytes + 1;  // avg > max
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
}

TEST(StreamSegmenter, RejectsInvalidParamsAtConstruction) {
  SegmentParams p;
  p.minBytes = 0;
  EXPECT_THROW(StreamSegmenter(p, [](const Segment&) {}),
               std::invalid_argument);
}

TEST_P(SegmenterProperty, StreamMatchesBatchRecordByRecord) {
  const auto records = randomRecords(GetParam(), 5000);
  const auto batch = segmentRecords(records, SegmentParams{});

  std::vector<Segment> streamed;
  StreamSegmenter segmenter(
      SegmentParams{},
      [&streamed](const Segment& seg) { streamed.push_back(seg); });
  for (const auto& r : records) segmenter.push(r);
  segmenter.finish();

  EXPECT_EQ(streamed, batch);
  EXPECT_EQ(segmenter.recordCount(), records.size());
}

TEST(StreamSegmenter, ClosesBeforeAdmittingAnOverflowingRecord) {
  SegmentParams p;
  p.minBytes = 100;
  p.avgBytes = 200;
  p.maxBytes = 300;
  p.avgChunkBytes = 100;
  // fp 0 never matches the pattern, so only the overflow rule fires.
  std::vector<Segment> segments;
  StreamSegmenter segmenter(
      p, [&segments](const Segment& seg) { segments.push_back(seg); });
  segmenter.push({0, 250});
  EXPECT_TRUE(segments.empty());
  segmenter.push({0, 250});  // 250 + 250 > 300: closes [0,1) first
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0], (Segment{0, 1}));
  segmenter.finish();
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[1], (Segment{1, 2}));
}

TEST(StreamSegmenter, PatternCloseAfterOverflowCloseInOnePush) {
  SegmentParams p;
  p.minBytes = 100;
  p.avgBytes = 100;
  p.maxBytes = 300;
  p.avgChunkBytes = 100;  // divisor 1: every fp matches the pattern
  std::vector<Segment> segments;
  StreamSegmenter segmenter(
      p, [&segments](const Segment& seg) { segments.push_back(seg); });
  segmenter.push({0, 99});  // below minBytes: pattern cannot fire
  EXPECT_TRUE(segments.empty());
  // Overflows (99+250 > 300) -> closes [0,1); then 250 >= minBytes and the
  // pattern matches -> closes [1,2). Two segments from one push.
  segmenter.push({0, 250});
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0], (Segment{0, 1}));
  EXPECT_EQ(segments[1], (Segment{1, 2}));
  segmenter.finish();
  EXPECT_EQ(segments.size(), 2u);  // nothing left open
}

class ScrambleOrderProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScrambleOrderProperty, IsPermutationWithinSegments) {
  Rng rng(GetParam());
  const size_t count = 100;
  const std::vector<Segment> segments = {{0, 30}, {30, 31}, {31, 100}};
  const std::vector<size_t> order = scrambleOrder(count, segments, rng);
  ASSERT_EQ(order.size(), count);
  // Permutation overall.
  std::vector<size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < count; ++i) EXPECT_EQ(sorted[i], i);
  // Each segment's indices stay within the segment.
  size_t pos = 0;
  for (const Segment& seg : segments) {
    for (size_t i = seg.begin; i < seg.end; ++i, ++pos) {
      EXPECT_GE(order[pos], seg.begin);
      EXPECT_LT(order[pos], seg.end);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScrambleOrderProperty,
                         ::testing::Values(1, 2, 3, 99));

// Algorithm 5 replayed without a deque: in each segment, the records with
// odd draws come first in reverse draw order, then the even ones in order.
TEST(ScrambleOrder, OddDrawsPrependEvenDrawsAppend) {
  const std::vector<Segment> segments = {{0, 7}, {7, 8}, {8, 20}};
  Rng rng(5);
  const std::vector<size_t> order = scrambleOrder(20, segments, rng);
  Rng replay(5);
  std::vector<size_t> expected;
  for (const Segment& seg : segments) {
    std::vector<size_t> front, back;
    for (size_t i = seg.begin; i < seg.end; ++i)
      (replay.next() & 1 ? front : back).push_back(i);
    expected.insert(expected.end(), front.rbegin(), front.rend());
    expected.insert(expected.end(), back.begin(), back.end());
  }
  EXPECT_EQ(order, expected);
  EXPECT_EQ(rng.next(), replay.next()) << "one draw per record";
}

TEST(ScrambleOrder, SingletonSegmentUnchanged) {
  Rng rng(1);
  const std::vector<Segment> segments = {{0, 1}};
  EXPECT_EQ(scrambleOrder(1, segments, rng), std::vector<size_t>{0});
}

TEST(ScrambleOrder, EmptyStreamGivesEmptyOrder) {
  Rng rng(3);
  EXPECT_TRUE(scrambleOrder(0, {}, rng).empty());
  EXPECT_EQ(rng.next(), Rng(3).next()) << "no draw without records";
}

// The trace-level defence and the client rebuild the order from the seed:
// the same seed must give the same order, another seed another order.
TEST(ScrambleOrder, SameSeedSameOrder) {
  const std::vector<Segment> segments = {{0, 60}};
  Rng first(9), second(9), other(10);
  const std::vector<size_t> order = scrambleOrder(60, segments, first);
  EXPECT_EQ(scrambleOrder(60, segments, second), order);
  EXPECT_NE(scrambleOrder(60, segments, other), order);
}

TEST(ScrambleOrder, RejectsSegmentPastRecordCount) {
  Rng rng(1);
  const std::vector<Segment> segments = {{0, 3}};
  EXPECT_THROW(scrambleOrder(2, segments, rng), std::logic_error);
}

TEST(ScrambleOrder, RejectsNonCoveringSegments) {
  Rng rng(1);
  const std::vector<Segment> segments = {{0, 2}};
  EXPECT_THROW(scrambleOrder(5, segments, rng), std::logic_error);
}

TEST(ScrambleOrder, RejectsNonConsecutiveSegments) {
  // Overlapping: the lengths sum to the record count, but records 1 and 2
  // would appear twice and records 3 and 4 never.
  Rng rng(1);
  const std::vector<Segment> overlapping = {{0, 3}, {1, 3}};
  EXPECT_THROW(scrambleOrder(5, overlapping, rng), std::logic_error);
  const std::vector<Segment> gapped = {{0, 2}, {3, 5}, {2, 3}};
  EXPECT_THROW(scrambleOrder(5, gapped, rng), std::logic_error);
  const std::vector<Segment> notFromZero = {{1, 5}, {0, 1}};
  EXPECT_THROW(scrambleOrder(5, notFromZero, rng), std::logic_error);
}

}  // namespace
}  // namespace freqdedup
