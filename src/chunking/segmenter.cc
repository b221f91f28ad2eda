#include "chunking/segmenter.h"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <utility>

#include "common/check.h"

namespace freqdedup {

void SegmentParams::validate() const {
  if (minBytes == 0)
    throw std::invalid_argument("SegmentParams: minBytes must be > 0");
  if (avgChunkBytes == 0)
    throw std::invalid_argument("SegmentParams: avgChunkBytes must be > 0");
  if (minBytes > avgBytes || avgBytes > maxBytes)
    throw std::invalid_argument(
        "SegmentParams: require minBytes <= avgBytes <= maxBytes");
}

StreamSegmenter::StreamSegmenter(const SegmentParams& params, SegmentSink sink)
    : params_(params), sink_(std::move(sink)) {
  params_.validate();
  divisor_ = params_.divisor();
}

void StreamSegmenter::push(const ChunkRecord& record) {
  // Close before admitting a record that would overflow maxBytes — the
  // stream form of the batch rule's one-record lookahead.
  if (next_ > begin_ && acc_ + record.size > params_.maxBytes) close();
  acc_ += record.size;
  ++next_;
  if (acc_ >= params_.minBytes && (record.fp % divisor_) == divisor_ - 1)
    close();
}

void StreamSegmenter::finish() {
  if (next_ > begin_) close();
}

void StreamSegmenter::close() {
  sink_({begin_, next_});
  begin_ = next_;
  acc_ = 0;
}

std::vector<Segment> segmentRecords(std::span<const ChunkRecord> records,
                                    const SegmentParams& params) {
  std::vector<Segment> segments;
  StreamSegmenter segmenter(
      params, [&segments](const Segment& seg) { segments.push_back(seg); });
  for (const ChunkRecord& record : records) segmenter.push(record);
  segmenter.finish();
  return segments;
}

Fp segmentMinFingerprint(std::span<const ChunkRecord> records,
                         const Segment& seg) {
  FDD_CHECK_MSG(seg.begin < seg.end && seg.end <= records.size(),
                "empty or out-of-range segment");
  Fp minFp = records[seg.begin].fp;
  for (size_t i = seg.begin + 1; i < seg.end; ++i)
    minFp = std::min(minFp, records[i].fp);
  return minFp;
}

std::vector<size_t> scrambleOrder(size_t recordCount,
                                  std::span<const Segment> segments,
                                  Rng& rng) {
  std::vector<size_t> order;
  order.reserve(recordCount);
  std::deque<size_t> scrambled;
  for (const Segment& seg : segments) {
    // Each segment starts where the previous one ended, so the output is a
    // permutation: overlapping or gapped segments would repeat or drop
    // records.
    FDD_CHECK_MSG(seg.begin == order.size() && seg.begin <= seg.end,
                  "segments must be consecutive from record 0");
    FDD_CHECK(seg.end <= recordCount);
    scrambled.clear();
    for (size_t i = seg.begin; i < seg.end; ++i) {
      // Algorithm 5, lines 7-12: odd random number -> front, else back.
      if (rng.next() & 1) {
        scrambled.push_front(i);
      } else {
        scrambled.push_back(i);
      }
    }
    order.insert(order.end(), scrambled.begin(), scrambled.end());
  }
  FDD_CHECK_MSG(order.size() == recordCount,
                "segments must cover all records");
  return order;
}

}  // namespace freqdedup
