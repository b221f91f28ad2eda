// Variable-size segmentation over a chunk stream.
//
// Segments group adjacent chunks into ~1 MB units; they are the scope of both
// MinHash encryption (Algorithm 4) and scrambling (Algorithm 5, scrambleOrder
// below: the one implementation that the client and the trace-level defence
// both run). The boundary rule follows Sparse Indexing [Lillibridge et al.,
// FAST'09], as prescribed in Section 7.1 of the paper: a boundary is placed
// after a chunk when
//   (i) the running segment size is at least minBytes AND the chunk's
//       fingerprint modulo a divisor equals divisor-1, or
//  (ii) including the next chunk would exceed maxBytes.
// The divisor controls the average segment size: with avgChunkBytes-sized
// chunks, divisor = avgBytes / avgChunkBytes gives segments of ~avgBytes.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/fingerprint.h"
#include "common/rng.h"

namespace freqdedup {

struct SegmentParams {
  uint64_t minBytes = 512 * 1024;
  uint64_t avgBytes = 1024 * 1024;
  uint64_t maxBytes = 2 * 1024 * 1024;
  /// Expected average chunk size of the stream; used to derive the divisor.
  uint64_t avgChunkBytes = 8192;

  [[nodiscard]] uint64_t divisor() const {
    const uint64_t d = avgBytes / avgChunkBytes;
    return d == 0 ? 1 : d;
  }

  /// Throws std::invalid_argument on out-of-range parameters (zero sizes or
  /// minBytes <= avgBytes <= maxBytes violated).
  void validate() const;
};

/// A segment as a half-open range [begin, end) of record indices.
struct Segment {
  size_t begin = 0;
  size_t end = 0;

  [[nodiscard]] size_t count() const { return end - begin; }
  friend bool operator==(const Segment&, const Segment&) = default;
};

/// Receives each completed segment. Segments arrive in order and exhaustively
/// cover the pushed records.
using SegmentSink = std::function<void(const Segment&)>;

/// Incremental segmentation over an append-only record stream.
///
/// Applies the same Sparse-Indexing boundary rule as segmentRecords() (which
/// is implemented on top of this class), so pushing records one at a time
/// yields exactly the batch segmentation. A single push() can emit up to two
/// segments: the open segment is closed *before* admitting a record that
/// would overflow maxBytes, and *after* admitting a record that matches the
/// fingerprint pattern. finish() closes the final segment; record indices
/// keep counting across finish() so one segmenter can span multiple flushes.
class StreamSegmenter {
 public:
  /// Throws std::invalid_argument on invalid params (see
  /// SegmentParams::validate).
  StreamSegmenter(const SegmentParams& params, SegmentSink sink);

  void push(const ChunkRecord& record);

  /// Closes the open segment, if any.
  void finish();

  /// Total records pushed so far (== end of the last emitted segment once
  /// finish() has run).
  [[nodiscard]] size_t recordCount() const { return next_; }

 private:
  void close();

  SegmentParams params_;
  uint64_t divisor_;
  SegmentSink sink_;
  size_t begin_ = 0;   // first record of the open segment
  size_t next_ = 0;    // index the next pushed record will get
  uint64_t acc_ = 0;   // bytes accumulated in the open segment
};

/// Splits `records` into consecutive, exhaustive segments.
std::vector<Segment> segmentRecords(std::span<const ChunkRecord> records,
                                    const SegmentParams& params = {});

/// Minimum fingerprint of a segment (Algorithm 4, line 5). Requires a
/// non-empty segment.
Fp segmentMinFingerprint(std::span<const ChunkRecord> records,
                         const Segment& seg);

/// Algorithm 5's per-segment scramble order: for each record of a segment,
/// in order, one `rng` draw decides whether it is prepended (odd) or
/// appended (even) to the scrambled segment. Returns a permutation of
/// [0, recordCount) as indices into the original order. The segments must
/// be consecutive from record 0, as segmentRecords() returns them, so each
/// keeps its own range of output positions. Throws std::logic_error unless
/// they are consecutive from record 0 and cover every record.
std::vector<size_t> scrambleOrder(size_t recordCount,
                                  std::span<const Segment> segments, Rng& rng);

}  // namespace freqdedup
