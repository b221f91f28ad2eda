// The COUNT step of the attacks in columnar form: per-ChunkId occurrence
// counts plus the deterministic rankings frequency analysis pairs by.
//
// A count is one pass over the stream's id column. Independent streams count
// side by side, one pool task each (FrequencyIndex::buildAll); one count is
// never split.
//
// Rankings order IDs by (count desc, fingerprint asc) — the same tie-break
// the legacy map-based sortByFrequency used, so rank pairing over these
// arrays reproduces the legacy attacks exactly.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "analysis/stream_index.h"

namespace freqdedup {
class ThreadPool;
}

namespace freqdedup::analysis {

struct FrequencyIndex {
  /// Occurrence count of every ChunkId of the stream.
  std::vector<uint64_t> counts;

  /// buildAll of one stream, inline on this thread.
  static FrequencyIndex build(const ChunkStreamIndex& stream);

  /// One index per stream, built side by side: one task per stream on
  /// `pool`, or inline on this thread when `pool` is null. This thread
  /// allocates every output, and the tasks only count (see neighbor_index.h
  /// on why). Call it from outside the pool's tasks: it blocks until its
  /// tasks are done.
  static std::vector<FrequencyIndex> buildAll(
      std::span<const ChunkStreamIndex* const> streams, ThreadPool* pool);
};

/// The ranking order every frequency analysis consumes: count desc, then
/// fingerprint asc (never internal IDs — see stream_index.h). The
/// comparator of rankBySizeClass's per-class sorts and of
/// rankByFrequency's short prefixes.
struct FrequencyOrder {
  const FrequencyIndex* freq;
  const ChunkStreamIndex* stream;

  bool operator()(ChunkId a, ChunkId b) const {
    if (freq->counts[a] != freq->counts[b])
      return freq->counts[a] > freq->counts[b];
    return stream->fpOf(a) < stream->fpOf(b);
  }
};

/// Top-k IDs by (count desc, fingerprint asc). k is capped at the unique
/// count. Linear in the unique count: an LSD radix sort over 16-bit digits,
/// by fingerprint and then stably by count, that skips every digit the
/// keys share, and then keeps the first k. A prefix of at most 1/16 of the
/// IDs (the locality attack's seeds) takes a heap select instead.
std::vector<ChunkId> rankByFrequency(const FrequencyIndex& freq,
                                     const ChunkStreamIndex& stream,
                                     size_t k);

/// All IDs of a stream bucketed by size class: classes ascending, with one
/// ClassRange per distinct size class. This is the columnar form of the
/// Algorithm-3 CLASSIFY step (class = ceil(size / 16), see sizeClassOf in
/// common/fingerprint.h).
struct ClassRange {
  uint32_t sizeClass = 0;
  uint32_t begin = 0;  // index range into SizeClassRanking::ids
  uint32_t end = 0;
};

struct SizeClassRanking {
  std::vector<ChunkId> ids;
  std::vector<ClassRange> classes;  // ascending by sizeClass
};

/// Ranks within each size class by (count desc, fingerprint asc). Only the
/// first min(perClassK, class size) IDs of each class run are ranked; the
/// remainder of a run is present but unordered (callers consume the ranked
/// prefix — Algorithm 3 pairs at most top-x per class). The default ranks
/// every class fully. Bucketing is a counting sort, stable in id, over the
/// classes that occur, so it is linear in the unique count and allocates
/// by the number of classes, never by a class value.
SizeClassRanking rankBySizeClass(
    const FrequencyIndex& freq, const ChunkStreamIndex& stream,
    size_t perClassK = std::numeric_limits<size_t>::max());

}  // namespace freqdedup::analysis
