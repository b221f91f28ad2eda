// The COUNT step of the attacks in columnar form: per-ChunkId occurrence
// counts plus the deterministic rankings frequency analysis pairs by.
//
// Counting parallelizes as shard-private sub-range counting: each worker
// owns a disjoint ID range of the single output column and rescans the
// stream for its range. No per-worker partial columns exist (the old
// slice-and-reduce plan allocated slices x unique x 4 bytes — ruinous at
// 10^8 unique), so the parallel plan allocates nothing beyond the output.
// Integer addition commutes, so the counts are bit-identical at every
// thread count and plan.
//
// Plan selection is the plan.h cost model (stream size, unique count,
// real core count) instead of a fixed record-count threshold.
//
// Rankings order IDs by (count desc, fingerprint asc) — the same tie-break
// the legacy map-based sortByFrequency used, so rank pairing over these
// arrays reproduces the legacy attacks exactly.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "analysis/plan.h"
#include "analysis/stream_index.h"

namespace freqdedup {
class ThreadPool;
}

namespace freqdedup::analysis {

struct FrequencyBuildOptions {
  uint32_t threads = 1;
  /// Optional caller-owned worker pool (instead of spawning per call).
  ThreadPool* pool = nullptr;
  /// kAuto: cost model; kSerial/kParallel: forced (tests, benches).
  ComputePlan plan = ComputePlan::kAuto;
};

struct FrequencyIndex {
  /// Occurrence count of every ChunkId of the stream.
  std::vector<uint64_t> counts;

  /// What the build did ("serial" or "parallel" plan).
  AnalysisBuildStats stats;

  static FrequencyIndex build(const ChunkStreamIndex& stream,
                              const FrequencyBuildOptions& options);

  /// One index per stream, built side by side: the key ranges of every
  /// build are the tasks of one parallelFor, so builds on the serial plan
  /// run one per worker. This thread allocates every output, and the tasks
  /// only count (see neighbor_index.h on why). Each index is the one
  /// build(*stream, options) returns.
  static std::vector<FrequencyIndex> buildAll(
      std::span<const ChunkStreamIndex* const> streams,
      const FrequencyBuildOptions& options);

  /// Compatibility entry point. `parallelThreshold` 0 forces the parallel
  /// plan (tests and benches that must measure it on any machine); any other
  /// value defers to the cost model.
  static FrequencyIndex build(const ChunkStreamIndex& stream, uint32_t threads,
                              size_t parallelThreshold = 1,
                              ThreadPool* pool = nullptr);
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
