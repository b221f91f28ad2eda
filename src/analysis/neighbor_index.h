// CSR-style co-occurrence index: for every chunk of a stream, the counts of
// the chunks that directly precede (left) or follow (right) it.
//
// This replaces the legacy NeighborTable (unordered_map of unordered_maps)
// with two flat columns per direction — offsets[id] .. offsets[id+1] slices
// an entries array of (neighbor id, count) pairs. Each slice is pre-ranked
// by (count desc, neighbor fingerprint asc), which is exactly the order a
// neighbor-table frequency analysis consumes: the locality walk's per-pair
// analysis degenerates to zipping two prefixes, moving all ranking work into
// the parallel build.
//
// The build is a counting-sort CSR build, its plan chosen by the plan.h
// cost model: each worker owns a key range, counts its keys' pairs, then
// scatters their neighbor IDs in stream order into one value column (4
// bytes per pair). Each row is then sorted, run-length encoded and ranked,
// and the entries array is sized exactly from the rows' distinct counts.
// One worker is the "serial" plan, several the "parallel" one; every row is
// sorted before it is encoded, so the index is bit-identical at every
// thread count.
//
// buildAll builds several indexes side by side: each phase runs the key
// ranges of every build as the tasks of one parallelFor, so builds on the
// serial plan run one per worker. No task waits on the pool: parallelFor
// blocks its caller, so tasks that did could hold every worker and
// deadlock it. The calling thread allocates every buffer between phases
// and the tasks only compute, so no worker's malloc arena keeps a build's
// freed buffers resident.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "analysis/plan.h"
#include "analysis/stream_index.h"

namespace freqdedup {
class ThreadPool;
}

namespace freqdedup::analysis {

struct NeighborBuildOptions {
  uint32_t threads = 1;
  /// Optional caller-owned worker pool (instead of spawning per call).
  ThreadPool* pool = nullptr;
  /// kAuto: cost model; kSerial/kParallel: forced (tests, benches).
  ComputePlan plan = ComputePlan::kAuto;
};

class NeighborIndex {
 public:
  enum class Side {
    kLeft,   // neighbors(x) = chunks seen directly before occurrences of x
    kRight,  // neighbors(x) = chunks seen directly after occurrences of x
  };

  /// Trivially constructible, so the build can allocate the entries
  /// array without a zeroing pass it would overwrite anyway.
  struct Entry {
    ChunkId id;      // the neighboring chunk
    uint32_t count;  // co-occurrence count
  };

  NeighborIndex() = default;

  static NeighborIndex build(const ChunkStreamIndex& stream, Side side,
                             const NeighborBuildOptions& options);

  /// One index of a buildAll call.
  struct Source {
    const ChunkStreamIndex* stream;
    Side side;
  };

  /// One index per source, built side by side (see above). Each index is
  /// the one build(*source.stream, source.side, options) returns.
  static std::vector<NeighborIndex> buildAll(
      std::span<const Source> sources, const NeighborBuildOptions& options);

  /// Compatibility entry point: cost-model plan.
  static NeighborIndex build(const ChunkStreamIndex& stream, Side side,
                             uint32_t threads, ThreadPool* pool = nullptr);

  /// The neighbor list of `id`, ranked by (count desc, fingerprint asc).
  [[nodiscard]] std::span<const Entry> neighbors(ChunkId id) const {
    return {entries_.get() + offsets_[id], entries_.get() + offsets_[id + 1]};
  }

  [[nodiscard]] size_t entryCount() const { return entryCount_; }

  /// What the build did: plan ("serial"/"parallel") and shard count.
  [[nodiscard]] const AnalysisBuildStats& buildStats() const { return stats_; }

 private:
  // Allocated uninitialized by the calling thread; the build's tasks write
  // every slot, so the zeroing and first page touch run in parallel.
  std::unique_ptr<uint32_t[]> offsets_;  // uniqueCount + 1
  std::unique_ptr<Entry[]> entries_;
  size_t entryCount_ = 0;
  AnalysisBuildStats stats_;
};

}  // namespace freqdedup::analysis
