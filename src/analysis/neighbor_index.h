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
#pragma once

#include <cstdint>
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

  struct Entry {
    ChunkId id = 0;       // the neighboring chunk
    uint32_t count = 0;   // co-occurrence count
  };

  NeighborIndex() = default;

  static NeighborIndex build(const ChunkStreamIndex& stream, Side side,
                             const NeighborBuildOptions& options);

  /// Compatibility entry point: cost-model plan.
  static NeighborIndex build(const ChunkStreamIndex& stream, Side side,
                             uint32_t threads, ThreadPool* pool = nullptr);

  /// The neighbor list of `id`, ranked by (count desc, fingerprint asc).
  [[nodiscard]] std::span<const Entry> neighbors(ChunkId id) const {
    return {entries_.data() + offsets_[id],
            entries_.data() + offsets_[id + 1]};
  }

  [[nodiscard]] size_t entryCount() const { return entries_.size(); }

  /// What the build did: plan ("serial"/"parallel") and shard count.
  [[nodiscard]] const AnalysisBuildStats& buildStats() const { return stats_; }

 private:
  std::vector<uint32_t> offsets_;  // uniqueCount + 1
  std::vector<Entry> entries_;
  AnalysisBuildStats stats_;
};

}  // namespace freqdedup::analysis
