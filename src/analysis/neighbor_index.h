// CSR-style co-occurrence index: for every chunk of a stream, the counts of
// the chunks that directly precede (left) or follow (right) it.
//
// This replaces the legacy NeighborTable (unordered_map of unordered_maps)
// with two flat columns per direction — offsets[id] .. offsets[id+1] slices
// an entries array of (neighbor id, count) pairs. Each slice is pre-ranked
// by (count desc, neighbor fingerprint asc), which is exactly the order a
// neighbor-table frequency analysis consumes: the locality walk's per-pair
// analysis degenerates to zipping two prefixes, moving all ranking work into
// the build.
//
// The build is a counting-sort CSR build: count each key's pairs, scatter
// their neighbor IDs in stream order into one value column (4 bytes per
// pair), then sort, run-length encode and rank each row. The entries array
// is sized exactly from the rows' distinct counts. Every row is sorted
// before it is encoded, so the index does not depend on the pool.
//
// buildAll builds several indexes side by side, one pool task per build in
// each of its two phases; one build is never split. The calling thread
// allocates every buffer before and between the phases, and the tasks only
// compute: memory a worker allocates stays resident in that worker's malloc
// arena after it is freed.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "analysis/stream_index.h"

namespace freqdedup {
class ThreadPool;
}

namespace freqdedup::analysis {

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

  /// One index of a buildAll call.
  struct Source {
    const ChunkStreamIndex* stream;
    Side side;
  };

  /// buildAll of one source, inline on this thread.
  static NeighborIndex build(const ChunkStreamIndex& stream, Side side);

  /// One index per source, built side by side: one task per source on
  /// `pool`, or inline on this thread when `pool` is null (see above).
  static std::vector<NeighborIndex> buildAll(std::span<const Source> sources,
                                             ThreadPool* pool);

  /// The neighbor list of `id`, ranked by (count desc, fingerprint asc).
  [[nodiscard]] std::span<const Entry> neighbors(ChunkId id) const {
    return {entries_.get() + offsets_[id], entries_.get() + offsets_[id + 1]};
  }

  [[nodiscard]] size_t entryCount() const { return entryCount_; }

 private:
  // Allocated uninitialized by the calling thread; the build's tasks write
  // every slot, so the zeroing and first page touch run on the workers.
  std::unique_ptr<uint32_t[]> offsets_;  // uniqueCount + 1
  std::unique_ptr<Entry[]> entries_;
  size_t entryCount_ = 0;
};

}  // namespace freqdedup::analysis
