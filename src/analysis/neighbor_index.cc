#include "analysis/neighbor_index.h"

#include <algorithm>
#include <functional>

#include "pipeline/thread_pool.h"

namespace freqdedup::analysis {

namespace {

/// Row ranking order: count desc, neighbor fingerprint asc — the order
/// every neighbor-table frequency analysis consumes.
struct RowRank {
  const ChunkStreamIndex* stream;
  bool operator()(const NeighborIndex::Entry& a,
                  const NeighborIndex::Entry& b) const {
    if (a.count != b.count) return a.count > b.count;
    return stream->fpOf(a.id) < stream->fpOf(b.id);
  }
};

}  // namespace

NeighborIndex NeighborIndex::build(const ChunkStreamIndex& stream,
                                   Side side) {
  const Source source{&stream, side};
  return std::move(buildAll({&source, 1}, nullptr).front());
}

std::vector<NeighborIndex> NeighborIndex::buildAll(
    std::span<const Source> sources, ThreadPool* pool) {
  // A counting-sort CSR build per source, in two phases of one task per
  // build. The first counts each key's pairs, scatters their values into
  // the keys' rows, sorts each row and counts its distinct neighbors; the
  // second run-length encodes and ranks the rows. Buffers are allocated
  // here, before and between the phases, so the tasks only compute.
  struct Build {
    const std::vector<ChunkId>* ids;
    bool keyIsLater;  // the left table keys each pair by its later chunk
    size_t pairs;
    size_t unique;
    // rowPos[id] ends as the start of id's row in `vals`, and rowPos[unique]
    // as the pair count. Both, like the index's own arrays, are allocated
    // uninitialized: every slot is written by a task before it is read.
    std::unique_ptr<uint32_t[]> rowPos;
    std::unique_ptr<ChunkId[]> vals;

    // Pair j of the stream, j in [0, pairs): the adjacent occurrence
    // (ids[j], ids[j+1]).
    ChunkId keyOf(size_t j) const {
      return keyIsLater ? (*ids)[j + 1] : (*ids)[j];
    }
    ChunkId valOf(size_t j) const {
      return keyIsLater ? (*ids)[j] : (*ids)[j + 1];
    }
  };
  std::vector<NeighborIndex> indexes(sources.size());
  std::vector<Build> builds;
  builds.reserve(sources.size());
  for (size_t b = 0; b < sources.size(); ++b) {
    const ChunkStreamIndex& stream = *sources[b].stream;
    const size_t unique = stream.uniqueCount();
    const size_t records = stream.recordCount();
    const size_t pairs = records < 2 ? 0 : records - 1;
    indexes[b].offsets_ =
        std::make_unique_for_overwrite<uint32_t[]>(unique + 1);
    builds.push_back({&stream.ids(), sources[b].side == Side::kLeft, pairs,
                      unique,
                      std::make_unique_for_overwrite<uint32_t[]>(unique + 1),
                      std::make_unique_for_overwrite<ChunkId[]>(pairs)});
  }
  const auto runPhase = [&](const std::function<void(size_t)>& phase) {
    parallelFor(pool, builds.size(), [&](size_t begin, size_t end) {
      for (size_t b = begin; b < end; ++b) phase(b);
    });
  };

  runPhase([&](size_t build) {
    Build& b = builds[build];
    uint32_t* rowPos = b.rowPos.get();
    uint32_t* offsets = indexes[build].offsets_.get();
    // Counting plus an inclusive prefix sum leaves each row's end in
    // rowPos; the backward scatter decrements it to the row's start and
    // keeps each row's values in stream order.
    std::fill_n(rowPos, b.unique, 0);
    for (size_t j = 0; j < b.pairs; ++j) ++rowPos[b.keyOf(j)];
    for (size_t id = 1; id < b.unique; ++id) rowPos[id] += rowPos[id - 1];
    rowPos[b.unique] = static_cast<uint32_t>(b.pairs);
    for (size_t j = b.pairs; j-- > 0;)
      b.vals[--rowPos[b.keyOf(j)]] = b.valOf(j);

    // Sort each row and sum the rows' distinct neighbor counts into
    // offsets, which then size the entries array exactly.
    offsets[0] = 0;
    for (size_t id = 0; id < b.unique; ++id) {
      ChunkId* row = b.vals.get() + rowPos[id];
      ChunkId* rowEnd = b.vals.get() + rowPos[id + 1];
      std::sort(row, rowEnd);
      uint32_t distinct = 0;
      for (const ChunkId* v = row; v != rowEnd; ++v) {
        distinct += v == row || *v != v[-1];
      }
      offsets[id + 1] = offsets[id] + distinct;
    }
  });
  for (size_t i = 0; i < indexes.size(); ++i) {
    NeighborIndex& index = indexes[i];
    index.entryCount_ = index.offsets_[builds[i].unique];
    index.entries_ =
        std::make_unique_for_overwrite<Entry[]>(index.entryCount_);
  }

  // Run-length encode each sorted row into its CSR slice and rank it.
  runPhase([&](size_t build) {
    const Build& b = builds[build];
    NeighborIndex& index = indexes[build];
    const RowRank rank{sources[build].stream};
    for (size_t id = 0; id < b.unique; ++id) {
      Entry* out = index.entries_.get() + index.offsets_[id];
      Entry* written = out;
      for (uint32_t i = b.rowPos[id]; i < b.rowPos[id + 1];) {
        uint32_t j = i + 1;
        while (j < b.rowPos[id + 1] && b.vals[j] == b.vals[i]) ++j;
        *written++ = {b.vals[i], j - i};
        i = j;
      }
      std::sort(out, written, rank);
    }
  });
  return indexes;
}

}  // namespace freqdedup::analysis
