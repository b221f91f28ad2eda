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

NeighborIndex NeighborIndex::build(const ChunkStreamIndex& stream, Side side,
                                   uint32_t threads, ThreadPool* pool) {
  NeighborBuildOptions options;
  options.threads = threads;
  options.pool = pool;
  return build(stream, side, options);
}

NeighborIndex NeighborIndex::build(const ChunkStreamIndex& stream, Side side,
                                   const NeighborBuildOptions& options) {
  const std::vector<ChunkId>& ids = stream.ids();
  const size_t unique = stream.uniqueCount();
  NeighborIndex index;
  index.offsets_.assign(unique + 1, 0);
  if (ids.size() < 2) {
    reportBuildStats(index.stats_);
    return index;
  }

  // Pair j of the stream, j in [0, n-1): the adjacent occurrence
  // (ids[j], ids[j+1]). For the right table the key is the earlier chunk;
  // for the left table the key is the later one.
  const size_t pairs = ids.size() - 1;
  const bool keyIsLater = side == Side::kLeft;

  const PlanChoice plan = chooseNeighborPlan(pairs, options.threads,
                                             hardwareThreads(), options.plan);

  const auto keyOf = [&](size_t j) {
    return keyIsLater ? ids[j + 1] : ids[j];
  };
  const auto valOf = [&](size_t j) {
    return keyIsLater ? ids[j] : ids[j + 1];
  };

  // A counting-sort CSR build. Worker r owns the key range [lo_r, hi_r), as
  // in FrequencyIndex::build, and scans the whole pair stream for it twice:
  // once to count each key's pairs, once to scatter their values into the
  // key's row. Each row is then sorted, run-length encoded and ranked.
  // Ranges split keys, never rows, so the CSR is the same at every worker
  // count.
  const auto run = [&](size_t n,
                       const std::function<void(size_t, size_t)>& body) {
    if (plan.workers <= 1) {
      body(0, n);
    } else {
      parallelFor(options.pool, options.threads, n, body);
    }
  };
  const size_t rangeSize = (unique + plan.workers - 1) / plan.workers;
  const auto forEachRange =
      [&](const std::function<void(ChunkId, ChunkId)>& scan) {
        run(plan.workers, [&](size_t begin, size_t end) {
          for (size_t r = begin; r < end; ++r) {
            scan(static_cast<ChunkId>(std::min(unique, r * rangeSize)),
                 static_cast<ChunkId>(std::min(unique, (r + 1) * rangeSize)));
          }
        });
      };

  // rowPos[id] ends as the start of id's row in `vals`, and rowPos[unique]
  // as the pair count. Counting plus an inclusive prefix sum leaves each
  // row's end there; the backward scatter decrements it to the row's start
  // and keeps each row's values in stream order.
  std::vector<uint32_t> rowPos(unique + 1, 0);
  std::vector<ChunkId> vals(pairs);
  forEachRange([&](ChunkId lo, ChunkId hi) {
    for (size_t j = 0; j < pairs; ++j) {
      const ChunkId key = keyOf(j);
      if (key >= lo && key < hi) ++rowPos[key];
    }
  });
  for (size_t id = 1; id < unique; ++id) rowPos[id] += rowPos[id - 1];
  rowPos[unique] = static_cast<uint32_t>(pairs);
  forEachRange([&](ChunkId lo, ChunkId hi) {
    for (size_t j = pairs; j-- > 0;) {
      const ChunkId key = keyOf(j);
      if (key >= lo && key < hi) vals[--rowPos[key]] = valOf(j);
    }
  });

  // Sort each row and count its distinct neighbors into offsets_[id + 1];
  // the prefix sum then sizes the entries array exactly.
  run(unique, [&](size_t begin, size_t end) {
    for (size_t id = begin; id < end; ++id) {
      ChunkId* row = vals.data() + rowPos[id];
      ChunkId* rowEnd = vals.data() + rowPos[id + 1];
      std::sort(row, rowEnd);
      uint32_t distinct = 0;
      for (const ChunkId* v = row; v != rowEnd; ++v) {
        distinct += v == row || *v != v[-1];
      }
      index.offsets_[id + 1] = distinct;
    }
  });
  for (size_t id = 0; id < unique; ++id) {
    index.offsets_[id + 1] += index.offsets_[id];
  }
  index.entries_.resize(index.offsets_[unique]);

  // Run-length encode each sorted row into its CSR slice and rank it.
  const RowRank rank{&stream};
  run(unique, [&](size_t begin, size_t end) {
    for (size_t id = begin; id < end; ++id) {
      Entry* out = index.entries_.data() + index.offsets_[id];
      Entry* written = out;
      for (uint32_t i = rowPos[id]; i < rowPos[id + 1];) {
        uint32_t j = i + 1;
        while (j < rowPos[id + 1] && vals[j] == vals[i]) ++j;
        *written++ = {vals[i], j - i};
        i = j;
      }
      std::sort(out, written, rank);
    }
  });
  index.stats_.plan = plan.parallel() ? "parallel" : "serial";
  index.stats_.shards = plan.workers;
  reportBuildStats(index.stats_);
  return index;
}

}  // namespace freqdedup::analysis
