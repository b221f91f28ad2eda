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
  const Source source{&stream, side};
  return std::move(buildAll({&source, 1}, options).front());
}

std::vector<NeighborIndex> NeighborIndex::buildAll(
    std::span<const Source> sources, const NeighborBuildOptions& options) {
  // A counting-sort CSR build. Each build's plan splits its keys into
  // ranges, one per worker, as in FrequencyIndex::build. Every phase below
  // runs the ranges of all builds as the tasks of one parallelFor: a range
  // scans the whole pair stream to count its keys' pairs, scans it again
  // to scatter their values into the keys' rows, and then sorts, run-length
  // encodes and ranks those rows. Ranges split keys, never rows, so the
  // CSR is the same at every worker count. Buffers are allocated here,
  // between phases, so the tasks only compute.
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
  struct Task {
    size_t build;
    ChunkId lo, hi;  // the key range
  };
  std::vector<NeighborIndex> indexes(sources.size());
  std::vector<Build> builds;
  builds.reserve(sources.size());
  std::vector<Task> tasks;
  for (size_t b = 0; b < sources.size(); ++b) {
    const ChunkStreamIndex& stream = *sources[b].stream;
    const size_t unique = stream.uniqueCount();
    const size_t records = stream.recordCount();
    const size_t pairs = records < 2 ? 0 : records - 1;
    NeighborIndex& index = indexes[b];
    index.offsets_ = std::make_unique_for_overwrite<uint32_t[]>(unique + 1);
    index.offsets_[0] = 0;
    builds.push_back({&stream.ids(), sources[b].side == Side::kLeft, pairs,
                      unique, nullptr, nullptr});
    if (pairs == 0) {
      std::fill_n(index.offsets_.get(), unique + 1, 0);
      continue;
    }
    const PlanChoice plan = chooseNeighborPlan(pairs, options.threads,
                                               hardwareThreads(), options.plan);
    index.stats_.plan = plan.parallel() ? "parallel" : "serial";
    index.stats_.shards = plan.workers;
    builds[b].rowPos = std::make_unique_for_overwrite<uint32_t[]>(unique + 1);
    builds[b].vals = std::make_unique_for_overwrite<ChunkId[]>(pairs);
    const size_t rangeSize = (unique + plan.workers - 1) / plan.workers;
    for (size_t r = 0; r < plan.workers; ++r) {
      const auto lo = static_cast<ChunkId>(std::min(unique, r * rangeSize));
      const auto hi =
          static_cast<ChunkId>(std::min(unique, (r + 1) * rangeSize));
      if (lo < hi) tasks.push_back({b, lo, hi});
    }
  }
  const auto runTasks = [&](const std::function<void(const Task&)>& phase) {
    parallelFor(options.pool, options.threads, tasks.size(),
                [&](size_t begin, size_t end) {
                  for (size_t t = begin; t < end; ++t) phase(tasks[t]);
                });
  };

  // Counting plus an inclusive prefix sum leaves each row's end in rowPos;
  // the backward scatter decrements it to the row's start and keeps each
  // row's values in stream order.
  runTasks([&](const Task& t) {
    Build& b = builds[t.build];
    std::fill(b.rowPos.get() + t.lo, b.rowPos.get() + t.hi, 0);
    for (size_t j = 0; j < b.pairs; ++j) {
      const ChunkId key = b.keyOf(j);
      if (key >= t.lo && key < t.hi) ++b.rowPos[key];
    }
  });
  for (Build& b : builds) {
    if (b.pairs == 0) continue;
    for (size_t id = 1; id < b.unique; ++id) b.rowPos[id] += b.rowPos[id - 1];
    b.rowPos[b.unique] = static_cast<uint32_t>(b.pairs);
  }
  runTasks([&](const Task& t) {
    Build& b = builds[t.build];
    for (size_t j = b.pairs; j-- > 0;) {
      const ChunkId key = b.keyOf(j);
      if (key >= t.lo && key < t.hi) b.vals[--b.rowPos[key]] = b.valOf(j);
    }
  });

  // Sort each row and count its distinct neighbors into offsets_[id + 1];
  // the prefix sum then sizes the entries array exactly.
  runTasks([&](const Task& t) {
    Build& b = builds[t.build];
    for (ChunkId id = t.lo; id < t.hi; ++id) {
      ChunkId* row = b.vals.get() + b.rowPos[id];
      ChunkId* rowEnd = b.vals.get() + b.rowPos[id + 1];
      std::sort(row, rowEnd);
      uint32_t distinct = 0;
      for (const ChunkId* v = row; v != rowEnd; ++v) {
        distinct += v == row || *v != v[-1];
      }
      indexes[t.build].offsets_[id + 1] = distinct;
    }
  });
  for (size_t i = 0; i < indexes.size(); ++i) {
    NeighborIndex& index = indexes[i];
    const size_t unique = builds[i].unique;
    for (size_t id = 1; id <= unique; ++id)
      index.offsets_[id] += index.offsets_[id - 1];
    index.entryCount_ = index.offsets_[unique];
    index.entries_ =
        std::make_unique_for_overwrite<Entry[]>(index.entryCount_);
  }

  // Run-length encode each sorted row into its CSR slice and rank it.
  runTasks([&](const Task& t) {
    const Build& b = builds[t.build];
    NeighborIndex& index = indexes[t.build];
    const RowRank rank{sources[t.build].stream};
    for (ChunkId id = t.lo; id < t.hi; ++id) {
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
  for (const NeighborIndex& index : indexes) reportBuildStats(index.stats_);
  return indexes;
}

}  // namespace freqdedup::analysis
