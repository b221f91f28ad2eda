#include "analysis/neighbor_index.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <mutex>

#include "common/check.h"
#include "pipeline/thread_pool.h"

namespace freqdedup::analysis {

namespace {

constexpr uint64_t pack(ChunkId key, ChunkId val) {
  return (static_cast<uint64_t>(key) << 32) | val;
}
constexpr ChunkId packedKey(uint64_t p) {
  return static_cast<ChunkId>(p >> 32);
}
constexpr ChunkId packedVal(uint64_t p) {
  return static_cast<ChunkId>(p & 0xFFFFFFFFu);
}

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

/// Streamed spill-file scatter: consumes (packed pair, count) word pairs in
/// (key asc, val asc) order, writes each key's row into the CSR entries and
/// ranks it when the row ends. Rows never straddle shards, so one Scatterer
/// per shard is race-free.
class Scatterer {
 public:
  Scatterer(const ChunkStreamIndex& stream, NeighborIndex::Entry* entries,
            const uint32_t* offsets)
      : rank_{&stream}, entries_(entries), offsets_(offsets) {}

  void consume(const uint64_t* words, size_t n) {
    FDD_CHECK(n % 2 == 0);
    for (size_t k = 0; k < n; k += 2) {
      const uint64_t pair = words[k];
      const auto count = static_cast<uint32_t>(words[k + 1]);
      const ChunkId key = packedKey(pair);
      if (!haveKey_ || key != curKey_) {
        finishRow();
        haveKey_ = true;
        curKey_ = key;
        out_ = entries_ + offsets_[key];
        written_ = 0;
      }
      out_[written_++] = {packedVal(pair), count};
    }
  }

  void finishRow() {
    if (haveKey_) std::sort(out_, out_ + written_, rank_);
  }

 private:
  RowRank rank_;
  NeighborIndex::Entry* entries_;
  const uint32_t* offsets_;
  bool haveKey_ = false;
  ChunkId curKey_ = 0;
  NeighborIndex::Entry* out_ = nullptr;
  size_t written_ = 0;
};

/// Groups shards into consecutive waves whose summed sizes fit `waveBudget`
/// and runs each wave's shards in parallel (a wave always admits at least
/// one shard, so oversized shards still process — the budget is a target,
/// not a hard limit).
void forEachShardWave(size_t shards, const std::vector<uint64_t>& sizes,
                      uint64_t waveBudget, ThreadPool* pool, uint32_t threads,
                      const std::function<void(size_t)>& processShard) {
  size_t s = 0;
  while (s < shards) {
    size_t e = s;
    uint64_t bytes = 0;
    while (e < shards && (e == s || bytes + sizes[e] <= waveBudget)) {
      bytes += sizes[e];
      ++e;
    }
    const size_t count = e - s;
    parallelFor(pool, threads, count, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) processShard(s + i);
    });
    s = e;
  }
}

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

  const NeighborPlanChoice plan =
      chooseNeighborPlan(pairs, unique, options.threads, hardwareThreads(),
                         options.budget, options.plan, options.spill);
  MemoryTracker tracker;

  const auto keyOf = [&](size_t j) {
    return keyIsLater ? ids[j + 1] : ids[j];
  };
  const auto valOf = [&](size_t j) {
    return keyIsLater ? ids[j] : ids[j + 1];
  };

  if (plan.spill) {
    // --- External-memory pipeline: partition -> spill -> per-shard
    // sort/RLE -> scatter. Peak intermediate memory is the partition
    // buffers plus one wave of shard loads, never the whole pair stream.
    const size_t shards = plan.shards;
    SpillDir dir(options.budget.spillDir);
    std::vector<std::unique_ptr<SpillFileWriter>> raw(shards);
    for (size_t s = 0; s < shards; ++s) {
      raw[s] = std::make_unique<SpillFileWriter>(
          dir.file("shard-" + std::to_string(s) + ".raw"));
    }
    const std::unique_ptr<std::mutex[]> locks(new std::mutex[shards]);

    // Phase 1: workers scan disjoint stream slices and stream each pair to
    // its key's shard file (shard = key % N) through small per-worker
    // buffers. File append order varies with scheduling; the per-shard sort
    // below canonicalizes it, so the CSR result does not.
    const size_t bufEntries =
        std::max<uint64_t>(plan.flushBufBytes / sizeof(uint64_t), 64);
    const size_t tasks = plan.workers;
    const size_t taskSize = (pairs + tasks - 1) / tasks;
    tracker.add(static_cast<uint64_t>(tasks) * shards * bufEntries *
                sizeof(uint64_t));
    parallelFor(options.pool, options.threads, tasks,
                [&](size_t begin, size_t end) {
                  std::vector<std::vector<uint64_t>> buf(shards);
                  for (auto& b : buf) b.reserve(bufEntries);
                  const auto flush = [&](size_t s) {
                    const std::lock_guard<std::mutex> lock(locks[s]);
                    raw[s]->write(buf[s].data(),
                                  buf[s].size() * sizeof(uint64_t));
                    buf[s].clear();
                  };
                  for (size_t t = begin; t < end; ++t) {
                    const size_t lo = t * taskSize;
                    const size_t hi = std::min(pairs, lo + taskSize);
                    for (size_t j = lo; j < hi; ++j) {
                      const size_t s = keyOf(j) % shards;
                      buf[s].push_back(pack(keyOf(j), valOf(j)));
                      if (buf[s].size() >= bufEntries) flush(s);
                    }
                  }
                  for (size_t s = 0; s < shards; ++s) {
                    if (!buf[s].empty()) flush(s);
                  }
                });
    tracker.sub(static_cast<uint64_t>(tasks) * shards * bufEntries *
                sizeof(uint64_t));

    std::vector<uint64_t> rawBytes(shards);
    for (size_t s = 0; s < shards; ++s) {
      raw[s]->finish();
      rawBytes[s] = raw[s]->bytesWritten();
      index.stats_.spillBytes += rawBytes[s];
    }

    // Phase 2: load one wave of shards at a time, sort, run-length encode
    // to (pair, count) spill files, and record per-ID degrees (shards own
    // disjoint ID sets, so the degree writes are race-free).
    std::vector<uint32_t> degree(unique, 0);
    tracker.add(4u * unique);
    std::vector<uint64_t> rleBytes(shards);
    const uint64_t waveBudget =
        std::max<uint64_t>(plan.shardLoadBytes, 1) * plan.workers;
    forEachShardWave(
        shards, rawBytes, waveBudget, options.pool, options.threads,
        [&](size_t s) {
          std::vector<uint64_t> mine;
          readSpillFile(raw[s]->path(), mine);
          tracker.add(mine.size() * sizeof(uint64_t));
          std::error_code ec;
          std::filesystem::remove(raw[s]->path(), ec);
          std::sort(mine.begin(), mine.end());
          SpillFileWriter rle(
              dir.file("shard-" + std::to_string(s) + ".rle"));
          std::vector<uint64_t> out;
          out.reserve(std::min<size_t>(2 * mine.size(), 1u << 16));
          for (size_t i = 0; i < mine.size();) {
            size_t j = i + 1;
            while (j < mine.size() && mine[j] == mine[i]) ++j;
            ++degree[packedKey(mine[i])];
            out.push_back(mine[i]);
            out.push_back(j - i);
            if (out.size() >= (1u << 16)) {
              rle.write(out.data(), out.size() * sizeof(uint64_t));
              out.clear();
            }
            i = j;
          }
          if (!out.empty()) {
            rle.write(out.data(), out.size() * sizeof(uint64_t));
          }
          rle.finish();
          rleBytes[s] = rle.bytesWritten();
          tracker.sub(mine.size() * sizeof(uint64_t));
        });
    for (size_t s = 0; s < shards; ++s) {
      index.stats_.spillBytes += rleBytes[s];
    }

    // Phase 3: serial prefix sum fixes the CSR offsets, then each shard's
    // RLE file streams back in bounded chunks and scatters + ranks its rows
    // (rows never straddle shards, so entry writes are race-free).
    for (size_t id = 0; id < unique; ++id) {
      index.offsets_[id + 1] = index.offsets_[id] + degree[id];
    }
    index.entries_.resize(index.offsets_[unique]);
    // Chunk size is a multiple of 16 so the two-word (pair, count) records
    // never straddle a chunk boundary. Streaming bounds memory to one chunk
    // per in-flight shard, so no wave grouping is needed here.
    const size_t chunkBytes =
        static_cast<size_t>(
            std::clamp<uint64_t>(plan.shardLoadBytes, 1u << 12, 1u << 20)) &
        ~size_t{15};
    tracker.add(static_cast<uint64_t>(chunkBytes) * plan.workers);
    parallelFor(options.pool, options.threads, shards,
                [&](size_t begin, size_t end) {
                  for (size_t s = begin; s < end; ++s) {
                    Scatterer scatter(stream, index.entries_.data(),
                                      index.offsets_.data());
                    streamSpillFile(
                        dir.file("shard-" + std::to_string(s) + ".rle"),
                        chunkBytes, [&](const uint64_t* words, size_t n) {
                          scatter.consume(words, n);
                        });
                    scatter.finishRow();
                  }
                });
    tracker.sub(static_cast<uint64_t>(chunkBytes) * plan.workers);

    index.stats_.plan = "spill";
    index.stats_.shards = shards;
    index.stats_.spillFiles = 2 * shards;
    index.stats_.peakTrackedBytes = tracker.peak();
    reportBuildStats(index.stats_);
    return index;
  }

  // --- In-memory pipeline: a counting-sort CSR build. Worker r owns the
  // key range [lo_r, hi_r), as in FrequencyIndex::build, and scans the
  // whole pair stream for it twice: once to count each key's pairs, once to
  // scatter their values into the key's row. Each row is then sorted,
  // run-length encoded and ranked. Ranges split keys, never rows, so the
  // CSR is the same at every worker count.
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
  tracker.add(sizeof(uint32_t) * rowPos.size() +
              sizeof(ChunkId) * vals.size());
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
  index.stats_.plan = plan.workers <= 1 ? "serial" : "parallel";
  index.stats_.shards = plan.workers;
  index.stats_.peakTrackedBytes = tracker.peak();
  reportBuildStats(index.stats_);
  return index;
}

}  // namespace freqdedup::analysis
