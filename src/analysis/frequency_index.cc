#include "analysis/frequency_index.h"

#include <algorithm>
#include <utility>

#include "pipeline/thread_pool.h"

namespace freqdedup::analysis {

FrequencyIndex FrequencyIndex::build(const ChunkStreamIndex& stream,
                                     const FrequencyBuildOptions& options) {
  const ChunkStreamIndex* source = &stream;
  return std::move(buildAll({&source, 1}, options).front());
}

std::vector<FrequencyIndex> FrequencyIndex::buildAll(
    std::span<const ChunkStreamIndex* const> streams,
    const FrequencyBuildOptions& options) {
  // Shard-private sub-range counting: each task owns counts[lo, hi) of one
  // build and rescans that build's whole id column for it. The scan is
  // sequential (prefetched, cheap); the increments — the random-access cost
  // that dominates at large unique counts — split W ways into ranges that
  // each fit closer to cache. No partial columns, no reduce pass, and
  // nothing allocated beyond the outputs, which this thread allocates.
  // Addition commutes, so any range split yields the same counts.
  struct Task {
    size_t build;
    ChunkId lo, hi;
  };
  std::vector<FrequencyIndex> indexes(streams.size());
  std::vector<Task> tasks;
  for (size_t b = 0; b < streams.size(); ++b) {
    const size_t records = streams[b]->recordCount();
    const size_t unique = streams[b]->uniqueCount();
    indexes[b].counts.assign(unique, 0);
    if (records == 0) continue;
    const PlanChoice plan = chooseFrequencyPlan(
        records, unique, options.threads, hardwareThreads(), options.plan);
    if (plan.parallel()) {
      indexes[b].stats.plan = "parallel";
      indexes[b].stats.shards = plan.workers;
    }
    const size_t rangeSize = (unique + plan.workers - 1) / plan.workers;
    for (size_t r = 0; r < plan.workers; ++r) {
      const auto lo = static_cast<ChunkId>(std::min(unique, r * rangeSize));
      const auto hi =
          static_cast<ChunkId>(std::min(unique, (r + 1) * rangeSize));
      if (lo < hi) tasks.push_back({b, lo, hi});
    }
  }
  parallelFor(options.pool, options.threads, tasks.size(),
              [&](size_t begin, size_t end) {
                for (size_t t = begin; t < end; ++t) {
                  const Task& task = tasks[t];
                  const ChunkStreamIndex& stream = *streams[task.build];
                  uint64_t* counts = indexes[task.build].counts.data();
                  const std::vector<ChunkId>& ids = stream.ids();
                  if (task.lo == 0 && task.hi == stream.uniqueCount()) {
                    // The serial plan: one pass, one increment per record.
                    for (const ChunkId id : ids) ++counts[id];
                    continue;
                  }
                  for (const ChunkId id : ids) {
                    if (id >= task.lo && id < task.hi) ++counts[id];
                  }
                }
              });
  for (const FrequencyIndex& index : indexes) reportBuildStats(index.stats);
  return indexes;
}

FrequencyIndex FrequencyIndex::build(const ChunkStreamIndex& stream,
                                     uint32_t threads,
                                     size_t parallelThreshold,
                                     ThreadPool* pool) {
  FrequencyBuildOptions options;
  options.threads = threads;
  options.pool = pool;
  if (parallelThreshold == 0) options.plan = ComputePlan::kParallel;
  return build(stream, options);
}

namespace {

/// Stable LSD radix sort of `ids` by key(id), ascending, one 16-bit digit
/// per pass. `varying` has a bit set wherever two keys differ; a digit
/// with none set is the same in every key, so its pass is skipped.
template <class Key>
void radixSortBy(std::vector<ChunkId>& ids, std::vector<ChunkId>& tmp,
                 std::vector<uint32_t>& hist, uint64_t varying,
                 const Key& key) {
  constexpr int kDigitBits = 16;
  constexpr uint64_t kDigitMask = (uint64_t{1} << kDigitBits) - 1;
  for (int shift = 0; shift < 64; shift += kDigitBits) {
    if (((varying >> shift) & kDigitMask) == 0) continue;
    std::fill(hist.begin(), hist.end(), 0);
    for (const ChunkId id : ids) ++hist[(key(id) >> shift) & kDigitMask];
    uint32_t at = 0;
    for (uint32_t& h : hist) at += std::exchange(h, at);
    for (const ChunkId id : ids)
      tmp[hist[(key(id) >> shift) & kDigitMask]++] = id;
    ids.swap(tmp);
  }
}

}  // namespace

std::vector<ChunkId> rankByFrequency(const FrequencyIndex& freq,
                                     const ChunkStreamIndex& stream,
                                     size_t k) {
  const size_t unique = stream.uniqueCount();
  std::vector<ChunkId> ids(unique);
  for (ChunkId id = 0; id < unique; ++id) ids[id] = id;
  if (unique == 0) return ids;
  if (k * 16 <= unique) {
    // A short prefix, such as the locality attack's u seeds: a heap select
    // touches each ID once and fails fast on the many low counts. On
    // attack-sweep's 80k-ID target it beats the radix sort up to k ~ n/6.
    std::partial_sort(ids.begin(), ids.begin() + static_cast<ptrdiff_t>(k),
                      ids.end(), FrequencyOrder{&freq, &stream});
    ids.resize(k);
    return ids;
  }

  // Two keys, least significant first: fingerprint ascending, then count
  // descending (maxCount - count ascending). Each pass is stable, so the
  // count passes keep fingerprint order inside every equal-count run.
  uint64_t fpOr = 0, fpAnd = ~uint64_t{0}, maxCount = 0;
  for (ChunkId id = 0; id < unique; ++id) {
    fpOr |= stream.fpOf(id);
    fpAnd &= stream.fpOf(id);
    maxCount = std::max(maxCount, freq.counts[id]);
  }
  uint64_t keyOr = 0, keyAnd = ~uint64_t{0};
  for (const uint64_t count : freq.counts) {
    keyOr |= maxCount - count;
    keyAnd &= maxCount - count;
  }
  std::vector<ChunkId> tmp(unique);
  std::vector<uint32_t> hist(size_t{1} << 16);
  radixSortBy(ids, tmp, hist, fpOr ^ fpAnd,
              [&](ChunkId id) { return stream.fpOf(id); });
  radixSortBy(ids, tmp, hist, keyOr ^ keyAnd,
              [&](ChunkId id) { return maxCount - freq.counts[id]; });
  ids.resize(std::min(k, unique));
  return ids;
}

SizeClassRanking rankBySizeClass(const FrequencyIndex& freq,
                                 const ChunkStreamIndex& stream,
                                 size_t perClassK) {
  const size_t unique = stream.uniqueCount();
  SizeClassRanking ranking;

  // Number the classes that occur in first-appearance order (the interner
  // maps any 64-bit key to dense slots), then rank those slots by class.
  // Every table below is sized by the classes that occur, never by a class
  // value (a uint32 size spans classes up to 2^28).
  FpInterner slots;
  std::vector<uint32_t> rankOf(unique);
  for (ChunkId id = 0; id < unique; ++id)
    rankOf[id] = slots.intern(sizeClassOf(stream.sizeOf(id)));
  const std::vector<Fp>& slotClass = slots.fps();
  std::vector<uint32_t> bySlot(slotClass.size());
  for (uint32_t s = 0; s < bySlot.size(); ++s) bySlot[s] = s;
  std::sort(bySlot.begin(), bySlot.end(), [&](uint32_t a, uint32_t b) {
    return slotClass[a] < slotClass[b];
  });
  std::vector<uint32_t> slotRank(slotClass.size());
  for (uint32_t r = 0; r < bySlot.size(); ++r) slotRank[bySlot[r]] = r;

  // Counting sort by class rank. IDs scatter in ascending order, so each
  // class run starts out in id order: the (class asc, id asc) layout.
  std::vector<uint32_t> next(slotClass.size() + 1, 0);
  for (ChunkId id = 0; id < unique; ++id) {
    rankOf[id] = slotRank[rankOf[id]];
    ++next[rankOf[id] + 1];
  }
  for (uint32_t r = 0; r < bySlot.size(); ++r) {
    next[r + 1] += next[r];
    ranking.classes.push_back(
        {static_cast<uint32_t>(slotClass[bySlot[r]]), next[r], next[r + 1]});
  }
  ranking.ids.resize(unique);
  for (ChunkId id = 0; id < unique; ++id) ranking.ids[next[rankOf[id]]++] = id;

  // Rank each class run by the shared frequency order; a partial sort when
  // the caller only consumes the top perClassK of each class.
  const FrequencyOrder cmp{&freq, &stream};
  for (const ClassRange& c : ranking.classes) {
    const auto begin = ranking.ids.begin() + c.begin;
    const auto end = ranking.ids.begin() + c.end;
    if (perClassK < static_cast<size_t>(c.end - c.begin)) {
      std::partial_sort(begin, begin + static_cast<ptrdiff_t>(perClassK),
                        end, cmp);
    } else {
      std::sort(begin, end, cmp);
    }
  }
  return ranking;
}

}  // namespace freqdedup::analysis
