#include "analysis/frequency_index.h"

#include <algorithm>

#include "pipeline/thread_pool.h"

namespace freqdedup::analysis {

FrequencyIndex FrequencyIndex::build(const ChunkStreamIndex& stream,
                                     const FrequencyBuildOptions& options) {
  const std::vector<ChunkId>& ids = stream.ids();
  const size_t unique = stream.uniqueCount();
  FrequencyIndex index;
  index.counts.assign(unique, 0);
  if (ids.empty()) {
    reportBuildStats(index.stats);
    return index;
  }

  const PlanChoice plan =
      chooseFrequencyPlan(ids.size(), unique, options.threads,
                          hardwareThreads(), options.plan);
  if (!plan.parallel()) {
    // One streaming pass, one increment per record.
    for (const ChunkId id : ids) ++index.counts[id];
    index.stats.plan = "serial";
    reportBuildStats(index.stats);
    return index;
  }

  // Shard-private sub-range counting: worker w owns counts[lo_w, hi_w) and
  // rescans the whole id column for it. The scan is sequential (prefetched,
  // cheap); the increments — the random-access cost that dominates at large
  // unique counts — split W ways into ranges that each fit closer to cache.
  // No partial columns, no reduce pass, nothing allocated. Addition
  // commutes, so any range split yields the same counts.
  const size_t ranges = plan.workers;
  const size_t rangeSize = (unique + ranges - 1) / ranges;
  parallelFor(options.pool, options.threads, ranges,
              [&](size_t begin, size_t end) {
                for (size_t r = begin; r < end; ++r) {
                  const auto lo = static_cast<ChunkId>(r * rangeSize);
                  const auto hi = static_cast<ChunkId>(
                      std::min(unique, (r + 1) * rangeSize));
                  uint64_t* counts = index.counts.data();
                  for (const ChunkId id : ids) {
                    if (id >= lo && id < hi) ++counts[id];
                  }
                }
              });
  index.stats.plan = "parallel";
  index.stats.shards = ranges;
  reportBuildStats(index.stats);
  return index;
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

std::vector<ChunkId> rankByFrequency(const FrequencyIndex& freq,
                                     const ChunkStreamIndex& stream,
                                     size_t k) {
  std::vector<ChunkId> ids(stream.uniqueCount());
  for (ChunkId id = 0; id < ids.size(); ++id) ids[id] = id;
  const FrequencyOrder cmp{&freq, &stream};
  k = std::min(k, ids.size());
  if (k < ids.size()) {
    std::partial_sort(ids.begin(),
                      ids.begin() + static_cast<ptrdiff_t>(k), ids.end(),
                      cmp);
    ids.resize(k);
  } else {
    std::sort(ids.begin(), ids.end(), cmp);
  }
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
