#include "analysis/frequency_index.h"

#include <algorithm>
#include <utility>

#include "pipeline/thread_pool.h"

namespace freqdedup::analysis {

FrequencyIndex FrequencyIndex::build(const ChunkStreamIndex& stream) {
  const ChunkStreamIndex* source = &stream;
  return std::move(buildAll({&source, 1}, nullptr).front());
}

std::vector<FrequencyIndex> FrequencyIndex::buildAll(
    std::span<const ChunkStreamIndex* const> streams, ThreadPool* pool) {
  std::vector<FrequencyIndex> indexes(streams.size());
  for (size_t b = 0; b < streams.size(); ++b)
    indexes[b].counts.assign(streams[b]->uniqueCount(), 0);
  parallelFor(pool, streams.size(), [&](size_t begin, size_t end) {
    for (size_t b = begin; b < end; ++b) {
      uint64_t* counts = indexes[b].counts.data();
      for (const ChunkId id : streams[b]->ids()) ++counts[id];
    }
  });
  return indexes;
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
  k = std::min(k, unique);
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
  ids.resize(k);
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
