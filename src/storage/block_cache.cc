#include "storage/block_cache.h"

#include <utility>

#include "common/check.h"
#include "common/crc32.h"

namespace freqdedup {

BlockCache::BlockCache(uint64_t budgetBytes)
    : BlockCache(budgetBytes, nullptr) {}

BlockCache::BlockCache(uint64_t budgetBytes, obs::MetricsRegistry& registry)
    : BlockCache(budgetBytes, &registry) {}

BlockCache::BlockCache(uint64_t budgetBytes, obs::MetricsRegistry* registry)
    : ownedRegistry_(registry == nullptr
                         ? std::make_unique<obs::MetricsRegistry>()
                         : nullptr),
      registry_(registry == nullptr ? *ownedRegistry_ : *registry),
      lookups_(registry_.counter("cache.lookups")),
      hits_(registry_.counter("cache.hits")),
      misses_(registry_.counter("cache.misses")),
      admissions_(registry_.counter("cache.admissions")),
      admissionRejects_(registry_.counter("cache.admission_rejects")),
      invalidations_(registry_.counter("cache.invalidations")),
      evictions_(registry_.counter("cache.evictions")),
      cachedBytesGauge_(registry_.gauge("cache.cached_bytes")),
      peakCachedBytesGauge_(registry_.gauge("cache.peak_cached_bytes")),
      budget_(budgetBytes) {
  // The budget itself, as a gauge, so one snapshot carries both sides of
  // the cached_bytes <= budget_bytes invariant. An unbounded budget is not
  // representable (and not an invariant worth checking), so it is omitted.
  if (budget_ > 0 && budget_ != UINT64_MAX)
    registry_.gauge("cache.budget_bytes").add(static_cast<int64_t>(budget_));
}

BlockCache::Entry BlockCache::makeEntry(
    std::shared_ptr<const Container> container) {
  auto crcs = std::make_shared<std::vector<uint32_t>>();
  crcs->reserve(container->entries.size());
  const ByteView data(container->data);
  for (const ContainerEntry& e : container->entries)
    crcs->push_back(crc32c(data.subspan(e.dataOffset, e.size)));
  return Entry{std::move(container), std::move(crcs)};
}

uint64_t BlockCache::entryCharge(const Entry& entry) {
  return entry.container->data.size() +
         entry.container->entries.size() * kBlockCachePerChunkOverhead;
}

std::optional<BlockCache::Entry> BlockCache::get(uint32_t id,
                                                 bool recordStats) {
  std::optional<Entry> entry;
  {
    std::lock_guard lock(mu_);
    const auto it = entries_.find(id);
    if (it != entries_.end()) {
      entry = it->second.entry;
      recency_.splice(recency_.begin(), recency_, it->second.recency);
    }
  }
  // Counters are wait-free registry atomics, updated outside the cache
  // mutex so accounting never serializes concurrent readers.
  if (recordStats) {
    lookups_.add();
    (entry ? hits_ : misses_).add();
  }
  return entry;
}

void BlockCache::evictUntilFitsLocked(uint64_t incomingCharge,
                                      uint64_t& evicted,
                                      uint64_t& evictedBytes) {
  // incomingCharge <= budget_ (larger objects were rejected), so the
  // subtraction cannot underflow; an unbounded budget never enters the loop.
  while (!entries_.empty() && cachedBytes_ > budget_ - incomingCharge) {
    const auto it = entries_.find(recency_.back());
    FDD_CHECK_MSG(it != entries_.end(), "LRU victim not in cache");
    const uint64_t charge = entryCharge(it->second.entry);
    cachedBytes_ -= charge;
    evictedBytes += charge;
    entries_.erase(it);
    recency_.pop_back();
    ++evicted;
  }
}

BlockCache::Entry BlockCache::admit(
    uint32_t id, std::shared_ptr<const Container> container) {
  // The CRC table is computed before taking the cache's lock, so concurrent
  // cache readers never wait on it. It is one CRC-32C pass over the payload:
  // ~0.28 ms for a full 4 MiB container of 8 KiB chunks with the
  // three-stream SSE4.2 kernel (~14 ms with the table loop; 4-core Xeon
  // VM). The caller may still hold its own store lock; see
  // sealOpenContainerLocked.
  Entry entry = makeEntry(std::move(container));
  if (budget_ == 0) return entry;
  const uint64_t charge = entryCharge(entry);
  if (charge > budget_) {
    // Larger than the whole budget: retaining it would either break the
    // byte bound or evict everything for a single-use object. The caller
    // still gets a fully usable (uncached) entry.
    admissionRejects_.add();
    return entry;
  }
  bool admitted = false;
  uint64_t evicted = 0;
  uint64_t evictedBytes = 0;
  int64_t peakDelta = 0;
  {
    std::lock_guard lock(mu_);
    const auto it = entries_.find(id);
    if (it == entries_.end()) {
      evictUntilFitsLocked(charge, evicted, evictedBytes);
      recency_.push_front(id);
      entries_.emplace(id, Slot{entry, recency_.begin()});
      cachedBytes_ += charge;
      if (cachedBytes_ > peakCachedBytes_) {
        peakDelta = static_cast<int64_t>(cachedBytes_ - peakCachedBytes_);
        peakCachedBytes_ = cachedBytes_;
      }
      admitted = true;
    } else {
      // Already present (a racing loader admitted first): keep the resident
      // copy, just refresh its recency.
      recency_.splice(recency_.begin(), recency_, it->second.recency);
    }
  }
  if (admitted) {
    admissions_.add();
    // The eviction loop's byte release and this admission's byte charge
    // both land on the gauge here, outside the mutex.
    cachedBytesGauge_.add(static_cast<int64_t>(charge) -
                          static_cast<int64_t>(evictedBytes));
  }
  if (evicted > 0) evictions_.add(evicted);
  if (peakDelta > 0) peakCachedBytesGauge_.add(peakDelta);
  return entry;
}

void BlockCache::invalidate(uint32_t id) {
  bool erased = false;
  int64_t released = 0;
  {
    std::lock_guard lock(mu_);
    const auto it = entries_.find(id);
    if (it != entries_.end()) {
      released = static_cast<int64_t>(entryCharge(it->second.entry));
      cachedBytes_ -= static_cast<uint64_t>(released);
      recency_.erase(it->second.recency);
      entries_.erase(it);
      erased = true;
    }
  }
  if (erased) {
    invalidations_.add();
    cachedBytesGauge_.sub(released);
  }
}

void BlockCache::clear() {
  int64_t released = 0;
  {
    std::lock_guard lock(mu_);
    released = static_cast<int64_t>(cachedBytes_);
    entries_.clear();
    recency_.clear();
    cachedBytes_ = 0;
  }
  cachedBytesGauge_.sub(released);
}

BlockCache::Stats BlockCache::stats() const {
  Stats s;
  s.lookups = lookups_.value();
  s.hits = hits_.value();
  s.misses = misses_.value();
  s.admissions = admissions_.value();
  s.admissionRejects = admissionRejects_.value();
  s.invalidations = invalidations_.value();
  s.evictions = evictions_.value();
  {
    std::lock_guard lock(mu_);
    s.cachedBytes = cachedBytes_;
    s.peakCachedBytes = peakCachedBytes_;
  }
  return s;
}

uint64_t BlockCache::cachedBytes() const {
  std::lock_guard lock(mu_);
  return cachedBytes_;
}

size_t BlockCache::size() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

}  // namespace freqdedup
