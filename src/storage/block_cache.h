// Thread-safe byte-budgeted cache of parsed, immutable containers — the one
// block-cache layer shared by the restore read path, cold-tier promotion and
// `fdd verify --deep` (WiredTiger src/block_cache is the architectural
// exemplar).
//
// It replaces the container-count-bounded read cache: with variable
// container sizes a count bound leaves the real memory footprint unbounded
// per entry, so admission and eviction here account actual payload bytes
// (plus a small per-entry overhead) against a byte budget. An object whose
// charge alone exceeds the budget is never retained (admission reject).
//
// Container ids are never reused (FileBackupStore allocates them
// monotonically, and recovery resumes past the on-disk maximum), so a cached
// container can never alias different bytes under the same id; entries are
// invalidated when GC compaction deletes their container purely to release
// memory and to keep the retry path from re-serving a doomed copy.
//
// Every admitted container carries a per-chunk payload CRC table computed at
// admission, so each chunk served from a cache hit is re-checked (CRC here,
// ciphertext fingerprint in the store) before its bytes leave the store —
// in-memory corruption of a cached copy surfaces as an error, never as
// silently wrong bytes.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "storage/container.h"

namespace freqdedup {

class BlockCache {
 public:
  /// A parsed container plus the CRC-32C of each chunk payload, computed
  /// once at admission. Both members are shared and immutable, so entries
  /// stay valid for in-flight readers after invalidation or eviction.
  struct Entry {
    std::shared_ptr<const Container> container;
    std::shared_ptr<const std::vector<uint32_t>> payloadCrcs;
  };

  /// Point-in-time view of the cache's counters (which live in a
  /// MetricsRegistry as `cache.*`; this struct is the test-facing view).
  struct Stats {
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t admissions = 0;
    uint64_t admissionRejects = 0;  // charge alone exceeds the budget
    uint64_t invalidations = 0;
    uint64_t evictions = 0;
    uint64_t cachedBytes = 0;
    uint64_t peakCachedBytes = 0;
  };

  /// `budgetBytes` bounds the cache in charged bytes: 0 disables caching
  /// (admit still returns usable entries, nothing is retained) and
  /// kUnboundedBlockCacheBytes never evicts. The single-argument form keeps
  /// counters in a private registry; pass the owning store's registry to
  /// surface them as that store's `cache.*` metrics. Counter updates are
  /// wait-free and never taken under the cache mutex. Eviction is least
  /// recently used first.
  explicit BlockCache(uint64_t budgetBytes);
  BlockCache(uint64_t budgetBytes, obs::MetricsRegistry& registry);

  /// Cached entry for a container id, promoting it to most recently used.
  /// `recordStats` = false makes the lookup an internal probe (still
  /// promoting) that leaves the lookup/hit/miss counters untouched — used
  /// by the single-flight loader's re-check so one logical miss is not
  /// counted twice.
  std::optional<Entry> get(uint32_t id, bool recordStats = true);

  /// Builds the entry (computing the payload CRC table) and retains it when
  /// its charge fits the budget, evicting colder entries as needed. Returns
  /// the entry either way.
  Entry admit(uint32_t id, std::shared_ptr<const Container> container);

  /// Drops a container (GC compaction/delete). No-op when absent.
  void invalidate(uint32_t id);

  void clear();

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] uint64_t budgetBytes() const { return budget_; }
  [[nodiscard]] bool enabled() const { return budget_ > 0; }
  [[nodiscard]] uint64_t cachedBytes() const;
  [[nodiscard]] size_t size() const;

  /// The entry admit() builds (container plus per-chunk payload CRCs);
  /// exposed so a read with the cache disabled serves identical entries.
  static Entry makeEntry(std::shared_ptr<const Container> container);

  /// Bytes an entry charges against the budget: payload bytes plus a fixed
  /// per-chunk overhead for the entry table and CRC row.
  static uint64_t entryCharge(const Entry& entry);

 private:
  /// An admitted entry and its position in the recency list.
  struct Slot {
    Entry entry;
    std::list<uint32_t>::iterator recency;
  };

  BlockCache(uint64_t budgetBytes, obs::MetricsRegistry* registry);

  void evictUntilFitsLocked(uint64_t incomingCharge, uint64_t& evicted,
                            uint64_t& evictedBytes);

  std::unique_ptr<obs::MetricsRegistry> ownedRegistry_;  // standalone ctor
  obs::MetricsRegistry& registry_;
  obs::Counter& lookups_;
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& admissions_;
  obs::Counter& admissionRejects_;
  obs::Counter& invalidations_;
  obs::Counter& evictions_;
  obs::Gauge& cachedBytesGauge_;
  obs::Gauge& peakCachedBytesGauge_;
  const uint64_t budget_;

  mutable std::mutex mu_;
  std::unordered_map<uint32_t, Slot> entries_;
  std::list<uint32_t> recency_;  // front = most recently used
  uint64_t cachedBytes_ = 0;
  uint64_t peakCachedBytes_ = 0;
};

/// Charge overhead per chunk entry (ContainerEntry + CRC row + map slack).
inline constexpr uint64_t kBlockCachePerChunkOverhead = 32;

}  // namespace freqdedup
