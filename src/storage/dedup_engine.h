// DDFS-like deduplication engine with metadata-access accounting
// (Section 7.4 of the paper).
//
// Processes a logical stream of (already encrypted) chunk records and decides
// for each whether it is a duplicate, following the paper's four steps:
//   S1  check the in-memory fingerprint cache;
//   S2  on cache miss, consult the Bloom filter — a negative proves the chunk
//       is new: update the filter and buffer the chunk into the open
//       container (flushing a full container updates the on-disk index);
//   S3  on a Bloom positive, look the fingerprint up in the on-disk index
//       (counted as index access); a miss means Bloom false positive — store
//       as in S2;
//   S4  on an index hit, load all fingerprints of the chunk's container into
//       the fingerprint cache (counted as loading access) — chunk locality
//       makes the neighbors likely to be referenced next.
//
// Metadata access is accounted in bytes at 32 B per fingerprint entry:
//   update access  — index writes for newly stored unique chunks (S2/S3),
//   index access   — on-disk index lookups (S3),
//   loading access — container fingerprint loads into the cache (S4).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/bloom_filter.h"
#include "common/fingerprint.h"
#include "common/lru_cache.h"
#include "obs/metrics.h"
#include "storage/container.h"

namespace freqdedup {

struct DedupEngineParams {
  uint64_t containerBytes = kDefaultContainerBytes;
  /// In-memory fingerprint cache budget in bytes (entries = bytes / 32).
  uint64_t cacheBytes = 512ULL * 1024 * 1024;
  /// Expected total fingerprints processed, for Bloom filter sizing.
  uint64_t expectedFingerprints = 1'000'000;
  double bloomFpr = 0.01;
};

struct MetadataAccessStats {
  uint64_t updateBytes = 0;
  uint64_t indexBytes = 0;
  uint64_t loadingBytes = 0;

  [[nodiscard]] uint64_t totalBytes() const {
    return updateBytes + indexBytes + loadingBytes;
  }
  /// Differences saturate at zero: callers diff cumulative counters taken at
  /// two points in time, and a reordered snapshot must not underflow into a
  /// huge unsigned value.
  friend MetadataAccessStats operator-(MetadataAccessStats a,
                                       const MetadataAccessStats& b) {
    const auto sub = [](uint64_t x, uint64_t y) { return x > y ? x - y : 0; };
    a.updateBytes = sub(a.updateBytes, b.updateBytes);
    a.indexBytes = sub(a.indexBytes, b.indexBytes);
    a.loadingBytes = sub(a.loadingBytes, b.loadingBytes);
    return a;
  }

  /// The ingest.metadata_* counters of one engine snapshot, as this struct.
  static MetadataAccessStats fromSnapshot(const obs::MetricsSnapshot& snap);
};

struct DedupEngineStats {
  uint64_t logicalChunks = 0;
  uint64_t logicalBytes = 0;
  uint64_t uniqueChunks = 0;
  uint64_t uniqueBytes = 0;
  uint64_t cacheHits = 0;
  uint64_t bufferHits = 0;
  uint64_t bloomNegatives = 0;
  uint64_t bloomFalsePositives = 0;
  uint64_t indexHits = 0;
  MetadataAccessStats metadata;

  [[nodiscard]] double dedupRatio() const {
    return uniqueBytes == 0 || logicalBytes == 0
               ? 0.0
               : static_cast<double>(logicalBytes) /
                     static_cast<double>(uniqueBytes);
  }

  /// Interval view of two cumulative stats, saturating at zero per field.
  friend DedupEngineStats operator-(DedupEngineStats a,
                                    const DedupEngineStats& b) {
    const auto sub = [](uint64_t x, uint64_t y) { return x > y ? x - y : 0; };
    a.logicalChunks = sub(a.logicalChunks, b.logicalChunks);
    a.logicalBytes = sub(a.logicalBytes, b.logicalBytes);
    a.uniqueChunks = sub(a.uniqueChunks, b.uniqueChunks);
    a.uniqueBytes = sub(a.uniqueBytes, b.uniqueBytes);
    a.cacheHits = sub(a.cacheHits, b.cacheHits);
    a.bufferHits = sub(a.bufferHits, b.bufferHits);
    a.bloomNegatives = sub(a.bloomNegatives, b.bloomNegatives);
    a.bloomFalsePositives = sub(a.bloomFalsePositives, b.bloomFalsePositives);
    a.indexHits = sub(a.indexHits, b.indexHits);
    a.metadata = a.metadata - b.metadata;
    return a;
  }

  /// The ingest.* counters of one engine snapshot, as this struct — the
  /// inverse of how DedupEngine::stats() views its registry.
  static DedupEngineStats fromSnapshot(const obs::MetricsSnapshot& snap);
};

/// Result of ingesting one chunk.
struct IngestOutcome {
  bool duplicate = false;
  /// Container holding the chunk; for a freshly buffered unique chunk this is
  /// unset until its container flushes.
  std::optional<uint32_t> containerId;
};

class DedupEngine {
 public:
  explicit DedupEngine(const DedupEngineParams& params);

  /// Processes one logical chunk record (trace mode: sizes only, no bytes).
  IngestOutcome ingest(const ChunkRecord& record);

  /// Processes a whole backup stream.
  void ingestBackup(std::span<const ChunkRecord> records);

  /// Flushes the open container buffer (e.g. at end of the run).
  void flushOpenContainer();

  /// Legacy-shaped view over this engine's metrics registry.
  [[nodiscard]] DedupEngineStats stats() const;
  /// Point-in-time snapshot of the engine's ingest.* metrics. Each engine
  /// owns its registry, so several engines' counters merge via
  /// MetricsSnapshot::merge with no shared state on the ingest hot path.
  [[nodiscard]] obs::MetricsSnapshot metricsSnapshot() const {
    return registry_.snapshot();
  }
  [[nodiscard]] size_t containerCount() const { return containerFps_.size(); }
  [[nodiscard]] size_t indexEntries() const { return index_.size(); }
  [[nodiscard]] const std::vector<Fp>& containerFingerprints(
      uint32_t id) const;

 private:
  /// Per-batch accumulator for the per-chunk counters: ingestBackup tallies
  /// in plain locals and flushes once per span, so the hot loop performs no
  /// atomic operations at all (the counters stay exact — the engine is
  /// externally synchronized, only snapshot reads are concurrent).
  struct IngestTally {
    uint64_t logicalChunks = 0;
    uint64_t logicalBytes = 0;
    uint64_t uniqueChunks = 0;
    uint64_t uniqueBytes = 0;
    uint64_t cacheHits = 0;
    uint64_t bufferHits = 0;
    uint64_t bloomNegatives = 0;
    uint64_t bloomFalsePositives = 0;
    uint64_t indexHits = 0;
    uint64_t indexBytes = 0;
    uint64_t loadingBytes = 0;
  };

  IngestOutcome ingestTallied(const ChunkRecord& record, IngestTally& tally);
  void storeUnique(const ChunkRecord& record, IngestTally& tally);
  void flushTally(const IngestTally& tally);

  DedupEngineParams params_;
  // Per-engine metrics; handles resolved once so ingest() never touches the
  // registry itself.
  mutable obs::MetricsRegistry registry_;
  obs::Counter& logicalChunks_;
  obs::Counter& logicalBytes_;
  obs::Counter& uniqueChunks_;
  obs::Counter& uniqueBytes_;
  obs::Counter& cacheHits_;
  obs::Counter& bufferHits_;
  obs::Counter& bloomNegatives_;
  obs::Counter& bloomFalsePositives_;
  obs::Counter& indexHits_;
  obs::Counter& metadataUpdateBytes_;
  obs::Counter& metadataIndexBytes_;
  obs::Counter& metadataLoadingBytes_;
  BloomFilter bloom_;
  LruCache<Fp, uint32_t, FpHash> cache_;
  std::unordered_map<Fp, uint32_t, FpHash> index_;  // models the on-disk index
  std::vector<std::vector<Fp>> containerFps_;       // fps per sealed container
  // Open container buffer.
  std::vector<ChunkRecord> buffer_;
  std::unordered_set<Fp, FpHash> bufferFps_;
  uint64_t bufferBytes_ = 0;
};

}  // namespace freqdedup
