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
//
// The engine is a single-threaded simulator: its counts are the results of
// Figures 13 and 14, kept as plain values in one DedupEngineStats.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bloom_filter.h"
#include "common/fingerprint.h"
#include "common/lru_cache.h"
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
  /// Differences saturate at zero: callers diff cumulative stats taken at
  /// two points in time, and a swapped pair must not underflow into a huge
  /// unsigned value.
  friend MetadataAccessStats operator-(MetadataAccessStats a,
                                       const MetadataAccessStats& b) {
    const auto sub = [](uint64_t x, uint64_t y) { return x > y ? x - y : 0; };
    a.updateBytes = sub(a.updateBytes, b.updateBytes);
    a.indexBytes = sub(a.indexBytes, b.indexBytes);
    a.loadingBytes = sub(a.loadingBytes, b.loadingBytes);
    return a;
  }
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

  /// Cumulative counts since construction.
  [[nodiscard]] const DedupEngineStats& stats() const { return stats_; }
  [[nodiscard]] size_t containerCount() const { return containerFps_.size(); }
  [[nodiscard]] size_t indexEntries() const { return index_.size(); }
  [[nodiscard]] const std::vector<Fp>& containerFingerprints(
      uint32_t id) const;

 private:
  void storeUnique(const ChunkRecord& record);

  DedupEngineParams params_;
  DedupEngineStats stats_;
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
