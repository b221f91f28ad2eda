// Content-addressed chunk store with container packing.
//
// `BackupStore` is the storage interface the backup client (DedupClient)
// writes through: ciphertext chunks deduplicated by ciphertext fingerprint
// and packed into containers, named metadata blobs (sealed recipes), and
// per-backup reference manifests that drive deletion and garbage collection.
//
// FileBackupStore (file_backup_store.h) implements it: containers are
// CRC-framed objects in a hot and a cold tier (container_tier.h) and the
// index, manifests and blobs live in a LogKv at <dir>/index.log. Reopening
// the directory recovers all state, removing orphan containers and dropping
// index entries whose container failed trailer validation (crash-safe
// recovery). Decorators (fault injection in the tests, tracing in the
// benchmark) wrap it through this interface.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fingerprint.h"
#include "obs/metrics.h"
#include "storage/container.h"

namespace freqdedup {

/// Default byte budget of the store's block cache (16 default-sized
/// containers' payloads).
inline constexpr uint64_t kDefaultBlockCacheBytes = 64ull * 1024 * 1024;

/// Block-cache budget meaning "never evict".
inline constexpr uint64_t kUnboundedBlockCacheBytes = UINT64_MAX;

/// Tiering policy, part of StoreOptions. Reads always consult the cold tier
/// (tier assignment is discovered, not configured); these knobs only shape
/// demotion.
struct ColdTierOptions {
  /// Demote during collectGarbage() until the hot tier's physical bytes
  /// drop to hotBytes (oldest-unread containers first).
  bool demoteOnGc = false;
  /// Hot-tier physical-byte target for demotion. 0 demotes everything
  /// demotable (the keepHotRecent newest containers are always kept hot).
  uint64_t hotBytes = 0;
  /// Newest containers never demoted: the most recent backup's tail stays
  /// hot so incremental workloads do not bounce straight back.
  uint32_t keepHotRecent = 1;
};

/// Everything that shapes a store instance beyond its directory. None of it
/// is persisted: a store reopened with other options reads back everything
/// the directory holds.
struct StoreOptions {
  /// Target payload bytes per sealed container.
  uint64_t containerBytes = kDefaultContainerBytes;
  /// Codec for newly written container frames. Existing containers are
  /// never rewritten: a store may freely mix codecs, and reads decode
  /// whatever each frame declares.
  ContainerCodec codec = ContainerCodec::kNone;
  /// Byte budget of the block cache shared by restore prefetch, cold-tier
  /// promotion and `fdd verify --deep` (0 disables it,
  /// kUnboundedBlockCacheBytes never evicts).
  uint64_t blockCacheBytes = kDefaultBlockCacheBytes;
  /// Hot/cold tiering (demotion policy).
  ColdTierOptions coldTier;
};

struct BackupStoreStats {
  uint64_t logicalPuts = 0;
  uint64_t logicalBytes = 0;
  uint64_t uniqueChunks = 0;
  uint64_t storedBytes = 0;

  [[nodiscard]] double dedupRatio() const {
    return storedBytes == 0 ? 0.0
                            : static_cast<double>(logicalBytes) /
                                  static_cast<double>(storedBytes);
  }
};

/// Outcome of one collectGarbage() pass.
struct GcStats {
  uint64_t chunksReclaimed = 0;    // refcount-0 chunks dropped
  uint64_t bytesReclaimed = 0;     // payload bytes those chunks held
  uint64_t chunksRelocated = 0;    // live chunks copied forward
  uint64_t containersCompacted = 0;  // containers rewritten and reclaimed
  uint64_t containersDemoted = 0;  // live containers moved to the cold tier
};

/// Result of verify(): an fsck-style consistency report.
struct StoreCheckReport {
  uint64_t chunksChecked = 0;
  uint64_t containersChecked = 0;
  uint64_t backupsChecked = 0;
  std::vector<std::string> errors;

  [[nodiscard]] bool ok() const { return errors.empty(); }
};

/// What crash-safe recovery had to repair while reopening a persistent store.
struct StoreRecoveryStats {
  uint64_t containersValidated = 0;      // trailer CRC + structure checked
  uint64_t orphanContainersRemoved = 0;  // files no index entry references
  uint64_t corruptContainers = 0;        // failed trailer validation
  uint64_t entriesDropped = 0;  // index entries whose container is gone/bad
};

/// Container placement of a stored chunk, as exposed by chunkLocator(). The
/// restore planner groups reads by containerId so each container is fetched
/// once per locality batch.
struct ChunkPlacement {
  uint32_t containerId = 0;
  uint32_t entryIndex = 0;  // position within the container's entry table
  uint32_t size = 0;        // ciphertext size in bytes

  friend bool operator==(const ChunkPlacement&,
                         const ChunkPlacement&) = default;
};

/// Read-path counters, monotonic over the life of one store instance. Safe
/// to sample while reads are in flight.
struct StoreReadStats {
  uint64_t chunkReads = 0;      // chunks served by getChunk/getChunks
  uint64_t batchReads = 0;      // getChunks calls
  uint64_t containerLoads = 0;  // container fetches that missed the cache
  uint64_t cacheHits = 0;       // container fetches the block cache served
  uint64_t readRetries = 0;     // chunk reads re-resolved after a GC race
  uint64_t coldReads = 0;       // container fetches served by the cold tier
  uint64_t promotions = 0;      // cold containers copied back to hot
};

/// Blob name under which stageBackup stores a backup's sealed recipes.
inline std::string recipeBlobName(const std::string& name) {
  return "recipe:" + name;
}

class BackupStore {
 public:
  virtual ~BackupStore() = default;

  /// True if a ciphertext chunk with this fingerprint is already stored.
  [[nodiscard]] virtual bool hasChunk(Fp cipherFp) const = 0;

  /// Stores a chunk unless already present (deduplication). Returns true if
  /// the chunk was new. New chunks start with a reference count of zero;
  /// references are added when a backup that uses them is recorded.
  virtual bool putChunk(Fp cipherFp, ByteView bytes) = 0;

  /// The put of a chunk the caller knows by fingerprint and size alone (the
  /// client's seal memo): returns true if the store holds the chunk, and
  /// false — changing nothing — if it does not, in which case the caller
  /// must putChunk the bytes. The base implementation only answers
  /// membership (hasChunk) and counts nothing; a store or decorator that
  /// counts puts must override it to account a true return as a duplicate
  /// putChunk (FileBackupStore and the tests' FailingStore do). It keeps a
  /// body because the benchmark's TracedStore does not override it.
  virtual bool putKnownChunk(Fp cipherFp, uint32_t /*size*/) {
    return hasChunk(cipherFp);
  }

  /// Retrieves a chunk's bytes; throws std::runtime_error if absent.
  virtual ByteVec getChunk(Fp cipherFp) = 0;

  /// Batched retrieval: the chunks' bytes, in request order (duplicates
  /// allowed). Throws std::runtime_error if any chunk is absent or fails
  /// integrity checks. FileBackupStore serves it container by container:
  /// every chunk a batch takes from one container costs a single container
  /// fetch.
  ///
  /// Read-path thread safety: getChunks, getChunk, chunkLocator and
  /// readStats on FileBackupStore are safe to call concurrently with
  /// each other AND with writer operations (which the store serializes on
  /// its own metadata lock) — restore I/O does not hold that lock.
  virtual std::vector<ByteVec> getChunks(std::span<const Fp> cipherFps) = 0;

  /// Container placement of stored chunks for locality-aware read planning:
  /// result[i] describes cipherFps[i], nullopt when the store has no sealed
  /// placement for it (chunk absent, or still in the open container).
  [[nodiscard]] virtual std::vector<std::optional<ChunkPlacement>>
  chunkLocator(std::span<const Fp> cipherFps) const = 0;

  /// Read-path counters.
  [[nodiscard]] virtual StoreReadStats readStats() const = 0;

  /// Current reference count of a chunk (0 if absent or unreferenced).
  [[nodiscard]] virtual uint32_t chunkRefCount(Fp cipherFp) const = 0;

  /// Named metadata blobs (sealed recipes).
  virtual void putBlob(const std::string& name, ByteView bytes) = 0;
  virtual std::optional<ByteVec> getBlob(const std::string& name) = 0;
  virtual bool eraseBlob(const std::string& name) = 0;
  [[nodiscard]] virtual std::vector<std::string> listBlobs() = 0;

  /// Records a completed backup: persists a manifest of the ciphertext
  /// fingerprints the backup references (one entry per chunk occurrence) and
  /// increments their reference counts. Re-recording an existing name first
  /// releases the old manifest. Seals the open container so every referenced
  /// chunk is indexed. Throws if a referenced chunk is not stored.
  virtual void recordBackup(const std::string& name,
                            std::span<const Fp> chunkRefs) = 0;

  /// Like recordBackup, but with durability deferred: the manifest is staged
  /// in the metadata log without forcing it to stable storage, so a pipeline
  /// of commits can share one later group sync (syncMetadataAsync / flush)
  /// instead of paying an fsync wait per backup. Until that sync, a crash
  /// may drop the record exactly as it would drop an unflushed put.
  virtual void recordBackupDeferred(const std::string& name,
                                    std::span<const Fp> chunkRefs) = 0;

  /// Stages a backup's manifest (as recordBackupDeferred) and its sealed
  /// recipe blob (getBlob(recipeBlobName(name))) as one record, so a crash
  /// leaves the old or the new pair. The base body throws: the benchmark's
  /// TracedStore does not override it and only backs restore-only clients.
  virtual void stageBackup(const std::string& /*name*/,
                           std::span<const Fp> /*chunkRefs*/,
                           ByteView /*recipeBlob*/) {
    throw std::logic_error("stageBackup: not supported by this store");
  }

  /// Registers `done(ok)` to run once every metadata mutation issued so far
  /// (manifests, blobs, index entries) is durable. FileBackupStore runs
  /// callbacks on its log's syncer thread, outside the store locks, and
  /// coalesces concurrent requests into one group fdatasync. The callback
  /// must not destroy the store.
  virtual void syncMetadataAsync(std::function<void(bool ok)> done) = 0;

  /// Deletes a backup's manifest and recipe blob in one durable record and
  /// decrements the reference counts it held. Returns false if neither
  /// exists. Chunk data is only reclaimed by the next collectGarbage().
  virtual bool releaseBackup(const std::string& name) = 0;

  /// Names of all recorded backups.
  [[nodiscard]] virtual std::vector<std::string> listBackups() = 0;

  /// The manifest of a recorded backup (its chunk references, in recipe
  /// order), or nullopt if no such backup exists.
  virtual std::optional<std::vector<Fp>> backupRefs(
      const std::string& name) = 0;

  /// Reclaims every chunk whose reference count is zero, compacting the
  /// containers that held them (live chunks are copied forward) and the
  /// persistent index log.
  virtual GcStats collectGarbage() = 0;

  /// fsck-style consistency check: every index entry resolves to a matching
  /// container entry, every manifest reference resolves to a stored chunk,
  /// and reference counts equal the manifest occurrence sums.
  virtual StoreCheckReport verify() = 0;

  /// Seals the open container and persists all state.
  virtual void flush() = 0;

  /// Write-path accounting, synthesized from the store's metrics registry.
  [[nodiscard]] virtual BackupStoreStats stats() const = 0;

  /// Point-in-time snapshot of every metric the store instance maintains
  /// (store.*, tier.*, cache.*). A fresh open — including one that
  /// recovered persistent state — starts all counters from zero.
  [[nodiscard]] virtual obs::MetricsSnapshot metricsSnapshot() const = 0;

  /// Number of sealed, live containers.
  [[nodiscard]] virtual size_t containerCount() const = 0;
};

}  // namespace freqdedup
