// FileBackupStore — the BackupStore implementation: a persistent,
// content-addressed chunk store.
//
// On-disk layout under the store directory:
//   <dir>/index.log          LogKv: fingerprint index, blobs, manifests
//   <dir>/containers/NNNNNNNN.fdc   CRC-framed chunk containers (hot tier)
//   <dir>/cold/NNNNNNNN.fdc         demoted containers (cold tier)
//
// Chunks accumulate in a ContainerBuilder; each sealed container is written
// to the hot tier (ContainerTiers, container_tier.h, owns both tiers), and
// the fingerprint index, blobs and backup manifests all live in the LogKv
// under one-byte key prefixes:
//
//   'C' + fp(u64)   -> containerId u32, entryIndex u32, size u32
//   'B' + name      -> blob bytes ('B' + "recipe:<backup>": sealed recipes)
//   'M' + name      -> manifest: varint count, count * fp(u64), crc32c
//
// (A 'C' value of 16 bytes is the legacy form, which appended a refcount u32;
// it still decodes, and its refcount is ignored.) The 'C' entries are decoded
// once at open into an in-memory chunk table that serves every lookup.
// Refcounts are never logged: recovery derives each chunk's count from the
// manifests, and commits and releases move it in memory. A commit writes its
// manifest and recipe blob as one LogKv batch record (a release erases both
// in one), so the counts match the manifests at every log prefix.
//
// Containers are written atomically (tmp + rename) and *before* their index
// entries, so after a process kill the index never references a container
// that is not on disk. That does not hold after power loss or an OS crash:
// the index log is fdatasynced, but no container file is, so a synced index
// entry can outlive its container's bytes. Recovery then finds the container
// missing or corrupt and drops its entries, and verify() reports the
// manifests that referenced them.
// Opening the directory runs crash-safe recovery: the LogKv replays its log
// (truncating any torn tail), every container trailer is validated (both
// tiers), orphan containers and stray .tmp files are deleted, index entries
// whose container is missing or corrupt are dropped, and refcounts are
// derived from the manifests.
//
// Locking: a single internal mutex guards all metadata (index, chunk table,
// open container, stats) and serializes every writer, so callers need no
// lock of their own. The read path (getChunk/getChunks/
// chunkLocator) holds the mutex only for index lookups — container file
// reads, parses and payload copies run outside it, so concurrent restores
// make overlapping I/O progress. Sealed containers are immutable and their
// ids are never reused; a read that races GC compaction (container file
// deleted, chunk relocated) re-resolves the fingerprint against the index
// and retries.
//
// GC invariants (see collectGarbage):
//  (1) a chunk is reclaimed only when its reference count is zero, i.e. no
//      recorded backup manifest references it;
//  (2) live chunks are copied forward and their new container is sealed and
//      indexed *before* any old container file is deleted, so a crash at any
//      point leaves every live chunk reachable (at worst duplicated in an
//      orphan container that recovery removes).
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "kvstore/logkv.h"
#include "obs/metrics.h"
#include "storage/backup_store.h"
#include "storage/block_cache.h"
#include "storage/container_tier.h"

namespace freqdedup {

class FileBackupStore : public BackupStore {
 public:
  /// Opens (creating if missing) the store rooted at `dir` and recovers any
  /// existing state. Throws std::runtime_error on unrecoverable I/O failure.
  /// StoreOptions shape the codec of new containers, the block cache's byte
  /// budget and the demotion policy; a freshly opened store always starts
  /// with a cold cache and reads back whatever codecs and tier placement the
  /// directory already holds.
  explicit FileBackupStore(const std::string& dir,
                           const StoreOptions& options = {});
  /// Seals the open container and flushes the index (errors are swallowed:
  /// an unflushed container is the state recovery already handles).
  ~FileBackupStore() override;
  FileBackupStore(const FileBackupStore&) = delete;
  FileBackupStore& operator=(const FileBackupStore&) = delete;

  [[nodiscard]] bool hasChunk(Fp cipherFp) const override;
  bool putChunk(Fp cipherFp, ByteView bytes) override;
  bool putKnownChunk(Fp cipherFp, uint32_t size) override;
  ByteVec getChunk(Fp cipherFp) override;
  std::vector<ByteVec> getChunks(std::span<const Fp> cipherFps) override;
  [[nodiscard]] std::vector<std::optional<ChunkPlacement>> chunkLocator(
      std::span<const Fp> cipherFps) const override;
  [[nodiscard]] uint32_t chunkRefCount(Fp cipherFp) const override;

  void putBlob(const std::string& name, ByteView bytes) override;
  std::optional<ByteVec> getBlob(const std::string& name) override;
  bool eraseBlob(const std::string& name) override;
  [[nodiscard]] std::vector<std::string> listBlobs() override;

  void recordBackup(const std::string& name,
                    std::span<const Fp> chunkRefs) override;
  void recordBackupDeferred(const std::string& name,
                            std::span<const Fp> chunkRefs) override;
  void stageBackup(const std::string& name, std::span<const Fp> chunkRefs,
                   ByteView recipeBlob) override {
    stageRecordBackup(name, chunkRefs, recipeBlob);
  }
  void syncMetadataAsync(std::function<void(bool ok)> done) override;
  bool releaseBackup(const std::string& name) override;
  [[nodiscard]] std::vector<std::string> listBackups() override;
  std::optional<std::vector<Fp>> backupRefs(const std::string& name) override;

  GcStats collectGarbage() override;
  StoreCheckReport verify() override;
  void flush() override;

  [[nodiscard]] BackupStoreStats stats() const override;
  [[nodiscard]] StoreReadStats readStats() const override;
  [[nodiscard]] obs::MetricsSnapshot metricsSnapshot() const override {
    return registry_.snapshot();
  }
  [[nodiscard]] size_t containerCount() const override;

  /// The block cache's own counters (hits/admissions/evictions/
  /// invalidations/bytes), for tests and diagnostics.
  [[nodiscard]] BlockCache::Stats readCacheStats() const {
    return readCache_.stats();
  }

  /// The store options this instance was opened with.
  [[nodiscard]] const StoreOptions& storeOptions() const { return options_; }

  /// What recovery had to repair while opening this store.
  [[nodiscard]] const StoreRecoveryStats& recoveryStats() const {
    return recovery_;
  }

 private:
  /// Decoded 'C' index entry, plus the chunk's refcount, which is kept only
  /// in memory (see the header comment).
  struct ChunkEntry {
    uint32_t containerId = 0;
    uint32_t entryIndex = 0;
    uint32_t size = 0;
    uint32_t refs = 0;
  };

  struct OpenChunk {
    ByteVec bytes;
    uint32_t refs = 0;  // carried refcount (non-zero only during GC)
  };

  static ByteVec chunkKey(Fp fp);
  static ByteVec encodeChunkEntry(const ChunkEntry& e);
  static ChunkEntry decodeChunkEntry(ByteView value);

  /// Open-time recovery, run after the LogKv has replayed its log:
  /// validates every container file's trailer (full CRC + structure parse),
  /// deletes orphan containers and stray .tmp files, drops index entries
  /// whose container is missing or corrupt (renamed to *.corrupt), derives
  /// refcounts from the manifests and rebuilds stats from the surviving
  /// index.
  StoreRecoveryStats recover();

  /// Shared body of recordBackup, recordBackupDeferred and stageBackup:
  /// writes the manifest (and recipe blob) as one record, moves the
  /// refcounts under mu_ and returns the LSN a durability wait must cover.
  uint64_t stageRecordBackup(const std::string& name,
                             std::span<const Fp> chunkRefs,
                             std::optional<ByteView> recipeBlob);

  // Metadata helpers; all require mu_ to be held by the caller.
  [[nodiscard]] bool hasChunkLocked(Fp cipherFp) const;
  void stageChunkLocked(Fp fp, ByteView bytes, uint32_t refs);
  void sealOpenContainerLocked();
  /// The table entry of a sealed chunk; throws when the store lacks it.
  [[nodiscard]] ChunkEntry sealedChunkLocked(Fp fp) const;
  void adjustRefsLocked(Fp fp, int64_t delta);
  std::optional<std::vector<Fp>> backupRefsLocked(const std::string& name);
  /// Container for admin paths (GC/verify) that already hold mu_. Serves
  /// from the cache when present but never admits (single-visit scans).
  std::shared_ptr<const Container> loadContainerLocked(uint32_t id);
  /// The chunk table grouped by container id.
  [[nodiscard]] std::unordered_map<
      uint32_t, std::vector<std::pair<Fp, ChunkEntry>>>
  chunkEntriesByContainerLocked();

  /// Copies a cold container's frame back into the hot tier (verbatim
  /// bytes) and removes the cold copy. No-op when the container is no
  /// longer live or already hot. Takes mu_ internally.
  void promoteContainer(uint32_t id, ByteView frame);

  // Read path; must NOT be called with mu_ held.
  BlockCache::Entry fetchContainer(uint32_t id);
  BlockCache::Entry loadAndAdmit(uint32_t id);
  ByteVec serveChunk(Fp fp, ChunkEntry e);
  /// Extracts one chunk's payload after re-checking placement, fingerprint,
  /// bounds and the admission-time payload CRC. Throws on any mismatch
  /// (CRC failures also count store.crc_recheck_failures).
  ByteVec extractPayload(const BlockCache::Entry& cached, Fp fp,
                         const ChunkEntry& e);

  // Per-instance metrics. The registry lives for the store's lifetime, so a
  // fresh open (including one that ran recovery) starts every counter from
  // zero. Declared before tiers_ and readCache_, which register their
  // tier.*, store.container_* and cache.* metrics here.
  mutable obs::MetricsRegistry registry_;
  /// Both container tiers; declared before index_ so <dir> exists when the
  /// index log opens there. Its placement map is guarded by mu_.
  ContainerTiers tiers_;
  /// The index log at <dir>/index.log.
  LogKv index_;
  ContainerBuilder builder_;
  /// Every sealed chunk: the decoded 'C' entries and their refcounts.
  std::unordered_map<Fp, ChunkEntry, FpHash> chunks_;
  std::unordered_map<Fp, OpenChunk, FpHash> openChunks_;  // not yet sealed
  /// The name of every manifest in the index, so listing backups reads no
  /// chunk key. Recovery fills it; commits insert and releases erase.
  std::set<std::string> backupNames_;
  uint32_t nextContainerId_ = 0;

  StoreOptions options_;
  StoreRecoveryStats recovery_;
  // The hot-path metrics, resolved in registry_ once.
  obs::Counter& putChunks_;
  obs::Counter& putBytes_;
  obs::Gauge& uniqueChunks_;
  obs::Gauge& storedBytes_;
  obs::Counter& chunkReads_;
  obs::Counter& batchReads_;
  obs::Counter& containerLoads_;
  obs::Counter& readCacheHits_;
  obs::Counter& readRetries_;
  obs::Counter& containerWrites_;
  obs::Counter& crcRecheckFailures_;
  obs::Counter& singleflightCoalesces_;
  obs::Histogram& containerLoadUs_;
  obs::Histogram& gcUs_;

  /// Guards the metadata members above (index, open container, ids, tier
  /// placement). The read cache and registry counters are internally
  /// synchronized and safe to touch without it.
  mutable std::mutex mu_;
  mutable BlockCache readCache_;  // byte-budgeted container block cache

  // Single-flight miss handling: concurrent read-path misses for one
  // container coalesce into a single file read; waiters are served from the
  // cache the loader admits to (or load themselves when the cache retains
  // nothing). Guarded by loadMu_, never held across file I/O.
  std::mutex loadMu_;
  std::condition_variable loadCv_;
  std::unordered_set<uint32_t> loading_;
};

}  // namespace freqdedup
