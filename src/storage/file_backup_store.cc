#include "storage/file_backup_store.h"

#include <algorithm>
#include <stdexcept>

#include "common/crc32.h"
#include "common/varint.h"
#include "obs/trace.h"

namespace freqdedup {

namespace {

constexpr char kChunkKeyPrefix = 'C';
constexpr char kBlobKeyPrefix = 'B';
constexpr char kManifestKeyPrefix = 'M';

/// A read that races GC compaction re-resolves its fingerprint and retries
/// this many times before the failure is treated as real corruption.
constexpr int kReadRetryAttempts = 3;

ByteVec prefixedKey(char prefix, const std::string& name) {
  ByteVec key;
  key.reserve(1 + name.size());
  key.push_back(static_cast<uint8_t>(prefix));
  appendBytes(key, ByteView(reinterpret_cast<const uint8_t*>(name.data()),
                            name.size()));
  return key;
}

ByteVec manifestKey(const std::string& name) {
  return prefixedKey(kManifestKeyPrefix, name);
}

ByteVec blobKey(const std::string& name) {
  return prefixedKey(kBlobKeyPrefix, name);
}

/// Manifest payload: varint count, count * fp(u64), trailing CRC-32C.
ByteVec serializeManifest(std::span<const Fp> refs) {
  ByteVec out;
  putVarint(out, refs.size());
  for (const Fp fp : refs) putU64(out, fp);
  putU32(out, crc32c(out));
  return out;
}

std::vector<Fp> parseManifest(ByteView bytes) {
  if (bytes.size() < 5)
    throw std::runtime_error("manifest: input too short");
  const size_t bodySize = bytes.size() - 4;
  if (crc32c(bytes.subspan(0, bodySize)) != getU32(bytes, bodySize))
    throw std::runtime_error("manifest: checksum mismatch");
  const ByteView body = bytes.subspan(0, bodySize);
  size_t offset = 0;
  const auto count = getVarint(body, offset);
  if (!count) throw std::runtime_error("manifest: truncated header");
  if (*count > (bodySize - offset) / 8)
    throw std::runtime_error("manifest: truncated refs");
  std::vector<Fp> refs;
  refs.reserve(static_cast<size_t>(*count));
  for (uint64_t i = 0; i < *count; ++i) {
    refs.push_back(getU64(body, offset));
    offset += 8;
  }
  if (offset != bodySize)
    throw std::runtime_error("manifest: trailing garbage");
  return refs;
}

}  // namespace

ByteVec FileBackupStore::chunkKey(Fp fp) {
  ByteVec key;
  key.push_back(static_cast<uint8_t>(kChunkKeyPrefix));
  putU64(key, fp);
  return key;
}

ByteVec FileBackupStore::encodeChunkEntry(const ChunkEntry& e) {
  ByteVec value;
  putU32(value, e.containerId);
  putU32(value, e.entryIndex);
  putU32(value, e.size);
  return value;
}

FileBackupStore::ChunkEntry FileBackupStore::decodeChunkEntry(
    ByteView value) {
  // 16 bytes is the legacy form, which also logged a refcount; recovery
  // derives refcounts from the manifests, so that field is ignored.
  if (value.size() != 12 && value.size() != 16)
    throw std::runtime_error("BackupStore: malformed index entry");
  return ChunkEntry{getU32(value, 0), getU32(value, 4), getU32(value, 8)};
}

FileBackupStore::FileBackupStore(const std::string& dir,
                                 const StoreOptions& options)
    : tiers_(dir, options.codec, registry_),
      index_(dir + "/index.log"),
      builder_(options.containerBytes),
      options_(options),
      putChunks_(registry_.counter("store.put_chunks")),
      putBytes_(registry_.counter("store.put_bytes")),
      uniqueChunks_(registry_.gauge("store.unique_chunks")),
      storedBytes_(registry_.gauge("store.stored_bytes")),
      chunkReads_(registry_.counter("store.chunk_reads")),
      batchReads_(registry_.counter("store.batch_reads")),
      containerLoads_(registry_.counter("store.container_loads")),
      readCacheHits_(registry_.counter("store.read_cache_hits")),
      readRetries_(registry_.counter("store.read_retries")),
      containerWrites_(registry_.counter("store.container_writes")),
      crcRecheckFailures_(registry_.counter("store.crc_recheck_failures")),
      singleflightCoalesces_(
          registry_.counter("store.singleflight_coalesces")),
      containerLoadUs_(registry_.histogram("store.container_load_us")),
      gcUs_(registry_.histogram("store.gc_us")),
      readCache_(options.blockCacheBytes, registry_) {
  // Surface the index's WAL/checkpoint/recovery activity (wal.*, ckpt.*)
  // in this store's registry alongside the store.* metrics.
  index_.bindMetrics(registry_);
  recovery_ = recover();
}

FileBackupStore::~FileBackupStore() {
  try {
    flush();
  } catch (...) {  // NOLINT(bugprone-empty-catch)
    // Destructors must not throw; an unflushed open container is the same
    // state as a crash before flush(), which recovery tolerates.
  }
}

bool FileBackupStore::hasChunkLocked(Fp cipherFp) const {
  return openChunks_.contains(cipherFp) || chunks_.contains(cipherFp);
}

bool FileBackupStore::hasChunk(Fp cipherFp) const {
  std::lock_guard lock(mu_);
  return hasChunkLocked(cipherFp);
}

uint32_t FileBackupStore::chunkRefCount(Fp cipherFp) const {
  std::lock_guard lock(mu_);
  const auto it = openChunks_.find(cipherFp);
  if (it != openChunks_.end()) return it->second.refs;
  const auto chunk = chunks_.find(cipherFp);
  return chunk == chunks_.end() ? 0 : chunk->second.refs;
}

bool FileBackupStore::putChunk(Fp cipherFp, ByteView bytes) {
  std::lock_guard lock(mu_);
  putChunks_.add();
  putBytes_.add(bytes.size());
  if (hasChunkLocked(cipherFp)) return false;
  stageChunkLocked(cipherFp, bytes, /*refs=*/0);
  uniqueChunks_.add(1);
  storedBytes_.add(static_cast<int64_t>(bytes.size()));
  return true;
}

bool FileBackupStore::putKnownChunk(Fp cipherFp, uint32_t size) {
  std::lock_guard lock(mu_);
  if (!hasChunkLocked(cipherFp)) return false;
  putChunks_.add();
  putBytes_.add(size);
  return true;
}

void FileBackupStore::stageChunkLocked(Fp fp, ByteView bytes,
                                       uint32_t refs) {
  if (builder_.wouldOverflow(static_cast<uint32_t>(bytes.size())))
    sealOpenContainerLocked();
  builder_.add(fp, static_cast<uint32_t>(bytes.size()), bytes);
  openChunks_.emplace(fp,
                      OpenChunk{ByteVec(bytes.begin(), bytes.end()), refs});
}

void FileBackupStore::sealOpenContainerLocked() {
  if (builder_.empty()) return;
  const uint32_t id = nextContainerId_++;
  Container container = builder_.seal(id);
  // Persist the container before its index entries: a crash in between
  // leaves only an orphan container file, which recovery deletes.
  tiers_.write(container);
  for (uint32_t i = 0; i < container.entries.size(); ++i) {
    const Fp fp = container.entries[i].fp;
    const ChunkEntry e{id, i, container.entries[i].size,
                       openChunks_.at(fp).refs};
    index_.put(chunkKey(fp), encodeChunkEntry(e));
    chunks_.insert_or_assign(fp, e);
  }
  containerWrites_.add();
  if (readCache_.enabled()) {
    // Keep the freshly sealed container hot. Admission CRCs its payloads
    // while we hold the store lock. For a full 4 MiB container that pass is
    // ~0.6 ms and serializing the frame (copy + CRC) ~1.4 ms with the SSE4.2
    // CRC kernel, against ~14 and ~15 ms with the table loop (4-core Xeon
    // VM). Admission is skipped entirely when the cache cannot retain the
    // entry anyway.
    readCache_.admit(id,
                     std::make_shared<const Container>(std::move(container)));
  }
  openChunks_.clear();
}

std::shared_ptr<const Container> FileBackupStore::loadContainerLocked(
    uint32_t id) {
  if (auto cached = readCache_.get(id)) return cached->container;
  // Deliberately not admitted: admin scans (GC, verify) visit each
  // container once, so admission would only pay the CRC-table pass and
  // evict the restore working set from the bounded cache. Cold containers
  // are likewise read in place, not promoted — a scan must not drag the
  // whole cold tier back into the hot directory.
  return tiers_.load(id).container;
}

void FileBackupStore::promoteContainer(uint32_t id, ByteView frame) {
  // Entirely under mu_: the cold-copy removal must not race a GC pass that
  // re-demoted the container, or the only surviving copy could be deleted.
  std::lock_guard lock(mu_);
  tiers_.move(id, Tier::kCold, Tier::kHot, frame);
}

BlockCache::Entry FileBackupStore::loadAndAdmit(uint32_t id) {
  if (!readCache_.enabled()) {
    // Cache disabled: nothing a loader admits could serve a waiter, so
    // single-flight coalescing would only serialize concurrent misses.
    // Every miss loads independently, in parallel.
    obs::ObsSpan span(&containerLoadUs_, "store.container_load", "store");
    ContainerTiers::Loaded loaded = tiers_.load(id);
    containerLoads_.add();
    if (!loaded.coldFrame.empty()) promoteContainer(id, loaded.coldFrame);
    return BlockCache::makeEntry(std::move(loaded.container));
  }
  {
    std::unique_lock lock(loadMu_);
    bool waited = false;
    for (;;) {
      // Re-check under loadMu_ on every pass: a loader that finished —
      // whether we waited on it or it completed between our fetchContainer
      // miss and this lock — has already admitted the container, and
      // re-reading the file would both duplicate I/O and double-count
      // containerLoads. (recordStats=false: fetchContainer already counted
      // this logical lookup's miss.)
      if (auto cached = readCache_.get(id, /*recordStats=*/false)) {
        readCacheHits_.add();
        return *cached;
      }
      if (!loading_.contains(id)) break;
      if (!waited) {
        // This miss joined an in-flight load instead of issuing its own
        // file read — the coalescing the single-flight gate exists for.
        waited = true;
        singleflightCoalesces_.add();
      }
      loadCv_.wait(lock);
    }
    loading_.insert(id);
  }
  const auto finishLoad = [&] {
    {
      std::lock_guard lock(loadMu_);
      loading_.erase(id);
    }
    loadCv_.notify_all();
  };
  try {
    obs::ObsSpan span(&containerLoadUs_, "store.container_load", "store");
    ContainerTiers::Loaded loaded = tiers_.load(id);
    span.finish();
    containerLoads_.add();
    BlockCache::Entry entry =
        readCache_.admit(id, std::move(loaded.container));
    // A cold hit is promoted with the verbatim frame bytes we just read —
    // no re-serialization, so the hot copy is bit-identical to the cold one
    // (same codec, same CRC). The promotion itself re-checks liveness and
    // tier placement under mu_.
    if (!loaded.coldFrame.empty()) promoteContainer(id, loaded.coldFrame);
    // Close the admit-vs-GC race: if GC compacted this container while we
    // were reading it (its invalidate() ran before our admit()), drop the
    // re-admitted entry so a dead container never pins a cache slot. GC
    // holds mu_ for its whole pass, so this check is before-or-after, never
    // interleaved; our local entry stays valid either way (ids are never
    // reused and the bytes are correct for the placement we resolved).
    {
      std::lock_guard lock(mu_);
      if (!tiers_.contains(id)) readCache_.invalidate(id);
    }
    finishLoad();
    return entry;
  } catch (...) {
    finishLoad();
    throw;
  }
}

BlockCache::Entry FileBackupStore::fetchContainer(uint32_t id) {
  tiers_.noteRead(id);
  if (auto cached = readCache_.get(id)) {
    readCacheHits_.add();
    return *cached;
  }
  return loadAndAdmit(id);
}

ByteVec FileBackupStore::extractPayload(
    const BlockCache::Entry& cached, Fp fp, const ChunkEntry& e) {
  const Container& container = *cached.container;
  if (e.entryIndex >= container.entries.size())
    throw std::runtime_error("BackupStore: index entry out of range for " +
                             fpToHex(fp));
  const ContainerEntry& entry = container.entries[e.entryIndex];
  if (entry.fp != fp || entry.size != e.size ||
      entry.dataOffset + entry.size > container.data.size())
    throw std::runtime_error("BackupStore: container/index mismatch for " +
                             fpToHex(fp));
  const ByteView payload =
      ByteView(container.data).subspan(entry.dataOffset, entry.size);
  // Every serve — cache hit or fresh load — re-checks the payload against
  // the CRC computed at admission, so a corrupted cached copy can never be
  // served as valid bytes.
  if (crc32c(payload) != (*cached.payloadCrcs)[e.entryIndex]) {
    crcRecheckFailures_.add();
    throw std::runtime_error("BackupStore: payload CRC mismatch for " +
                             fpToHex(fp));
  }
  return ByteVec(payload.begin(), payload.end());
}

ByteVec FileBackupStore::serveChunk(Fp fp, ChunkEntry e) {
  for (int attempt = 1;; ++attempt) {
    try {
      return extractPayload(fetchContainer(e.containerId), fp, e);
    } catch (const std::exception&) {
      // A concurrent GC may have compacted the container between the index
      // lookup and the container fetch (file deleted, chunk relocated).
      // Re-resolve the fingerprint against the current index and retry;
      // real corruption resolves to the same placement and rethrows.
      if (attempt >= kReadRetryAttempts) throw;
      readCache_.invalidate(e.containerId);
      ChunkEntry fresh;
      {
        std::lock_guard lock(mu_);
        const auto openIt = openChunks_.find(fp);
        if (openIt != openChunks_.end()) return openIt->second.bytes;
        fresh = sealedChunkLocked(fp);
      }
      if (fresh.containerId == e.containerId &&
          fresh.entryIndex == e.entryIndex)
        throw;
      e = fresh;
      readRetries_.add();
    }
  }
}

ByteVec FileBackupStore::getChunk(Fp cipherFp) {
  chunkReads_.add();
  ChunkEntry e;
  {
    std::lock_guard lock(mu_);
    const auto openIt = openChunks_.find(cipherFp);
    if (openIt != openChunks_.end()) return openIt->second.bytes;
    e = sealedChunkLocked(cipherFp);
  }
  return serveChunk(cipherFp, e);
}

std::vector<ByteVec> FileBackupStore::getChunks(
    std::span<const Fp> cipherFps) {
  batchReads_.add();
  chunkReads_.add(cipherFps.size());
  std::vector<ByteVec> out(cipherFps.size());

  // Phase 1 (index, under the lock): resolve every fingerprint to its
  // placement; open-container chunks are copied out directly.
  struct Need {
    size_t at = 0;  // position in the request / output
    Fp fp = 0;
    ChunkEntry entry;
  };
  std::vector<Need> needs;
  needs.reserve(cipherFps.size());
  {
    std::lock_guard lock(mu_);
    for (size_t i = 0; i < cipherFps.size(); ++i) {
      const auto openIt = openChunks_.find(cipherFps[i]);
      if (openIt != openChunks_.end()) {
        out[i] = openIt->second.bytes;
        continue;
      }
      needs.push_back({i, cipherFps[i], sealedChunkLocked(cipherFps[i])});
    }
  }

  // Phase 2 (containers, no lock): serve container by container, so one
  // fetch covers every chunk the batch takes from it. Containers are
  // visited in first-appearance order — not ascending id — so a bounded
  // read cache sees the same front-to-back locality the request had, and
  // the stable sort keeps request order within a container.
  std::unordered_map<uint32_t, size_t> groupRank;
  for (const Need& need : needs)
    groupRank.emplace(need.entry.containerId, groupRank.size());
  std::stable_sort(needs.begin(), needs.end(),
                   [&groupRank](const Need& a, const Need& b) {
                     return groupRank.at(a.entry.containerId) <
                            groupRank.at(b.entry.containerId);
                   });
  for (size_t i = 0; i < needs.size();) {
    size_t j = i;
    const uint32_t id = needs[i].entry.containerId;
    while (j < needs.size() && needs[j].entry.containerId == id) ++j;
    try {
      const BlockCache::Entry cached = fetchContainer(id);
      for (size_t k = i; k < j; ++k)
        out[needs[k].at] = extractPayload(cached, needs[k].fp, needs[k].entry);
    } catch (const std::exception&) {
      // GC race or corruption: fall back to per-chunk serving, which
      // re-resolves each fingerprint and retries before giving up. A chunk
      // whose retry still fails (genuine corruption) throws out of this
      // loop immediately — the rest of the group is not re-attempted.
      for (size_t k = i; k < j; ++k)
        out[needs[k].at] = serveChunk(needs[k].fp, needs[k].entry);
    }
    i = j;
  }
  return out;
}

std::vector<std::optional<ChunkPlacement>> FileBackupStore::chunkLocator(
    std::span<const Fp> cipherFps) const {
  std::vector<std::optional<ChunkPlacement>> out(cipherFps.size());
  std::lock_guard lock(mu_);
  for (size_t i = 0; i < cipherFps.size(); ++i) {
    const auto it = chunks_.find(cipherFps[i]);
    if (it == chunks_.end()) continue;  // absent, or in the open container
    const ChunkEntry& e = it->second;
    out[i] = ChunkPlacement{e.containerId, e.entryIndex, e.size};
  }
  return out;
}

BackupStoreStats FileBackupStore::stats() const {
  BackupStoreStats s;
  s.logicalPuts = putChunks_.value();
  s.logicalBytes = putBytes_.value();
  s.uniqueChunks = static_cast<uint64_t>(uniqueChunks_.value());
  s.storedBytes = static_cast<uint64_t>(storedBytes_.value());
  return s;
}

StoreReadStats FileBackupStore::readStats() const {
  StoreReadStats s;
  s.chunkReads = chunkReads_.value();
  s.batchReads = batchReads_.value();
  s.containerLoads = containerLoads_.value();
  s.cacheHits = readCacheHits_.value();
  s.readRetries = readRetries_.value();
  s.coldReads = tiers_.coldReads();
  s.promotions = tiers_.promotions();
  return s;
}

size_t FileBackupStore::containerCount() const {
  std::lock_guard lock(mu_);
  return tiers_.count();
}

void FileBackupStore::putBlob(const std::string& name, ByteView bytes) {
  std::lock_guard lock(mu_);
  index_.put(blobKey(name), bytes);
}

std::optional<ByteVec> FileBackupStore::getBlob(const std::string& name) {
  std::lock_guard lock(mu_);
  return index_.get(blobKey(name));
}

bool FileBackupStore::eraseBlob(const std::string& name) {
  std::lock_guard lock(mu_);
  return index_.erase(blobKey(name));
}

std::vector<std::string> FileBackupStore::listBlobs() {
  std::lock_guard lock(mu_);
  std::vector<std::string> names;
  index_.forEachKey([&names](ByteView key) {
    if (!key.empty() && key[0] == static_cast<uint8_t>(kBlobKeyPrefix)) {
      names.emplace_back(reinterpret_cast<const char*>(key.data()) + 1,
                         key.size() - 1);
    }
  });
  return names;
}

FileBackupStore::ChunkEntry FileBackupStore::sealedChunkLocked(Fp fp) const {
  const auto it = chunks_.find(fp);
  if (it == chunks_.end())
    throw std::runtime_error("BackupStore: chunk not found: " + fpToHex(fp));
  return it->second;
}

void FileBackupStore::adjustRefsLocked(Fp fp, int64_t delta) {
  const auto it = chunks_.find(fp);
  if (it == chunks_.end()) {
    // Dropping a reference to a chunk that no longer exists (e.g. lost to a
    // corrupt container and already reported by recovery) is a no-op;
    // adding one is a caller error.
    if (delta <= 0) return;
    throw std::runtime_error("BackupStore: reference to unknown chunk " +
                             fpToHex(fp));
  }
  const int64_t refs = static_cast<int64_t>(it->second.refs) + delta;
  // Clamp defensively: an underflow means a corrupt manifest, and verify()
  // reports the accounting mismatch rather than deletion failing halfway.
  it->second.refs = refs < 0 ? 0 : static_cast<uint32_t>(refs);
}

void FileBackupStore::recordBackup(const std::string& name,
                                   std::span<const Fp> chunkRefs) {
  const Lsn commitLsn = stageRecordBackup(name, chunkRefs);
  // Durable commit, outside the metadata lock: when recordBackup returns,
  // the manifest survives power loss. Concurrent committers block here
  // together and one group fdatasync covers all of them (the group-commit
  // WAL's whole point) instead of serializing an fsync each under mu_.
  index_.sync(commitLsn);
}

void FileBackupStore::recordBackupDeferred(const std::string& name,
                                           std::span<const Fp> chunkRefs) {
  // Same staging, durability deferred to the caller's syncMetadataAsync()/
  // flush(): the pipelined form the server's commit path rides.
  stageRecordBackup(name, chunkRefs);
}

void FileBackupStore::syncMetadataAsync(
    std::function<void(bool ok)> done) {
  Lsn lsn = 0;
  {
    std::lock_guard lock(mu_);
    lsn = index_.appendedLsn();
  }
  index_.syncAsync(lsn, std::move(done));
}

uint64_t FileBackupStore::stageRecordBackup(
    const std::string& name, std::span<const Fp> chunkRefs) {
  Lsn commitLsn = 0;
  {
    std::lock_guard lock(mu_);
    sealOpenContainerLocked();
    std::unordered_map<Fp, int64_t, FpHash> deltas;
    for (const Fp fp : chunkRefs) ++deltas[fp];
    // Validate every reference before mutating anything, so a bad manifest
    // cannot leave refcounts half-applied.
    for (const auto& [fp, n] : deltas) {
      if (!chunks_.contains(fp))
        throw std::runtime_error("recordBackup: chunk not stored: " +
                                 fpToHex(fp));
    }
    // Re-recording a name replaces its references. The old manifest is never
    // erased first: the manifest key is swapped in one put (atomic at the
    // log-record level), so a crash at any point leaves either the old or
    // the new manifest — never none. Refcounts move by delta in memory only;
    // the next open derives them from whichever manifest survived.
    for (const Fp fp : backupRefsLocked(name).value_or(std::vector<Fp>{}))
      --deltas[fp];
    for (const auto& [fp, delta] : deltas)
      if (delta != 0) adjustRefsLocked(fp, delta);
    index_.put(manifestKey(name), serializeManifest(chunkRefs));
    backupNames_.insert(name);
    registry_.counter("store.backups_recorded").add();
    commitLsn = index_.appendedLsn();
  }
  return commitLsn;
}

std::optional<std::vector<Fp>> FileBackupStore::backupRefsLocked(
    const std::string& name) {
  const auto blob = index_.get(manifestKey(name));
  if (!blob) return std::nullopt;
  return parseManifest(*blob);
}

std::optional<std::vector<Fp>> FileBackupStore::backupRefs(
    const std::string& name) {
  std::lock_guard lock(mu_);
  return backupRefsLocked(name);
}

bool FileBackupStore::releaseBackup(const std::string& name) {
  Lsn commitLsn = 0;
  {
    std::lock_guard lock(mu_);
    const auto blob = index_.get(manifestKey(name));
    if (!blob) return false;
    std::unordered_map<Fp, uint32_t, FpHash> counts;
    for (const Fp fp : parseManifest(*blob)) ++counts[fp];
    for (const auto& [fp, n] : counts)
      adjustRefsLocked(fp, -static_cast<int64_t>(n));
    index_.erase(manifestKey(name));
    backupNames_.erase(name);
    registry_.counter("store.backups_released").add();
    commitLsn = index_.appendedLsn();
  }
  // Durable delete, group-committed outside the lock (see recordBackup).
  index_.sync(commitLsn);
  return true;
}

std::vector<std::string> FileBackupStore::listBackups() {
  std::lock_guard lock(mu_);
  return {backupNames_.begin(), backupNames_.end()};
}

std::unordered_map<uint32_t,
                   std::vector<std::pair<Fp, FileBackupStore::ChunkEntry>>>
FileBackupStore::chunkEntriesByContainerLocked() {
  std::unordered_map<uint32_t, std::vector<std::pair<Fp, ChunkEntry>>> result;
  for (const auto& [fp, e] : chunks_) result[e.containerId].emplace_back(fp, e);
  return result;
}

void FileBackupStore::flushIndexLocked() {
  index_.flush();
}

GcStats FileBackupStore::collectGarbage() {
  // GC invariants:
  //  (1) a chunk is reclaimed only when its reference count is zero — no
  //      recorded backup manifest references it;
  //  (2) relocated live chunks are sealed and indexed (phase 2) before any
  //      old container is deleted (phase 3), so a crash at any point leaves
  //      every live chunk reachable — at worst duplicated in a container
  //      that recovery treats as orphaned and removes.
  //
  // The whole pass holds the metadata lock, so a concurrent batched read
  // observes either the pre-GC index (old containers still on disk until
  // phase 3; a vanished file triggers its re-resolve + retry path) or the
  // fully compacted one — never a half-applied relocation.
  GcStats gc;
  obs::ObsSpan span(&gcUs_, "store.gc", "store");
  std::lock_guard lock(mu_);
  sealOpenContainerLocked();
  auto byContainer = chunkEntriesByContainerLocked();

  // Phase 1: copy live chunks out of every container that holds dead ones.
  std::vector<uint32_t> doomed;
  for (auto& [id, entries] : byContainer) {
    bool anyDead = false;
    for (const auto& [fp, e] : entries) anyDead |= e.refs == 0;
    if (!anyDead) continue;
    const auto container = loadContainerLocked(id);
    for (const auto& [fp, e] : entries) {
      if (e.refs == 0) continue;
      if (e.entryIndex >= container->entries.size() ||
          container->entries[e.entryIndex].fp != fp)
        throw std::runtime_error("gc: container/index mismatch for " +
                                 fpToHex(fp));
      const ContainerEntry& ce = container->entries[e.entryIndex];
      if (ce.dataOffset + ce.size > container->data.size())
        throw std::runtime_error("gc: chunk payload out of range for " +
                                 fpToHex(fp));
      stageChunkLocked(fp,
                       ByteView(container->data).subspan(ce.dataOffset,
                                                         ce.size),
                       e.refs);
      ++gc.chunksRelocated;
    }
    doomed.push_back(id);
  }

  // Phase 2: persist the relocations before anything is deleted.
  sealOpenContainerLocked();
  flushIndexLocked();

  // Phase 3: drop dead index entries and reclaim the doomed containers.
  for (const uint32_t id : doomed) {
    for (const auto& [fp, e] : byContainer[id]) {
      if (e.refs != 0) continue;
      index_.erase(chunkKey(fp));
      chunks_.erase(fp);
      uniqueChunks_.sub(1);
      storedBytes_.sub(e.size);
      ++gc.chunksReclaimed;
      gc.bytesReclaimed += e.size;
    }
    readCache_.invalidate(id);
    tiers_.drop(id);
    ++gc.containersCompacted;
  }

  // Phase 4 (optional): demote the least recently read containers until the
  // hot tier's physical bytes drop to the configured target. Runs after
  // compaction so doomed containers are never demoted.
  if (options_.coldTier.demoteOnGc)
    gc.containersDemoted = tiers_.demote(options_.coldTier);

  // Phase 5: checkpoint the index. The checkpoint snapshots only live
  // records (reclaiming the dead ones GC just created), makes everything
  // durable, and rotates the WAL so the next open replays an empty tail.
  index_.checkpoint();
  registry_.counter("store.gc_runs").add();
  registry_.counter("store.gc_relocated_chunks").add(gc.chunksRelocated);
  registry_.counter("store.gc_reclaimed_chunks").add(gc.chunksReclaimed);
  registry_.counter("store.gc_reclaimed_bytes").add(gc.bytesReclaimed);
  registry_.counter("store.gc_compacted_containers")
      .add(gc.containersCompacted);
  return gc;
}

StoreCheckReport FileBackupStore::verify() {
  StoreCheckReport report;
  std::lock_guard lock(mu_);
  sealOpenContainerLocked();
  const auto byContainer = chunkEntriesByContainerLocked();

  // Manifest accounting: expected refcount per fingerprint.
  std::unordered_map<Fp, uint64_t, FpHash> manifestRefs;
  for (const std::string& name : backupNames_) {
    const auto blob = index_.get(manifestKey(name));
    if (!blob) continue;  // racing deletion; nothing to check
    try {
      for (const Fp fp : parseManifest(*blob)) ++manifestRefs[fp];
      ++report.backupsChecked;
    } catch (const std::exception& e) {
      report.errors.emplace_back("backup '" + name + "': " + e.what());
    }
  }

  // Every index entry must resolve to a matching container entry.
  std::unordered_map<Fp, uint32_t, FpHash> indexedRefs;
  for (const auto& [id, entries] : byContainer) {
    std::shared_ptr<const Container> container;
    try {
      container = loadContainerLocked(id);
      ++report.containersChecked;
    } catch (const std::exception& e) {
      report.errors.emplace_back("container " + std::to_string(id) + ": " +
                                 e.what());
    }
    for (const auto& [fp, e] : entries) {
      ++report.chunksChecked;
      indexedRefs[fp] = e.refs;
      if (!container) continue;
      if (e.entryIndex >= container->entries.size()) {
        report.errors.emplace_back("chunk " + fpToHex(fp) +
                                   ": entry index out of range");
        continue;
      }
      const ContainerEntry& ce = container->entries[e.entryIndex];
      if (ce.fp != fp) {
        report.errors.emplace_back("chunk " + fpToHex(fp) +
                                   ": fingerprint mismatch in container");
      } else if (ce.size != e.size) {
        report.errors.emplace_back("chunk " + fpToHex(fp) +
                                   ": size mismatch in container");
      } else if (ce.dataOffset + ce.size > container->data.size()) {
        report.errors.emplace_back("chunk " + fpToHex(fp) +
                                   ": payload out of range");
      }
    }
  }

  // Reference counts must equal the manifest occurrence sums.
  for (const auto& [fp, n] : manifestRefs) {
    if (!indexedRefs.contains(fp))
      report.errors.emplace_back("manifest references missing chunk " +
                                 fpToHex(fp));
  }
  for (const auto& [fp, refs] : indexedRefs) {
    const auto it = manifestRefs.find(fp);
    const uint64_t expected = it == manifestRefs.end() ? 0 : it->second;
    if (refs != expected)
      report.errors.emplace_back(
          "refcount mismatch for " + fpToHex(fp) + ": index says " +
          std::to_string(refs) + ", manifests say " + std::to_string(expected));
  }

  // Every container file on disk — either tier — must be referenced.
  for (const std::string& path : tiers_.orphans(
           [&byContainer](uint32_t id) { return byContainer.contains(id); }))
    report.errors.emplace_back("orphan container file: " + path);
  return report;
}

StoreRecoveryStats FileBackupStore::recover() {
  StoreRecoveryStats rs;
  std::lock_guard lock(mu_);
  // The LogKv constructor already replayed the index log and truncated any
  // torn tail. One pass over it decodes every 'C' entry into the chunk
  // table and collects every manifest's name and references.
  std::vector<Fp> referenced;
  index_.forEach([this, &referenced](ByteView key, ByteView value) {
    if (key.empty()) return;
    if (key[0] == static_cast<uint8_t>(kChunkKeyPrefix)) {
      chunks_.emplace(getU64(key, 1), decodeChunkEntry(value));
    } else if (key[0] == static_cast<uint8_t>(kManifestKeyPrefix)) {
      const std::vector<Fp> refs = parseManifest(value);
      referenced.insert(referenced.end(), refs.begin(), refs.end());
      backupNames_.emplace(reinterpret_cast<const char*>(key.data()) + 1,
                           key.size() - 1);
    }
  });
  // Cross-check the container directory against that index. Tier placement
  // is never persisted: recovery discovers it by listing both tiers,
  // validating each indexed container and removing orphans.
  const auto byContainer = chunkEntriesByContainerLocked();
  nextContainerId_ = tiers_.recover(
      [&byContainer](uint32_t id) { return byContainer.contains(id); }, rs);

  // Drop index entries whose container is missing or failed validation;
  // manifests referencing them now dangle, which verify() reports as the
  // data loss it is.
  for (const auto& [id, entries] : byContainer) {
    nextContainerId_ = std::max(nextContainerId_, id + 1);
    if (tiers_.contains(id)) continue;
    for (const auto& [fp, e] : entries) {
      index_.erase(chunkKey(fp));
      chunks_.erase(fp);
      ++rs.entriesDropped;
    }
  }

  // Refcounts are never logged: each chunk's count is the number of times
  // the manifests reference it. A manifest swap is one log record, so the
  // counts derived here match the manifests at every log prefix a crash
  // can leave, and GC after reopen can never reclaim a chunk a surviving
  // manifest references.
  for (const Fp fp : referenced) {
    const auto it = chunks_.find(fp);
    if (it != chunks_.end()) ++it->second.refs;
  }

  // Rebuild stats from the surviving index. The registry is fresh for this
  // instance (reset-on-reopen), so the gauges start at zero here.
  for (const auto& [fp, e] : chunks_) {
    uniqueChunks_.add(1);
    storedBytes_.add(e.size);
  }
  if (rs.entriesDropped > 0 || rs.orphanContainersRemoved > 0)
    flushIndexLocked();
  return rs;
}

void FileBackupStore::flush() {
  std::lock_guard lock(mu_);
  sealOpenContainerLocked();
  flushIndexLocked();
}

}  // namespace freqdedup
