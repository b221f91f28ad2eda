#include "client/dedup_client.h"

#include <condition_variable>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "common/varint.h"
#include "pipeline/thread_pool.h"

namespace freqdedup {

DedupClient::DedupClient(BackupStore& store, RestoreOptions restoreOptions)
    : store_(&store),
      keyManager_(nullptr),
      chunker_(nullptr),
      restoreOptions_(restoreOptions) {
  restoreOptions_.validate();
  if (restoreOptions_.parallelism > 1)
    pool_ = std::make_unique<ThreadPool>(restoreOptions_.parallelism);
}

DedupClient::DedupClient(BackupStore& store, const KeyManager& keyManager,
                         const Chunker& chunker, BackupOptions options,
                         RestoreOptions restoreOptions)
    : DedupClient(store, restoreOptions) {
  options.segmentParams.validate();
  keyManager_ = &keyManager;
  chunker_ = &chunker;
  options_ = options;
}

DedupClient::~DedupClient() = default;

BackupSession DedupClient::beginBackup(std::string name) {
  FDD_CHECK_MSG(chunker_ != nullptr && keyManager_ != nullptr,
                "beginBackup on a restore-only DedupClient");
  return BackupSession(*this, std::move(name));
}

std::unique_ptr<BackupSession> DedupClient::beginBackupHandle(
    std::string name) {
  FDD_CHECK_MSG(chunker_ != nullptr && keyManager_ != nullptr,
                "beginBackupHandle on a restore-only DedupClient");
  // new instead of make_unique: the constructor is private to friends.
  return std::unique_ptr<BackupSession>(
      new BackupSession(*this, std::move(name)));
}

RestoreSession DedupClient::beginRestore(FileRecipe fileRecipe,
                                         KeyRecipe keyRecipe) {
  return RestoreSession(*this, std::move(fileRecipe), std::move(keyRecipe));
}

namespace {

/// The recipe blob packs both sealed recipes into one value so the pair is
/// swapped by a single (atomic) log record and can never tear: varint
/// lengths prefix each sealed section.
ByteVec packSealedRecipes(ByteView sealedFile, ByteView sealedKeys) {
  ByteVec out;
  putVarint(out, sealedFile.size());
  appendBytes(out, sealedFile);
  putVarint(out, sealedKeys.size());
  appendBytes(out, sealedKeys);
  return out;
}

std::pair<ByteVec, ByteVec> unpackSealedRecipes(ByteView blob) {
  size_t offset = 0;
  const auto fileLen = getVarint(blob, offset);
  if (!fileLen || *fileLen > blob.size() - offset)
    throw std::runtime_error("recipe blob: truncated file section");
  ByteVec sealedFile(blob.begin() + static_cast<ptrdiff_t>(offset),
                     blob.begin() + static_cast<ptrdiff_t>(offset + *fileLen));
  offset += static_cast<size_t>(*fileLen);
  const auto keyLen = getVarint(blob, offset);
  if (!keyLen || *keyLen != blob.size() - offset)
    throw std::runtime_error("recipe blob: truncated key section");
  ByteVec sealedKeys(blob.begin() + static_cast<ptrdiff_t>(offset),
                     blob.end());
  return {std::move(sealedFile), std::move(sealedKeys)};
}

}  // namespace

RestoreSession DedupClient::beginRestore(const std::string& name,
                                         const AesKey& userKey) {
  std::optional<ByteVec> blob;
  {
    std::lock_guard lock(storeMu_);
    blob = store_->getBlob(recipeBlobName(name));
  }
  if (!blob) throw std::runtime_error("beginRestore: no recipes for " + name);
  const auto [sealedFile, sealedKeys] = unpackSealedRecipes(*blob);
  FileRecipe fileRecipe = parseFileRecipe(openWithUserKey(userKey, sealedFile));
  KeyRecipe keyRecipe = parseKeyRecipe(openWithUserKey(userKey, sealedKeys));
  return RestoreSession(*this, std::move(fileRecipe), std::move(keyRecipe));
}

std::string DedupClient::recipeBlobName(const std::string& name) {
  return "recipe:" + name;
}

void DedupClient::commitBackup(const std::string& name,
                               const BackupOutcome& outcome,
                               const AesKey& userKey, Rng& rng) {
  // The async commit plus a blocking wait for its group sync. The callback
  // notifies while holding the lock: this frame may otherwise observe `done`,
  // return and destroy the state before the notify runs on the syncer thread.
  struct Durable {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool ok = false;
  } durable;
  commitBackupAsync(name, outcome, userKey, rng, [&durable](bool ok) {
    std::lock_guard lock(durable.mu);
    durable.done = true;
    durable.ok = ok;
    durable.cv.notify_all();
  });
  std::unique_lock lock(durable.mu);
  durable.cv.wait(lock, [&durable] { return durable.done; });
  if (!durable.ok)
    throw std::runtime_error("commitBackup: metadata sync failed for " + name);
}

void DedupClient::commitBackupAsync(const std::string& name,
                                    const BackupOutcome& outcome,
                                    const AesKey& userKey, Rng& rng,
                                    std::function<void(bool ok)> durable) {
  std::vector<Fp> refs;
  refs.reserve(outcome.fileRecipe.entries.size());
  for (const RecipeEntry& e : outcome.fileRecipe.entries)
    refs.push_back(e.cipherFp);

  {
    // Three phases, all staged: the WAL orders the records and durability
    // is a prefix of that order, so deferring every sync to one final group
    // commit preserves the crash invariant (at any durable prefix the stored
    // blob's chunks are covered by the manifest — losing a suffix only ever
    // loses the blob swap or the shrink, both safe over-retention). The
    // store lock spans all three so concurrent sessions never observe a
    // half-swapped recipe/manifest pair.
    std::lock_guard lock(storeMu_);

    // Phase 1: widen the manifest to old ∪ new, so chunks of both the
    // current blob and the incoming one stay protected through the swap.
    const auto oldRefs = store_->backupRefs(name);
    if (oldRefs) {
      std::vector<Fp> unionRefs = refs;
      unionRefs.insert(unionRefs.end(), oldRefs->begin(), oldRefs->end());
      store_->recordBackupDeferred(name, unionRefs);
    } else {
      store_->recordBackupDeferred(name, refs);
    }

    // Phase 2: swap the sealed recipe pair in one atomic blob put.
    store_->putBlob(
        recipeBlobName(name),
        packSealedRecipes(
            sealWithUserKey(userKey, serializeFileRecipe(outcome.fileRecipe),
                            rng),
            sealWithUserKey(userKey, serializeKeyRecipe(outcome.keyRecipe),
                            rng)));

    // Phase 3: shrink the manifest to the new references only.
    if (oldRefs) store_->recordBackupDeferred(name, refs);
  }
  // One coalesced durability wait for the whole commit, outside the client
  // lock so concurrent committers pipeline into a single group fdatasync.
  store_->syncMetadataAsync(std::move(durable));
}

std::optional<DedupClient::SealRef> DedupClient::findSeal(Fp plainFp) {
  std::lock_guard lock(memoMu_);
  return sealMemo_.get(plainFp);
}

void DedupClient::rememberSeal(Fp plainFp, const SealRef& ref) {
  std::lock_guard lock(memoMu_);
  sealMemo_.put(plainFp, ref);
}

bool DedupClient::deleteBackup(const std::string& name) {
  // Blob first: a crash in between leaves the manifest (safe over-retention
  // that a re-run or re-commit clears), never recipes whose chunks GC could
  // reclaim underneath them.
  std::lock_guard lock(storeMu_);
  const bool hadBlob = store_->eraseBlob(recipeBlobName(name));
  const bool hadManifest = store_->releaseBackup(name);
  return hadBlob || hadManifest;
}

std::vector<std::string> DedupClient::listBackups() {
  std::lock_guard lock(storeMu_);
  return store_->listBackups();
}

AesKey userKeyFromPassphrase(std::string_view passphrase) {
  const Digest d =
      sha256(toBytes("user-key:" + std::string(passphrase)));
  AesKey key{};
  std::copy(d.bytes.begin(), d.bytes.begin() + kAesKeyBytes, key.begin());
  return key;
}

}  // namespace freqdedup
