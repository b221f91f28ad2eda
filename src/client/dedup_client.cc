#include "client/dedup_client.h"

#include <future>
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

/// The recipe blob packs both sealed recipes into one value, which the store
/// writes in the same log record as the manifest: varint lengths prefix each
/// sealed section.
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
  const std::optional<ByteVec> blob = store_->getBlob(recipeBlobName(name));
  if (!blob) throw std::runtime_error("beginRestore: no recipes for " + name);
  const auto [sealedFile, sealedKeys] = unpackSealedRecipes(*blob);
  FileRecipe fileRecipe = parseFileRecipe(openWithUserKey(userKey, sealedFile));
  KeyRecipe keyRecipe = parseKeyRecipe(openWithUserKey(userKey, sealedKeys));
  return RestoreSession(*this, std::move(fileRecipe), std::move(keyRecipe));
}

void DedupClient::commitBackup(const std::string& name,
                               const BackupOutcome& outcome,
                               const AesKey& userKey, Rng& rng) {
  // The async commit plus a blocking wait for its group sync. The callback
  // owns the promise, so the syncer thread never touches this frame.
  const auto durable = std::make_shared<std::promise<bool>>();
  commitBackupAsync(name, outcome, userKey, rng,
                    [durable](bool ok) { durable->set_value(ok); });
  if (!durable->get_future().get())
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
  // One store record for manifest and recipes, then one coalesced group
  // sync, so concurrent committers pipeline into a single fdatasync.
  store_->stageBackup(
      name, refs,
      packSealedRecipes(
          sealWithUserKey(userKey, serializeFileRecipe(outcome.fileRecipe),
                          rng),
          sealWithUserKey(userKey, serializeKeyRecipe(outcome.keyRecipe),
                          rng)));
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

AesKey userKeyFromPassphrase(std::string_view passphrase) {
  const Digest d =
      sha256(toBytes("user-key:" + std::string(passphrase)));
  AesKey key{};
  std::copy(d.bytes.begin(), d.bytes.begin() + kAesKeyBytes, key.begin());
  return key;
}

}  // namespace freqdedup
