// Session-based streaming client for encrypted deduplication — the Figure-2
// client of the paper as a connection→session layering (after WiredTiger's
// connection/session/cursor split): one DedupClient holds the shared,
// long-lived collaborators (chunk store, key manager, chunker, options, the
// restore worker pool) and vends cheap, independently usable sessions.
//
//   DedupClient client(store, keyManager, chunker, options);
//   BackupSession s = client.beginBackup("vm.img");
//   while (readMore(buf)) s.append(buf);         // bounded memory
//   BackupOutcome outcome = s.finish();
//   client.commitBackup("vm.img", outcome, userKey, rng);
//   client.beginRestore("vm.img", userKey).streamTo(sink);
//
// Every session encrypts and stores through one loop, one chunk at a time
// on the appending thread (see backup_session.h). Every backup commits
// through one path too: commitBackup is commitBackupAsync plus a wait, and
// is durable when it returns.
//
// Seal memo: the client remembers, for the 65,536 chunks it sealed most
// recently, each chunk's key, ciphertext fingerprint and size, keyed on the
// plaintext fingerprint. A chunk the memo knows (under the same key, for
// MinHash) skips key derivation, encryption and the ciphertext fingerprint,
// and is offered to the store as a known duplicate (putKnownChunk). The
// store still decides: when it no longer holds the chunk (a stale entry after
// deleteBackup plus collectGarbage, or another session that has not stored it
// yet) the session seals the chunk and puts it as before. Encryption is
// deterministic, so recipes, ciphertexts and the store's input are the same
// with or without the memo.
//
// Concurrency: sessions are single-threaded objects, but any number of
// sessions of one client may run concurrently from different threads —
// store access is serialized internally and the restore worker pool, shared
// by all sessions, tracks completion per call (parallelFor on a pool). Recipes and store contents of
// each session are bit-identical to a serial run of the same objects;
// only the interleaving of chunks from different concurrent sessions into
// containers is scheduling-dependent.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "chunking/chunker.h"
#include "client/backup_session.h"
#include "client/restore_session.h"
#include "common/lru_cache.h"
#include "common/rng.h"
#include "crypto/key_manager.h"
#include "storage/backup_store.h"

namespace freqdedup {

class ThreadPool;

class DedupClient {
 public:
  /// Seal memo capacity in entries. A full memo takes 7.3 MB of heap (112
  /// bytes an entry with the LRU's list and map nodes, glibc x86-64). A
  /// repeat is served only if fewer distinct chunks were sealed since its
  /// last use than the memo holds, so a chain's repeats from the previous
  /// backup need about one backup's distinct chunks of capacity. Replaying
  /// the bench datasets (bench/abl_seal_memo) at this capacity serves all
  /// repeats of the synthetic chain (22k distinct chunks a backup), 87.3% of
  /// the vm-like chain's 93.9% (80k) and 53.8% of the fsl-like chain's 86.8%
  /// (147k); 262,144 entries would serve all three at 29 MB. An object
  /// re-sealed in the same order with more distinct chunks than this gets
  /// no hits and pays the miss path on every chunk (bench/microbench
  /// BM_ClientBackupOverMemo).
  static constexpr size_t kSealMemoEntries = 65536;

  /// Full client. All referenced collaborators must outlive the client;
  /// sessions must not outlive it either. Throws std::invalid_argument on
  /// invalid segment params or restore options. The restore
  /// prefetch/decrypt stages share one worker pool of
  /// RestoreOptions::parallelism threads, which exists only when that is
  /// above 1.
  DedupClient(BackupStore& store, const KeyManager& keyManager,
              const Chunker& chunker, BackupOptions options = {},
              RestoreOptions restoreOptions = {});

  /// Restore/administration-only client: restore, delete, list and verify
  /// need neither a chunker nor a key manager. beginBackup() throws.
  explicit DedupClient(BackupStore& store,
                       RestoreOptions restoreOptions = {});

  ~DedupClient();

  DedupClient(const DedupClient&) = delete;
  DedupClient& operator=(const DedupClient&) = delete;

  /// Opens a streaming backup session for one object.
  [[nodiscard]] BackupSession beginBackup(std::string name);

  /// Heap-allocated variant for owners that keep many sessions in
  /// containers (the server daemon's per-connection tables): BackupSession
  /// pins its address — its chunk stream calls back into the session — so
  /// it cannot be stored by value in a map; the handle form can.
  [[nodiscard]] std::unique_ptr<BackupSession> beginBackupHandle(
      std::string name);

  /// Opens a streaming restore session from explicit recipes.
  [[nodiscard]] RestoreSession beginRestore(FileRecipe fileRecipe,
                                            KeyRecipe keyRecipe);

  /// Opens a streaming restore session for a committed backup: loads the
  /// sealed recipe pair and unseals it with the user key. Throws
  /// std::runtime_error if no such backup exists or unsealing fails.
  [[nodiscard]] RestoreSession beginRestore(const std::string& name,
                                            const AesKey& userKey);

  /// Commits a completed backup: seals both recipes under the user key,
  /// stores them as one blob, and records the backup's chunk references in
  /// the store so deletion and garbage collection can account for them.
  ///
  /// Crash-safe also when re-committing an existing name: the references are
  /// first widened to the union of old and new (one atomic manifest swap),
  /// then the recipe blob is swapped (one atomic put), then the references
  /// shrink to the new set — so at every instant the stored blob's chunks
  /// are covered by the manifest and GC can never reclaim them.
  ///
  /// Visible to readers on return; durability is deferred to one coalesced
  /// group sync, whose `durable(ok)` runs on the store's log syncer thread once the whole
  /// commit is on stable storage (ok == false on log failure). Concurrent
  /// committers share a single fdatasync with zero blocked threads, which
  /// is how the server daemon pipelines commits. The callback must not
  /// destroy this client or its store.
  void commitBackupAsync(const std::string& name, const BackupOutcome& outcome,
                         const AesKey& userKey, Rng& rng,
                         std::function<void(bool ok)> durable);

  /// commitBackupAsync plus a blocking wait for its callback: the whole
  /// commit — manifest and recipe blob, new name or re-commit — is durable
  /// when this returns. Throws std::runtime_error if the sync fails.
  void commitBackup(const std::string& name, const BackupOutcome& outcome,
                    const AesKey& userKey, Rng& rng);

  /// Deletes a committed backup: releases its chunk references and removes
  /// its sealed recipes. Returns false if no such backup exists. Unreferenced
  /// chunks are reclaimed by the store's next collectGarbage().
  bool deleteBackup(const std::string& name);

  /// Names of all committed backups.
  [[nodiscard]] std::vector<std::string> listBackups();

  /// Blob name commitBackup uses for a backup's sealed recipe pair.
  static std::string recipeBlobName(const std::string& name);

  /// Runs `fn(store)` under the client's writer/admin lock — the hook
  /// through which owners layered above the client (the server daemon)
  /// perform store admin operations (auth blobs, flushes)
  /// that must serialize with concurrent session writes. `fn` must not call
  /// back into this client.
  template <typename Fn>
  auto withStore(Fn&& fn) {
    std::lock_guard lock(storeMu_);
    return fn(*store_);
  }

  [[nodiscard]] const BackupOptions& options() const { return options_; }
  [[nodiscard]] const RestoreOptions& restoreOptions() const {
    return restoreOptions_;
  }
  [[nodiscard]] BackupStore& store() { return *store_; }

 private:
  friend class BackupSession;
  friend class RestoreSession;

  /// What the seal memo keeps of one chunk this client sealed and stored.
  struct SealRef {
    AesKey key;
    Fp cipherFp = 0;
    uint32_t size = 0;
  };

  /// The memo entry of a plaintext fingerprint, promoted to most recent.
  std::optional<SealRef> findSeal(Fp plainFp);
  /// Records a chunk that reached the store.
  void rememberSeal(Fp plainFp, const SealRef& ref);

  BackupStore* store_;
  const KeyManager* keyManager_;  // null in restore-only clients
  const Chunker* chunker_;        // null in restore-only clients
  BackupOptions options_;
  RestoreOptions restoreOptions_;
  std::unique_ptr<ThreadPool> pool_;  // restore workers; null if serial
  // Serializes writer/admin store access across sessions. Restore reads
  // (getChunks/chunkLocator) deliberately bypass it — the store's read path
  // is internally synchronized — so concurrent restores overlap their I/O.
  std::mutex storeMu_;
  // Guards sealMemo_ (a lookup promotes its entry, so reads write too).
  // Never held together with storeMu_.
  std::mutex memoMu_;
  LruCache<Fp, SealRef, FpHash> sealMemo_{kSealMemoEntries};
};

/// Derives a user (recipe-sealing) key from a passphrase:
/// SHA-256("user-key:" + passphrase). Shared by the `fdd` CLI and the daemon
/// so a store written by one can be restored and deep-verified by the other.
AesKey userKeyFromPassphrase(std::string_view passphrase);

/// Key-manager secret of local `fdd backup` and of the daemon. Both derive
/// chunk and segment keys from it, so either one deduplicates against
/// chunks the other stored. Changing it would stop new backups from
/// deduplicating against every existing store's chunks.
inline constexpr std::string_view kKeyManagerSecret =
    "backup-system-global-secret";

}  // namespace freqdedup
