// Session-based streaming client for encrypted deduplication — the Figure-2
// client of the paper as a connection→session layering (after WiredTiger's
// connection/session/cursor split): one DedupClient holds the shared,
// long-lived collaborators (chunk store, key manager, chunker, options, the
// encrypt worker pool) and vends cheap, independently usable sessions.
//
//   DedupClient client(store, keyManager, chunker, options);
//   BackupSession s = client.beginBackup("vm.img");
//   while (readMore(buf)) s.append(buf);         // bounded memory
//   BackupOutcome outcome = s.finish();
//   client.commitBackup("vm.img", outcome, userKey, rng);
//   client.beginRestore("vm.img", userKey).streamTo(sink);
//
// Every session encrypts and stores through one loop (see backup_session.h);
// BackupOptions::parallelism only picks whether that loop's encrypt step
// runs inline or on the shared worker pool. Every backup commits through one
// path too: commitBackup is commitBackupAsync plus a wait, and is durable
// when it returns.
//
// Concurrency: sessions are single-threaded objects, but any number of
// sessions of one client may run concurrently from different threads —
// store access is serialized internally and the shared worker pool tracks
// completion per call (parallelFor on a pool). Recipes and store contents of
// each session are bit-identical to a serial run of the same objects;
// only the interleaving of chunks from different concurrent sessions into
// containers is scheduling-dependent.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "chunking/chunker.h"
#include "client/backup_session.h"
#include "client/restore_session.h"
#include "common/rng.h"
#include "crypto/key_manager.h"
#include "storage/backup_store.h"

namespace freqdedup {

class ThreadPool;

class DedupClient {
 public:
  /// Full client. All referenced collaborators must outlive the client;
  /// sessions must not outlive it either. Throws std::invalid_argument on
  /// invalid options (zero parallelism, invalid segment params, invalid
  /// restore options). One worker pool is shared by the backup encrypt
  /// stage and the restore prefetch/decrypt stages, sized to the larger of
  /// the two parallelism settings.
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
  /// perform store admin operations (usage blobs, manifest reads, flushes)
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

  BackupStore* store_;
  const KeyManager* keyManager_;  // null in restore-only clients
  const Chunker* chunker_;        // null in restore-only clients
  BackupOptions options_;
  RestoreOptions restoreOptions_;
  std::unique_ptr<ThreadPool> pool_;  // shared workers; null if fully serial
  // Serializes writer/admin store access across sessions. Restore reads
  // (getChunks/chunkLocator) deliberately bypass it — the store's read path
  // is internally synchronized — so concurrent restores overlap their I/O.
  std::mutex storeMu_;
};

/// Derives a user (recipe-sealing) key from a passphrase:
/// SHA-256("user-key:" + passphrase). Shared by backup_system and fsck so a
/// store written by one can be deep-verified by the other.
AesKey userKeyFromPassphrase(std::string_view passphrase);

}  // namespace freqdedup
