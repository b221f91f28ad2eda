// FreqDedupServer — the dedup server daemon that `fdd serve` runs.
//
// One FreqDedupServer owns the persistent store, a shared DedupClient and a
// TenantRegistry, and serves many concurrent remote clients over a Unix or
// TCP socket speaking the wire.h protocol. The layering mirrors the
// in-process connection→session split: each accepted socket is one
// authenticated tenant connection that multiplexes any number of backup and
// restore streams (by id) onto DedupClient sessions.
//
// Concurrency model: a single poll()-based event thread watches the
// listener, a self-pipe, and every connection that is not currently being
// served. A readable connection is marked busy and handed to the shared
// request ThreadPool; the worker reads exactly one frame (blocking reads are
// safe — bytes are already in flight), executes the request, writes the
// response, and re-arms the connection through the self-pipe. A connection
// is therefore always serviced by at most one thread, while different
// connections run fully in parallel — session appends serialize only on the
// store's internal chunk lock, and commits pipeline through the async
// group-commit path (commitBackupAsync), so a BackupFinish never holds a
// worker thread hostage on fdatasync: the response is sent from the log
// syncer's completion callback.
//
// Tenancy: the first frame must be a Hello naming the tenant AND presenting
// that tenant's passphrase — verified against a salted-KDF verifier blob
// persisted in the store on the tenant's first Hello (first-connect-wins
// registration; see tenant.h), so a remote peer cannot operate inside
// another tenant's namespace by merely claiming its id. All backup names
// are scoped to "t/<tenant>/..." store-side, quotas are enforced at finish
// (a rejected backup's chunks stay unreferenced and are reclaimed by the
// next GC), and per-tenant counters — including the cross-tenant dedup
// leakage surface — flow into MetricsRegistry::global().
//
// Resource bounds: restores are served by streaming ranges straight off the
// RestoreSession (never materializing the object server-side), and one
// connection may hold at most kMaxOpenBackupsPerConn / kMaxOpenRestoresPerConn
// concurrent streams. Shutdown additionally requires a privileged peer: a
// unix-socket connection whose SO_PEERCRED uid is the daemon's (or root) —
// TCP peers can never shut the daemon down.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "client/dedup_client.h"
#include "server/socket.h"
#include "server/tenant.h"
#include "storage/backup_store.h"

namespace freqdedup {
class ThreadPool;
}

namespace freqdedup::server {

struct ServerOptions {
  /// "unix:<path>" | "tcp:<host>:<port>" | bare unix path. tcp port 0 binds
  /// an ephemeral port; read it back via boundAddress().
  std::string address;
  /// Request worker threads (concurrent in-flight requests).
  uint32_t threads = 4;
  /// Applied uniformly to every tenant; zero fields mean unlimited.
  TenantQuota quota;
  /// Store geometry, codec, block-cache budget and tiering (passed through
  /// to the FileBackupStore).
  StoreOptions store;
  /// Session behavior for all tenants. Defaults to the full defense
  /// (MinHash + scrambling), matching local `fdd backup`.
  BackupOptions backupOptions;
  RestoreOptions restoreOptions;
  /// Whether privileged peers (unix-socket, same uid as the daemon or root)
  /// may request daemon shutdown (on for the CLI daemon, off when embedding
  /// the server in tests that manage lifetime). Unprivileged peers — every
  /// TCP connection included — are always refused regardless of this flag.
  bool allowShutdown = true;
  /// Byte budget for one ListResult page (names + framing overhead); a
  /// tenant with more backups gets a truncated page and continues via
  /// ListBackups.startAfter. At least one name is always returned, so tiny
  /// test budgets still make progress.
  uint64_t listBytesPerReply = 1u << 20;
};

class FreqDedupServer {
 public:
  /// Opens (or creates) the store under `storeDir`. Throws
  /// std::runtime_error / std::invalid_argument on store or address errors.
  FreqDedupServer(const std::string& storeDir, ServerOptions options);

  /// Stops and joins everything; pending deferred commits are drained first.
  ~FreqDedupServer();

  FreqDedupServer(const FreqDedupServer&) = delete;
  FreqDedupServer& operator=(const FreqDedupServer&) = delete;

  /// Binds the address and starts the event thread + worker pool. Throws on
  /// bind failure. Call once.
  void start();

  /// Graceful stop: stops accepting, finishes in-flight requests, waits for
  /// deferred commit durability callbacks, flushes the store, closes every
  /// connection. Idempotent; also run by the destructor.
  void stop();

  /// Blocks until a remote Shutdown request arrives, requestShutdown() is
  /// called, or stop() is called. Polls the flag on a short timed wait, so
  /// requestShutdown() is safe from a signal handler (plain atomic store).
  void waitShutdownRequested();

  /// Marks shutdown requested (waking waitShutdownRequested within its poll
  /// interval). Async-signal-safe: one relaxed atomic store, no locks.
  void requestShutdown() { shutdownRequested_.store(true); }

  [[nodiscard]] bool shutdownRequested() const {
    return shutdownRequested_.load();
  }

  /// The listen address with any ephemeral tcp port resolved. Valid after
  /// start().
  [[nodiscard]] const Address& boundAddress() const { return bound_; }

  [[nodiscard]] TenantRegistry& tenants() { return tenants_; }
  [[nodiscard]] BackupStore& store() { return *store_; }

 private:
  struct Conn;

  void pollLoop();
  void wake();
  void handleConn(const std::shared_ptr<Conn>& conn);
  /// Executes one decoded request. Returns true when the response is
  /// deferred (the connection stays busy until a completion callback
  /// finishes it).
  bool dispatch(const std::shared_ptr<Conn>& conn, ByteView payload);
  void sendReply(const std::shared_ptr<Conn>& conn, ByteView payload);
  void sendError(const std::shared_ptr<Conn>& conn, ErrorCode code,
                 const std::string& message);
  void rearm(const std::shared_ptr<Conn>& conn);
  void markDead(const std::shared_ptr<Conn>& conn);

  bool handleBackupFinish(const std::shared_ptr<Conn>& conn, ByteView payload);
  void handleRestoreOpen(const std::shared_ptr<Conn>& conn, ByteView payload);
  void handleRestoreRange(const std::shared_ptr<Conn>& conn, ByteView payload);
  void handleDelete(const std::shared_ptr<Conn>& conn, ByteView payload);
  void handleList(const std::shared_ptr<Conn>& conn, ByteView payload);
  void handleStats(const std::shared_ptr<Conn>& conn);
  /// Verifies (or, on a tenant's first Hello, establishes) the tenant
  /// passphrase verifier. Returns false on mismatch.
  bool authenticateTenant(const std::string& tenant,
                          const std::string& passphrase);

  std::string storeDir_;
  ServerOptions options_;
  Address bound_;
  std::unique_ptr<BackupStore> store_;
  KeyManager keyManager_;
  std::unique_ptr<Chunker> chunker_;
  std::unique_ptr<DedupClient> client_;
  TenantRegistry tenants_;
  std::unique_ptr<ThreadPool> pool_;

  Fd listener_;
  Fd wakeRead_, wakeWrite_;
  std::thread poller_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdownRequested_{false};
  std::atomic<uint64_t> nextConnId_{1};

  std::mutex connsMu_;
  std::vector<std::shared_ptr<Conn>> conns_;

  /// Serializes stop() against concurrent/double calls.
  std::mutex stopMu_;
  /// Serializes finishes (quota check → commit staging → accounting) and
  /// deletes, so two concurrent finishes can't both squeeze past a
  /// nearly-full quota and the registry's per-backup map changes in the
  /// store's commit order. Appends — the heavy part — stay parallel, and
  /// the deferred durability syncs still coalesce across commits.
  std::mutex commitMu_;

  /// Deferred (async-commit) completions still in flight; stop() drains
  /// them before tearing anything down.
  std::mutex deferredMu_;
  std::condition_variable deferredCv_;
  uint64_t pendingDeferred_ = 0;

  std::mutex shutdownMu_;
  std::condition_variable shutdownCv_;
};

}  // namespace freqdedup::server
