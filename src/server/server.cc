#include "server/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <stdexcept>
#include <utility>

#include "chunking/cdc_chunker.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/thread_pool.h"
#include "storage/file_backup_store.h"

namespace freqdedup::server {

namespace {

/// Mid-frame stall bound on accepted sockets: a peer that sends half a
/// frame (or stops reading its response) fails the worker within this
/// budget instead of pinning a pool thread forever.
constexpr time_t kConnTimeoutSec = 60;

/// Per-connection caps on concurrently open streams, so one client cannot
/// pin unbounded session state (recipes, key material) server-side.
constexpr size_t kMaxOpenBackupsPerConn = 64;
constexpr size_t kMaxOpenRestoresPerConn = 64;

struct ServerMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Counter& connectionsOpened = reg.counter("server.connections_opened");
  obs::Counter& connectionsClosed = reg.counter("server.connections_closed");
  obs::Counter& requests = reg.counter("server.requests");
  obs::Counter& requestErrors = reg.counter("server.request_errors");
  obs::Counter& authFailures = reg.counter("server.auth_failures");
  obs::Counter& framesRx = reg.counter("server.frames_rx");
  obs::Counter& framesTx = reg.counter("server.frames_tx");
  obs::Counter& bytesRx = reg.counter("server.bytes_rx");
  obs::Counter& bytesTx = reg.counter("server.bytes_tx");
  obs::Gauge& activeConnections = reg.gauge("server.active_connections");
  obs::Histogram& requestUs = reg.histogram("server.request_us");

  static ServerMetrics& get() {
    static ServerMetrics m;
    return m;
  }
};

}  // namespace

/// One accepted socket. Owned jointly by the poller's list and any worker /
/// deferred-commit callback currently serving it; at most one of those is
/// active at a time (`busy`), so the per-connection state needs no lock.
struct FreqDedupServer::Conn {
  uint64_t id = 0;
  Fd fd;
  std::atomic<bool> busy{false};
  std::atomic<bool> dead{false};
  /// Unix-socket peer with the daemon's uid (or root) per SO_PEERCRED; the
  /// only peers allowed to request shutdown. Never set for TCP.
  bool privileged = false;

  // All fields below are only touched by the single active server thread.
  bool helloDone = false;
  std::string tenant;
  AesKey userKey{};
  /// Seeds the recipe-sealing IV stream. MUST come from OS entropy: a
  /// deterministic seed (connection counter, tenant hash, ...) would replay
  /// the same AES-CTR IV sequence after a daemon restart and break the
  /// sealing under every reused (key, IV) pair.
  Rng rng{secureSeed()};
  uint64_t nextId = 1;
  std::map<uint64_t, std::unique_ptr<BackupSession>> backups;
  struct OpenRestore {
    std::string name;
    RestoreSession session;  // ranges stream on demand; nothing materialized
  };
  std::map<uint64_t, OpenRestore> restores;
};

FreqDedupServer::FreqDedupServer(const std::string& storeDir,
                                 ServerOptions options)
    : storeDir_(storeDir),
      options_(std::move(options)),
      bound_(parseAddress(options_.address)),
      store_(std::make_unique<FileBackupStore>(storeDir, options_.store)),
      keyManager_(toBytes(kKeyManagerSecret)),
      chunker_(std::make_unique<CdcChunker>()),
      tenants_(options_.quota) {
  client_ = std::make_unique<DedupClient>(*store_, keyManager_, *chunker_,
                                          options_.backupOptions,
                                          options_.restoreOptions);
  tenants_.loadFrom(*store_);
}

FreqDedupServer::~FreqDedupServer() { stop(); }

void FreqDedupServer::start() {
  if (started_.exchange(true))
    throw std::logic_error("FreqDedupServer::start() called twice");
  listener_ = listenOn(bound_);
  if (bound_.kind == Address::Kind::kTcp && bound_.port == 0) {
    // Resolve the ephemeral port so tests/benches can connect.
    sockaddr_storage ss{};
    socklen_t len = sizeof(ss);
    if (::getsockname(listener_.get(), reinterpret_cast<sockaddr*>(&ss),
                      &len) == 0) {
      if (ss.ss_family == AF_INET)
        bound_.port =
            ntohs(reinterpret_cast<sockaddr_in*>(&ss)->sin_port);
      else if (ss.ss_family == AF_INET6)
        bound_.port =
            ntohs(reinterpret_cast<sockaddr_in6*>(&ss)->sin6_port);
    }
  }
  int pipefd[2];
  if (::pipe(pipefd) != 0)
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  wakeRead_ = Fd(pipefd[0]);
  wakeWrite_ = Fd(pipefd[1]);
  ::fcntl(wakeRead_.get(), F_SETFL, O_NONBLOCK);
  pool_ = std::make_unique<ThreadPool>(std::max(1u, options_.threads));
  poller_ = std::thread([this] { pollLoop(); });
}

void FreqDedupServer::stop() {
  std::lock_guard stopLock(stopMu_);
  if (!started_.load()) return;
  stopping_.store(true);
  {
    std::lock_guard lock(shutdownMu_);
    shutdownRequested_.store(true);
  }
  shutdownCv_.notify_all();
  wake();
  if (poller_.joinable()) poller_.join();
  if (pool_) pool_->shutdown();
  {
    // Deferred commit completions run on the store's log syncer thread;
    // wait them out before touching connections or the store.
    std::unique_lock lock(deferredMu_);
    deferredCv_.wait(lock, [this] { return pendingDeferred_ == 0; });
  }
  {
    std::lock_guard lock(connsMu_);
    ServerMetrics& m = ServerMetrics::get();
    for (const auto& conn : conns_) {
      (void)conn;
      m.connectionsClosed.add();
      m.activeConnections.sub();
    }
    conns_.clear();
  }
  if (client_) {
    client_->withStore([](BackupStore& s) {
      s.flush();
      return 0;
    });
  }
  listener_.reset();
  if (bound_.kind == Address::Kind::kUnix) ::unlink(bound_.path.c_str());
}

void FreqDedupServer::waitShutdownRequested() {
  std::unique_lock lock(shutdownMu_);
  // Timed wait instead of a pure cv wait: a requestShutdown() from a signal
  // handler can't notify, so the flag is re-checked every poll interval.
  while (!shutdownRequested_.load())
    shutdownCv_.wait_for(lock, std::chrono::milliseconds(200));
}

void FreqDedupServer::wake() {
  if (!wakeWrite_.valid()) return;
  const uint8_t b = 1;
  [[maybe_unused]] const ssize_t n = ::write(wakeWrite_.get(), &b, 1);
}

void FreqDedupServer::pollLoop() {
  ServerMetrics& m = ServerMetrics::get();
  while (!stopping_.load()) {
    std::vector<pollfd> fds;
    std::vector<std::shared_ptr<Conn>> polled;
    fds.push_back({wakeRead_.get(), POLLIN, 0});
    fds.push_back({listener_.get(), POLLIN, 0});
    {
      std::lock_guard lock(connsMu_);
      // Sweep connections whose serving thread declared them dead.
      std::erase_if(conns_, [&m](const std::shared_ptr<Conn>& c) {
        const bool gone = c->dead.load() && !c->busy.load();
        if (gone) {
          m.connectionsClosed.add();
          m.activeConnections.sub();
        }
        return gone;
      });
      for (const auto& c : conns_) {
        if (c->busy.load() || c->dead.load()) continue;
        polled.push_back(c);
        fds.push_back({c->fd.get(), POLLIN, 0});
      }
    }
    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable; stop() will clean up
    }
    if ((fds[0].revents & POLLIN) != 0) {
      uint8_t buf[64];
      while (::read(wakeRead_.get(), buf, sizeof(buf)) > 0) {
      }
    }
    if ((fds[1].revents & POLLIN) != 0) {
      const int cfd = ::accept(listener_.get(), nullptr, nullptr);
      if (cfd >= 0) {
        const timeval tv{kConnTimeoutSec, 0};
        ::setsockopt(cfd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        ::setsockopt(cfd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
        if (bound_.kind == Address::Kind::kTcp) {
          const int one = 1;
          ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        }
        auto conn = std::make_shared<Conn>();
        conn->id = nextConnId_.fetch_add(1);
        conn->fd = Fd(cfd);
        if (bound_.kind == Address::Kind::kUnix) {
          ucred cred{};
          socklen_t credLen = sizeof(cred);
          if (::getsockopt(cfd, SOL_SOCKET, SO_PEERCRED, &cred, &credLen) ==
              0)
            conn->privileged = cred.uid == ::geteuid() || cred.uid == 0;
        }
        m.connectionsOpened.add();
        m.activeConnections.add();
        std::lock_guard lock(connsMu_);
        conns_.push_back(std::move(conn));
      }
    }
    for (size_t i = 0; i < polled.size(); ++i) {
      if ((fds[i + 2].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const std::shared_ptr<Conn>& conn = polled[i];
      conn->busy.store(true);
      if (!pool_->submit([this, conn] { handleConn(conn); }))
        conn->busy.store(false);  // pool shut down; stop() owns cleanup
    }
  }
}

void FreqDedupServer::sendReply(const std::shared_ptr<Conn>& conn,
                                ByteView payload) {
  writeFrame(conn->fd.get(), payload);
  ServerMetrics& m = ServerMetrics::get();
  m.framesTx.add();
  m.bytesTx.add(payload.size() + kFrameHeaderBytes);
}

void FreqDedupServer::sendError(const std::shared_ptr<Conn>& conn,
                                ErrorCode code, const std::string& message) {
  ErrorReply reply;
  reply.code = code;
  reply.message = message.substr(0, kMaxErrorBytes);
  sendReply(conn, encode(reply));
}

void FreqDedupServer::rearm(const std::shared_ptr<Conn>& conn) {
  conn->busy.store(false);
  wake();
}

void FreqDedupServer::markDead(const std::shared_ptr<Conn>& conn) {
  conn->dead.store(true);
  conn->busy.store(false);
  wake();
}

void FreqDedupServer::handleConn(const std::shared_ptr<Conn>& conn) {
  ServerMetrics& m = ServerMetrics::get();
  try {
    const std::optional<ByteVec> payload = readFrame(conn->fd.get());
    if (!payload) {  // clean EOF at a frame boundary
      markDead(conn);
      return;
    }
    m.framesRx.add();
    m.bytesRx.add(payload->size() + kFrameHeaderBytes);
    m.requests.add();
    obs::ObsSpan span(&m.requestUs, "server.request", "server");
    if (dispatch(conn, *payload)) return;  // response deferred
  } catch (const WireError& e) {
    // Malformed framing: the stream position is unrecoverable, so answer
    // (best effort) and drop the connection.
    m.requestErrors.add();
    try {
      sendError(conn, ErrorCode::kProtocol, e.what());
    } catch (...) {
    }
    markDead(conn);
    return;
  } catch (const std::exception&) {
    // Socket I/O failure (EOF mid-frame, timeout, reset).
    m.requestErrors.add();
    markDead(conn);
    return;
  }
  if (conn->dead.load()) {
    wake();
    return;
  }
  rearm(conn);
}

bool FreqDedupServer::dispatch(const std::shared_ptr<Conn>& conn,
                               ByteView payload) {
  const MsgType type = peekType(payload);

  if (!conn->helloDone) {
    if (type != MsgType::kHello)
      throw WireError("first frame must be Hello");
    const Hello hello = decodeHello(payload);
    if (hello.magic != kHelloMagic) throw WireError("bad hello magic");
    if (hello.version != kWireVersion) {
      sendError(conn, ErrorCode::kBadRequest,
                "unsupported protocol version " +
                    std::to_string(hello.version));
      markDead(conn);
      return false;
    }
    if (!validTenantId(hello.tenant)) {
      sendError(conn, ErrorCode::kBadRequest, "invalid tenant id");
      markDead(conn);
      return false;
    }
    // The claimed tenant id is only honored once the passphrase matches the
    // tenant's persisted verifier (established first-connect-wins); a remote
    // peer can no longer list/overwrite/delete another tenant's backups by
    // merely naming it in Hello.
    if (!authenticateTenant(hello.tenant, hello.passphrase)) {
      ServerMetrics::get().authFailures.add();
      sendError(conn, ErrorCode::kAuthFailed,
                "tenant authentication failed for \"" + hello.tenant + "\"");
      markDead(conn);
      return false;
    }
    conn->tenant = hello.tenant;
    conn->userKey = userKeyFromPassphrase(hello.passphrase);
    conn->helloDone = true;
    sendReply(conn, encode(HelloOk{}));
    return false;
  }

  try {
    switch (type) {
      case MsgType::kHello:
        throw WireError("duplicate Hello");

      case MsgType::kBackupOpen: {
        const BackupOpen req = decodeBackupOpen(payload);
        if (req.name.empty()) {
          sendError(conn, ErrorCode::kBadRequest, "empty backup name");
          return false;
        }
        if (conn->backups.size() >= kMaxOpenBackupsPerConn) {
          sendError(conn, ErrorCode::kBadRequest,
                    "too many open backups on this connection");
          return false;
        }
        const uint64_t id = conn->nextId++;
        conn->backups.emplace(id, client_->beginBackupHandle(scopedBackupName(
                                      conn->tenant, req.name)));
        sendReply(conn, encode(BackupOpened{id}));
        return false;
      }

      case MsgType::kBackupAppend: {
        const BackupAppend req = decodeBackupAppend(payload);
        const auto it = conn->backups.find(req.backupId);
        if (it == conn->backups.end()) {
          sendError(conn, ErrorCode::kBadRequest, "unknown backup id");
          return false;
        }
        it->second->append(req.data);
        sendReply(conn, encode(Ok{}));
        return false;
      }

      case MsgType::kBackupFinish:
        return handleBackupFinish(conn, payload);

      case MsgType::kBackupAbort: {
        const BackupAbort req = decodeBackupAbort(payload);
        // Dropping the session discards it; any chunks it already stored
        // stay unreferenced until the next GC.
        if (conn->backups.erase(req.backupId) == 0) {
          sendError(conn, ErrorCode::kBadRequest, "unknown backup id");
          return false;
        }
        sendReply(conn, encode(Ok{}));
        return false;
      }

      case MsgType::kRestoreOpen:
        handleRestoreOpen(conn, payload);
        return false;

      case MsgType::kRestoreRange:
        handleRestoreRange(conn, payload);
        return false;

      case MsgType::kRestoreClose: {
        const RestoreClose req = decodeRestoreClose(payload);
        if (conn->restores.erase(req.restoreId) == 0) {
          sendError(conn, ErrorCode::kBadRequest, "unknown restore id");
          return false;
        }
        sendReply(conn, encode(Ok{}));
        return false;
      }

      case MsgType::kDelete:
        handleDelete(conn, payload);
        return false;

      case MsgType::kList:
        handleList(conn, payload);
        return false;

      case MsgType::kStats:
        handleStats(conn);
        return false;

      case MsgType::kShutdown: {
        decodeShutdown(payload);
        if (!options_.allowShutdown) {
          sendError(conn, ErrorCode::kBadRequest,
                    "shutdown disabled on this server");
          return false;
        }
        if (!conn->privileged) {
          // Only a unix-socket peer running as the daemon's user (or root)
          // may stop the daemon; any tenant credential alone must not be
          // able to deny service to every other tenant.
          sendError(conn, ErrorCode::kBadRequest,
                    "shutdown requires a privileged local peer");
          return false;
        }
        sendReply(conn, encode(Ok{}));
        {
          std::lock_guard lock(shutdownMu_);
          shutdownRequested_.store(true);
        }
        shutdownCv_.notify_all();
        return false;
      }

      default:
        throw WireError("request expected, got response-type message");
    }
  } catch (const WireError&) {
    throw;  // framing-level: connection-fatal, handled by handleConn
  } catch (const std::exception& e) {
    // Semantic failure executing a well-formed request: report and keep
    // the connection alive.
    ServerMetrics::get().requestErrors.add();
    sendError(conn, ErrorCode::kServerError, e.what());
    return false;
  }
}

bool FreqDedupServer::handleBackupFinish(const std::shared_ptr<Conn>& conn,
                                         ByteView payload) {
  const BackupFinish req = decodeBackupFinish(payload);
  const auto it = conn->backups.find(req.backupId);
  if (it == conn->backups.end()) {
    sendError(conn, ErrorCode::kBadRequest, "unknown backup id");
    return false;
  }
  const std::unique_ptr<BackupSession> session = std::move(it->second);
  conn->backups.erase(it);
  const std::string scoped = session->objectName();
  const BackupOutcome outcome = session->finish();
  const uint64_t logicalBytes = outcome.fileRecipe.fileSize;

  std::unique_lock commitLock(commitMu_);
  if (const auto err =
          tenants_.checkQuota(conn->tenant, scoped, logicalBytes)) {
    // The rejected stream's chunks are already in the store but
    // unreferenced; the next GC reclaims them.
    tenants_.recordQuotaReject(conn->tenant);
    sendError(conn, ErrorCode::kQuotaExceeded, *err);
    return false;
  }

  // The reply goes out once the commit is both accounted (below) and
  // durable (the callback), whichever comes last: the callback may run on
  // the log syncer thread, or inline, before commitBackupAsync returns, and
  // a client must not see BackupDone before the usage it added.
  struct Completion {
    std::atomic<int> waits{2};
    bool durable = false;
    BackupDone done;
  };
  const auto completion = std::make_shared<Completion>();
  auto complete = [this, conn, completion] {
    if (completion->waits.fetch_sub(1) != 1) return;
    try {
      if (completion->durable) {
        sendReply(conn, encode(completion->done));
        rearm(conn);
      } else {
        sendError(conn, ErrorCode::kServerError,
                  "commit not durable: metadata log sync failed");
        markDead(conn);
      }
    } catch (...) {
      markDead(conn);
    }
    // Notify under the lock: once stop() sees the count reach zero the
    // server may be destroyed, condition variable included.
    std::lock_guard lock(deferredMu_);
    --pendingDeferred_;
    deferredCv_.notify_all();
  };

  // The commit is staged synchronously (visible on return); the response
  // waits for the coalesced group sync so the client's BackupDone means
  // "durable". The worker thread is released meanwhile — this is what lets
  // many tenants' commits share one fdatasync.
  client_->commitBackupAsync(scoped, outcome, conn->userKey, conn->rng,
                             [completion, complete](bool ok) {
                               completion->durable = ok;
                               complete();
                             });
  // Staged. Only now is the finish accounted and pending for stop(): when
  // staging throws, the callback never runs and nothing changed.
  const DedupClassification cls =
      tenants_.recordCommit(conn->tenant, scoped, outcome.newChunkFps,
                            outcome.duplicateChunkFps, logicalBytes);
  completion->done = {outcome.chunkCount, outcome.newChunks,
                      outcome.duplicateChunks, cls.crossTenantDuplicates};
  {
    std::lock_guard lock(deferredMu_);
    ++pendingDeferred_;
  }
  commitLock.unlock();
  complete();
  return true;
}

void FreqDedupServer::handleRestoreOpen(const std::shared_ptr<Conn>& conn,
                                        ByteView payload) {
  const RestoreOpen req = decodeRestoreOpen(payload);
  if (conn->restores.size() >= kMaxOpenRestoresPerConn) {
    sendError(conn, ErrorCode::kBadRequest,
              "too many open restores on this connection");
    return;
  }
  const std::string scoped = scopedBackupName(conn->tenant, req.name);
  if (!tenants_.hasBackup(conn->tenant, scoped)) {
    sendError(conn, ErrorCode::kNotFound, "no such backup: " + req.name);
    return;
  }
  // Opening only loads the recipes; ranges stream chunk batches on demand,
  // so an open restore costs O(recipe), never O(object) — a client opening
  // a terabyte backup no longer makes the daemon materialize it. Chunk
  // verification consequently happens per range: a corrupt chunk surfaces
  // as a kServerError on the RestoreRange that covers it.
  RestoreSession session = client_->beginRestore(scoped, conn->userKey);
  const uint64_t size = session.size();
  const uint64_t id = conn->nextId++;
  conn->restores.emplace(id,
                         Conn::OpenRestore{req.name, std::move(session)});
  tenants_.recordRestore(conn->tenant);
  sendReply(conn, encode(RestoreOpened{id, size}));
}

void FreqDedupServer::handleRestoreRange(const std::shared_ptr<Conn>& conn,
                                         ByteView payload) {
  const RestoreRange req = decodeRestoreRange(payload);
  const auto it = conn->restores.find(req.restoreId);
  if (it == conn->restores.end()) {
    sendError(conn, ErrorCode::kBadRequest, "unknown restore id");
    return;
  }
  RestoreSession& session = it->second.session;
  RestoreData out;
  const uint64_t len =
      std::min(req.length, static_cast<uint64_t>(kMaxDataBytes));
  // offset at/past the end streams nothing — an empty range is the clean
  // EOF signal.
  session.streamRange(req.offset, len,
                      [&out](ByteView bytes) { appendBytes(out.data, bytes); });
  sendReply(conn, encode(out));
}

void FreqDedupServer::handleDelete(const std::shared_ptr<Conn>& conn,
                                   ByteView payload) {
  const DeleteBackup req = decodeDeleteBackup(payload);
  const std::string scoped = scopedBackupName(conn->tenant, req.name);
  // Under the commit lock, so that the registry sees this delete and a
  // concurrent finish of the same name in the store's order.
  std::lock_guard commitLock(commitMu_);
  if (!client_->deleteBackup(scoped)) {
    sendError(conn, ErrorCode::kNotFound, "no such backup: " + req.name);
    return;
  }
  tenants_.recordDelete(conn->tenant, scoped);
  sendReply(conn, encode(Ok{}));
}

void FreqDedupServer::handleList(const std::shared_ptr<Conn>& conn,
                                 ByteView payload) {
  const ListBackups req = decodeListBackups(payload);
  std::vector<std::string> names;
  for (const std::string& scoped : client_->listBackups())
    if (auto bare = unscopeBackupName(conn->tenant, scoped))
      if (*bare > req.startAfter) names.push_back(std::move(*bare));
  std::sort(names.begin(), names.end());
  // One sorted page per reply, bounded by the byte budget so the encoded
  // frame can never outgrow kMaxFrameBytes no matter how many backups a
  // tenant holds; the client continues from names.back() while truncated.
  ListResult out;
  uint64_t budget = options_.listBytesPerReply;
  for (std::string& name : names) {
    const uint64_t cost = name.size() + 10;  // name bytes + varint framing
    if (!out.names.empty() &&
        (cost > budget || out.names.size() >= kMaxListNames)) {
      out.truncated = true;
      break;
    }
    budget -= std::min(budget, cost);
    out.names.push_back(std::move(name));
  }
  sendReply(conn, encode(out));
}

bool FreqDedupServer::authenticateTenant(const std::string& tenant,
                                         const std::string& passphrase) {
  const std::string blobName = authBlobName(tenant);
  std::optional<ByteVec> record = client_->withStore(
      [&](BackupStore& s) { return s.getBlob(blobName); });
  if (record) return checkAuthVerifier(*record, passphrase);
  // First Hello for this tenant: register its verifier. The KDF — the
  // expensive part — runs outside the store lock; the put-if-absent under
  // the lock makes two racing first connects deterministic (one registers,
  // the other re-verifies against the winner's record).
  const ByteVec fresh = makeAuthVerifier(passphrase);
  bool registered = false;
  record = client_->withStore(
      [&](BackupStore& s) -> std::optional<ByteVec> {
        if (auto existing = s.getBlob(blobName)) return existing;
        s.putBlob(blobName, fresh);
        registered = true;
        return std::nullopt;
      });
  if (registered) return true;
  return checkAuthVerifier(*record, passphrase);
}

void FreqDedupServer::handleStats(const std::shared_ptr<Conn>& conn) {
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::global().snapshot();
  snapshot.merge(store_->metricsSnapshot());
  sendReply(conn, encode(StatsResult{snapshot.toJson()}));
}

}  // namespace freqdedup::server
