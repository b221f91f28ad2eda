// Remote client for the dedup daemon: one authenticated tenant connection
// speaking the wire.h protocol, with an API shaped after the in-process
// DedupClient so callers (`fdd --remote`, tests, benches) can swap
// between the two.
//
// A RemoteDedupClient is a single socket and is NOT thread-safe; open one
// per thread (connections are cheap, and the daemon multiplexes them). All
// methods throw RemoteError when the server answers with a protocol-level
// error, WireError on a malformed response, and std::runtime_error on
// socket failures.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "server/socket.h"
#include "server/wire.h"

namespace freqdedup::server {

/// The server answered with an ErrorReply.
class RemoteError : public std::runtime_error {
 public:
  RemoteError(ErrorCode code, const std::string& message)
      : std::runtime_error("server error " +
                           std::to_string(static_cast<uint32_t>(code)) + ": " +
                           message),
        code_(code) {}

  [[nodiscard]] ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// Streamed delivery of restored bytes, in order (same contract as the
/// in-process ByteSink).
using RemoteByteSink = std::function<void(ByteView)>;

/// Result of one finished backup, as reported by the server.
struct RemoteBackupResult {
  uint64_t chunkCount = 0;
  uint64_t newChunks = 0;
  uint64_t duplicateChunks = 0;
  uint64_t crossTenantDuplicates = 0;
};

/// An open streaming backup (server-side session handle).
class RemoteBackup {
 public:
  RemoteBackup() = default;

  [[nodiscard]] uint64_t id() const { return id_; }

 private:
  friend class RemoteDedupClient;
  explicit RemoteBackup(uint64_t id) : id_(id) {}
  uint64_t id_ = 0;
};

class RemoteDedupClient {
 public:
  /// Connects and performs the Hello handshake. Throws on connection or
  /// handshake failure.
  RemoteDedupClient(const std::string& address, const std::string& tenant,
                    const std::string& passphrase);

  RemoteDedupClient(const RemoteDedupClient&) = delete;
  RemoteDedupClient& operator=(const RemoteDedupClient&) = delete;

  /// Opens a server-side backup session for one object.
  RemoteBackup openBackup(const std::string& name);

  /// Appends bytes to an open backup; internally split into frame-bounded
  /// append requests, so `data` may be arbitrarily large.
  void append(const RemoteBackup& backup, ByteView data);

  /// Finishes and commits the backup. Returns once the server reports the
  /// commit DURABLE (the response rides the server's group commit).
  RemoteBackupResult finishBackup(const RemoteBackup& backup);

  /// Abandons an open backup (its chunks await the server's next GC).
  void abortBackup(const RemoteBackup& backup);

  /// Streams a backup's bytes to `sink` in order; returns the total size.
  uint64_t restore(const std::string& name, const RemoteByteSink& sink);

  /// Materializes a whole backup (convenience for tests/small objects).
  ByteVec restoreAll(const std::string& name);

  /// Deletes a backup in this tenant's namespace. Returns false when no
  /// such backup exists (kNotFound); other errors throw.
  bool deleteBackup(const std::string& name);

  /// Names of this tenant's backups (bare, unscoped).
  std::vector<std::string> listBackups();

  /// The server's merged metrics snapshot as single-line JSON.
  std::string statsJson();

  /// Asks the daemon to shut down (requires the server to allow it).
  void shutdownServer();

  [[nodiscard]] const std::string& tenant() const { return tenant_; }
  [[nodiscard]] const HelloOk& serverHello() const { return serverHello_; }

 private:
  /// Sends one request payload and reads one response payload; throws
  /// RemoteError if the response is an ErrorReply.
  ByteVec roundTrip(ByteView requestPayload);

  Fd fd_;
  std::string tenant_;
  HelloOk serverHello_;
};

}  // namespace freqdedup::server
