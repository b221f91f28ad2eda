// Daemon wire protocol: length-prefixed, CRC-framed request/response
// messages between remote clients and the dedup server daemon.
//
// Framing (identical shape to the WAL/container record framing):
//   [crc32c(payload) u32][payloadLen u32][payload]
// payload = [msgType u8][message fields...]; integers are little-endian
// fixed-width or LEB128 varints, strings and byte blobs are varint-length-
// prefixed. One request frame yields exactly one response frame.
//
// Hardening contract (mirrors the container/recipe parsers): every decoder
//  - validates the leading type byte against the message it decodes,
//  - bounds every count/length against the remaining input BEFORE any
//    allocation or copy,
//  - caps names/tenants/data at protocol limits, and
//  - rejects trailing garbage (a frame must be consumed exactly).
// Violations throw WireError; decoders never read out of bounds and never
// trust a length field further than the bytes actually present.
//
// Conversation: the first frame on a connection must be Hello (magic +
// version + tenant + passphrase); every later request operates inside that
// tenant's namespace. Backup streams are open/append*/finish (or abort);
// restores are open/range*/close so arbitrarily large objects cross the
// socket in bounded frames.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace freqdedup::server {

/// Protocol revision; Hello carries it and the server rejects mismatches.
/// v2: tenant passphrase verification (kAuthFailed) and paginated List
/// (ListBackups.startAfter / ListResult.truncated).
inline constexpr uint32_t kWireVersion = 2;

/// First u32 of a Hello payload body ("FDDP"): lets the server reject a
/// non-protocol peer on the first frame with a clean error.
inline constexpr uint32_t kHelloMagic = 0x50444446;

/// Hard cap on one frame's payload; readers reject larger length fields
/// before allocating anything.
inline constexpr size_t kMaxFrameBytes = 16u << 20;

/// Caps on variable-size fields, enforced by every decoder.
inline constexpr size_t kMaxTenantBytes = 64;
inline constexpr size_t kMaxNameBytes = 4096;
inline constexpr size_t kMaxPassphraseBytes = 1024;
inline constexpr size_t kMaxErrorBytes = 4096;
/// Data bytes per append/restore-data frame (leaves frame headroom).
inline constexpr size_t kMaxDataBytes = kMaxFrameBytes - 4096;
/// Backups one list response may carry.
inline constexpr size_t kMaxListNames = 1u << 20;

/// Malformed or out-of-contract wire input. Connection-fatal on the server
/// (the peer is either broken or hostile).
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what)
      : std::runtime_error("wire: " + what) {}
};

enum class MsgType : uint8_t {
  // Requests.
  kHello = 1,
  kBackupOpen = 2,
  kBackupAppend = 3,
  kBackupFinish = 4,
  kBackupAbort = 5,
  kRestoreOpen = 6,
  kRestoreRange = 7,
  kRestoreClose = 8,
  kDelete = 9,
  kList = 10,
  kStats = 11,
  kShutdown = 12,
  // Responses.
  kHelloOk = 64,
  kOk = 65,
  kBackupOpened = 66,
  kBackupDone = 67,
  kRestoreOpened = 68,
  kRestoreData = 69,
  kListResult = 70,
  kStatsResult = 71,
  kError = 72,
};

enum class ErrorCode : uint32_t {
  kBadRequest = 1,     // semantically invalid (unknown id, bad range, ...)
  kNotFound = 2,       // no such backup in this tenant's namespace
  kQuotaExceeded = 3,  // tenant quota (logical bytes or backup count)
  kProtocol = 4,       // malformed frame/message; connection is closed
  kServerError = 5,    // internal failure executing a valid request
  kShuttingDown = 6,   // daemon is draining; retry against a new server
  kAuthFailed = 7,     // Hello passphrase does not match the tenant verifier
};

// ---- Messages ----

struct Hello {
  uint32_t magic = kHelloMagic;
  uint32_t version = kWireVersion;
  std::string tenant;
  std::string passphrase;  // seals/unseals this tenant's recipes server-side
};

struct HelloOk {
  uint32_t version = kWireVersion;
  uint64_t maxFrameBytes = kMaxFrameBytes;
};

struct BackupOpen {
  std::string name;
};

struct BackupOpened {
  uint64_t backupId = 0;
};

struct BackupAppend {
  uint64_t backupId = 0;
  ByteVec data;
};

struct BackupFinish {
  uint64_t backupId = 0;
};

struct BackupAbort {
  uint64_t backupId = 0;
};

struct BackupDone {
  uint64_t chunkCount = 0;
  uint64_t newChunks = 0;
  uint64_t duplicateChunks = 0;
  /// Duplicates first stored by some other tenant — the frequency-analysis
  /// leakage surface of conf_dsn_LiQLZ17's multi-tenant threat model,
  /// reported per backup so clients can see their own exposure.
  uint64_t crossTenantDuplicates = 0;
};

struct RestoreOpen {
  std::string name;
};

struct RestoreOpened {
  uint64_t restoreId = 0;
  uint64_t size = 0;
};

struct RestoreRange {
  uint64_t restoreId = 0;
  uint64_t offset = 0;
  uint64_t length = 0;  // server clamps to kMaxDataBytes and object end
};

struct RestoreData {
  ByteVec data;
};

struct RestoreClose {
  uint64_t restoreId = 0;
};

struct DeleteBackup {
  std::string name;
};

struct ListBackups {
  /// Pagination cursor: only names strictly greater (bytewise) than this are
  /// returned. Empty starts from the beginning.
  std::string startAfter;
};

struct ListResult {
  std::vector<std::string> names;  // sorted ascending within one page
  /// More names follow; re-request with startAfter = names.back(). Keeps
  /// every reply frame-bounded no matter how many backups a tenant owns.
  bool truncated = false;
};

struct StatsRequest {};

struct StatsResult {
  std::string json;  // one merged MetricsSnapshot (global + store registry)
};

struct Shutdown {};

struct Ok {};

struct ErrorReply {
  ErrorCode code = ErrorCode::kServerError;
  std::string message;
};

// ---- Bounds-checked payload reader ----

/// Sequential decoder over one frame payload. Every getter throws WireError
/// instead of reading past the end; length-prefixed fields validate the
/// length against both the remaining bytes and the caller's cap before
/// allocating.
class WireReader {
 public:
  explicit WireReader(ByteView in) : in_(in) {}

  uint8_t u8();
  uint32_t u32();
  uint64_t u64();
  uint64_t varint();
  std::string str(size_t maxBytes);
  ByteVec bytes(size_t maxBytes);

  [[nodiscard]] size_t remaining() const { return in_.size() - pos_; }

  /// Trailing-garbage rejection: every decoder ends with this.
  void expectEnd() const;

 private:
  ByteView in_;
  size_t pos_ = 0;
};

// ---- Frame codec (pure; socket I/O lives in socket.h) ----

/// Wraps a payload in the [crc][len][payload] frame.
ByteVec encodeFrame(ByteView payload);

/// Unwraps one complete frame; throws WireError on truncation, oversize
/// length, CRC mismatch or trailing bytes after the frame.
ByteVec decodeFrame(ByteView frame);

/// Frame header bytes (crc32c + payloadLen).
inline constexpr size_t kFrameHeaderBytes = 8;

// ---- Message codecs ----

/// Type tag of an encoded payload; throws WireError on an empty payload or
/// an unknown tag.
MsgType peekType(ByteView payload);

ByteVec encode(const Hello& m);
ByteVec encode(const HelloOk& m);
ByteVec encode(const BackupOpen& m);
ByteVec encode(const BackupOpened& m);
ByteVec encode(const BackupAppend& m);
ByteVec encode(const BackupFinish& m);
ByteVec encode(const BackupAbort& m);
ByteVec encode(const BackupDone& m);
ByteVec encode(const RestoreOpen& m);
ByteVec encode(const RestoreOpened& m);
ByteVec encode(const RestoreRange& m);
ByteVec encode(const RestoreData& m);
ByteVec encode(const RestoreClose& m);
ByteVec encode(const DeleteBackup& m);
ByteVec encode(const ListBackups& m);
ByteVec encode(const ListResult& m);
ByteVec encode(const StatsRequest& m);
ByteVec encode(const StatsResult& m);
ByteVec encode(const Shutdown& m);
ByteVec encode(const Ok& m);
ByteVec encode(const ErrorReply& m);

Hello decodeHello(ByteView payload);
HelloOk decodeHelloOk(ByteView payload);
BackupOpen decodeBackupOpen(ByteView payload);
BackupOpened decodeBackupOpened(ByteView payload);
BackupAppend decodeBackupAppend(ByteView payload);
BackupFinish decodeBackupFinish(ByteView payload);
BackupAbort decodeBackupAbort(ByteView payload);
BackupDone decodeBackupDone(ByteView payload);
RestoreOpen decodeRestoreOpen(ByteView payload);
RestoreOpened decodeRestoreOpened(ByteView payload);
RestoreRange decodeRestoreRange(ByteView payload);
RestoreData decodeRestoreData(ByteView payload);
RestoreClose decodeRestoreClose(ByteView payload);
DeleteBackup decodeDeleteBackup(ByteView payload);
ListBackups decodeListBackups(ByteView payload);
ListResult decodeListResult(ByteView payload);
StatsRequest decodeStatsRequest(ByteView payload);
StatsResult decodeStatsResult(ByteView payload);
Shutdown decodeShutdown(ByteView payload);
Ok decodeOk(ByteView payload);
ErrorReply decodeErrorReply(ByteView payload);

}  // namespace freqdedup::server
