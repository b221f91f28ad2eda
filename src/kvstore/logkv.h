// LogKv — persistent log-structured key-value store (Bitcask style) over a
// group-commit write-ahead log with index checkpointing.
//
// All mutations append CRC-framed records to the WAL (see wal.h); an
// in-memory hash index maps each live key to the location of its latest
// value — either in the WAL tail or in the newest checkpoint file.
//
// Durability: appends are buffered; flush() (and sync(lsn)) block until the
// records are on stable storage — one group fdatasync covers every
// concurrent committer in the slot, so durable commits do not serialize on
// per-op fsyncs. flush() returning means the data survives power loss.
//
// Checkpoints: checkpoint() snapshots every live key+value into
// <path>.ckpt (written to a tmp file, fdatasynced, atomically renamed,
// directory-synced, with the WAL watermark LSN in its header), then rotates
// the WAL to an empty log based at the watermark. Open-time recovery loads
// the newest valid checkpoint and replays only the WAL tail past its
// watermark, truncating any torn record. Checkpoints run automatically once
// the WAL tail exceeds LogKvOptions::checkpointBytes; compact() is the
// explicit form (a checkpoint holds only live records, so it also reclaims
// dead space — GC drives it).
//
// Record framing (WAL and checkpoint records alike):
//   [crc32c: u32][payloadLen: u32][payload], payload =
//   [type: u8][varint keyLen][key][varint valLen][val]
//   (valLen/val omitted for tombstones).
//
// Thread safety: all operations are safe from any thread. Mutations and
// reads serialize on an internal mutex; the durability wait in sync()/
// flush() runs outside it, which is what lets concurrent committers group.
// forEach's and forEachKey's callbacks run under the mutex and must not
// reenter the store.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/bytes.h"
#include "kvstore/wal.h"

namespace freqdedup {

namespace obs {
class MetricsRegistry;
class Counter;
class Histogram;
}  // namespace obs

struct LogKvOptions {
  /// Auto-checkpoint once the WAL tail exceeds this many bytes, bounding
  /// both replay time and dead-record accumulation.
  uint64_t checkpointBytes = 8ull << 20;
};

class LogKv final {
 public:
  /// Opens (creating if needed) the store at `path` (WAL at `path`,
  /// checkpoint at `path`.ckpt), loads the newest valid checkpoint and
  /// replays the WAL tail. Throws std::runtime_error on unrecoverable I/O
  /// failure.
  explicit LogKv(std::string path, LogKvOptions options = {});
  ~LogKv();

  LogKv(const LogKv&) = delete;
  LogKv& operator=(const LogKv&) = delete;

  /// Inserts or overwrites a key.
  void put(ByteView key, ByteView value);

  /// Registers `done(ok)` to run once every record below `lsn` is durable
  /// (see Wal::syncAsync): callbacks run on the WAL's syncer thread, outside
  /// the store mutex, and concurrent requests coalesce into one group
  /// fdatasync — the no-blocked-thread form of sync(lsn).
  void syncAsync(Lsn lsn, std::function<void(bool ok)> done);
  /// The value for a key, or nullopt if absent.
  std::optional<ByteVec> get(ByteView key);
  /// Removes a key. Returns true if it was present.
  bool erase(ByteView key);
  /// Presence test without reading the value.
  [[nodiscard]] bool contains(ByteView key) const;
  /// Number of live keys.
  [[nodiscard]] size_t size() const;
  /// Visits every live entry (order unspecified); see the thread-safety
  /// note above.
  void forEach(const std::function<void(ByteView key, ByteView value)>& fn);
  /// Visits every live key (order unspecified) without reading any value;
  /// same thread-safety note as forEach.
  void forEachKey(const std::function<void(ByteView key)>& fn) const;

  /// Blocks until every record appended so far is durable (group commit:
  /// one fdatasync per slot of concurrent flushers). When flush() returns,
  /// the data survives power loss.
  void flush();

  /// LSN of the end of the appended log; sync(appendedLsn()) == flush().
  [[nodiscard]] Lsn appendedLsn() const;

  /// Blocks until every record below `lsn` is durable. Runs outside the
  /// store mutex: concurrent committers coalesce into one group fdatasync.
  void sync(Lsn lsn);

  /// End LSN of the durable prefix.
  [[nodiscard]] Lsn durableLsn() const;

  /// Writes a checkpoint and rotates the WAL; on return both are durable.
  void checkpoint();

  /// Reclaims dead space; with checkpointing this IS a checkpoint.
  void compact() { checkpoint(); }

  /// Bytes in the replayable WAL tail (what recovery would replay).
  [[nodiscard]] uint64_t logBytes() const;
  /// Dead records accumulated since the last checkpoint: one per
  /// overwritten put, two per erase (the erased put + the tombstone
  /// itself) — counted identically by live mutations and by replay, so the
  /// value is stable across reopen.
  [[nodiscard]] uint64_t deadRecords() const;
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Recovery observability: WAL-tail records replayed by this open, and
  /// records loaded from the checkpoint (0 when none was found).
  [[nodiscard]] uint64_t tailRecordsReplayed() const {
    return tailRecordsReplayed_;
  }
  [[nodiscard]] uint64_t checkpointRecordsLoaded() const {
    return ckptRecordsLoaded_;
  }
  /// The loaded checkpoint's watermark LSN (0 when none was found).
  [[nodiscard]] Lsn checkpointWatermark() const { return watermark_; }

  /// Resolves wal.* / ckpt.* metrics in `registry`, backfills the replay
  /// counters from this open (wal.replay.records, ckpt.loads, ...) and
  /// records checkpoint/WAL activity there from now on. Call once.
  void bindMetrics(obs::MetricsRegistry& registry);

 private:
  enum class RecordType : uint8_t { kPut = 1, kDelete = 2 };
  /// Where a value's bytes live.
  enum class ValueFile : uint8_t { kWal, kCkpt };

  struct ValueLocation {
    uint64_t offset = 0;  // kWal: LSN of the value bytes; kCkpt: file offset
    uint32_t size = 0;
    ValueFile file = ValueFile::kWal;
  };

  struct ParsedRecord {
    RecordType type = RecordType::kPut;
    std::string key;
    size_t valueOffsetInPayload = 0;
    uint32_t valueSize = 0;
  };

  void open();
  void loadCheckpoint();
  void replayTail();
  ByteVec readValueAtLocked(const ValueLocation& loc);
  void checkpointLocked();
  void maybeCheckpointLocked();
  /// Marks this store (and its WAL) crashed after injected fault, so
  /// destructors perform no further I/O.
  void markCrashedLocked();
  static bool parseRecordPayload(ByteView payload, ParsedRecord& out);
  static ByteVec encodePutPayload(ByteView key, ByteView value,
                                  size_t& valueOffsetInPayload);

  [[nodiscard]] std::string ckptPath() const { return path_ + ".ckpt"; }
  [[nodiscard]] std::string ckptTmpPath() const {
    return path_ + ".ckpt.tmp";
  }

  std::string path_;
  LogKvOptions options_;
  mutable std::mutex mu_;
  std::unique_ptr<Wal> wal_;
  int ckptFd_ = -1;  // open checkpoint file, -1 when none
  uint64_t deadRecords_ = 0;
  bool crashed_ = false;
  std::unordered_map<std::string, ValueLocation> index_;

  // Stats from this instance's open-time recovery.
  Lsn watermark_ = 0;
  bool ckptLoaded_ = false;
  uint64_t ckptRecordsLoaded_ = 0;
  uint64_t tailRecordsReplayed_ = 0;
  uint64_t tailBytesReplayed_ = 0;

  // Metrics (null until bindMetrics).
  obs::Counter* ckptWritesMetric_ = nullptr;
  obs::Counter* ckptRecordsMetric_ = nullptr;
  obs::Histogram* ckptWriteUsMetric_ = nullptr;
};

/// Fixed 8-byte (little-endian) keys for u64-keyed entries.
ByteVec kvKeyFromU64(uint64_t v);
uint64_t kvKeyToU64(ByteView key);

}  // namespace freqdedup
