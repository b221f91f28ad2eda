// Wal — slot-based group-commit write-ahead log (WiredTiger src/log is the
// architectural exemplar).
//
// Concurrent committers append CRC-framed records to an in-memory slot
// buffer (cheap, no I/O) and then block in sync(lsn) until their record is
// durable. The first waiter becomes the slot leader: it swaps the buffer
// out, writes the whole coalesced group with one pwrite and makes it durable
// with one fdatasync, then publishes the new durable LSN and wakes every
// waiter whose record the group covered. Later committers that arrived while
// the leader was writing form the next slot — so the fsync rate is bounded
// by disk latency, not by the commit rate, and N concurrent committers cost
// ~1 fdatasync per group instead of N.
//
// LSN space: a record's LSN is its byte offset in the logical log, which is
// stable across log rotations. The physical file holds the suffix starting
// at baseLsn() (offset 0 of the payload region maps to baseLsn()); rotate()
// atomically replaces the file with an empty one whose base is the caller's
// checkpoint watermark, which is how checkpoints bound replay to the tail.
//
// On-disk format: an optional 20-byte header [magic "FDWAL001"][baseLsn
// u64][crc32c u32] followed by records framed exactly like the pre-WAL
// LogKv log: [crc32c(payload) u32][payloadLen u32][payload]. A headerless
// file is read as a legacy log with base LSN 0, so stores written before
// the WAL stay readable; the first rotation migrates them.
//
// Thread safety: append/sync/readAt/appendedLsn/durableLsn are safe from
// any thread. scan/rotate/truncateTail are recovery/checkpoint operations
// and must not race appends (LogKv serializes them under its own mutex).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace freqdedup {

namespace obs {
class MetricsRegistry;
class Counter;
class Histogram;
}  // namespace obs

/// Logical log sequence number: a byte offset in the unrotated log stream.
using Lsn = uint64_t;

/// fsyncs a directory so a rename inside it is durable. Throws on failure.
void fsyncDir(const std::string& dir);

/// Writes all `size` bytes at `offset`, retrying short writes and EINTR.
/// Throws on failure, naming `path`.
void pwriteFully(int fd, const uint8_t* data, size_t size, uint64_t offset,
                 const std::string& path);

/// Reads up to `size` bytes at `offset`, retrying short reads and EINTR;
/// returns the bytes read, fewer only at end of file. Throws on failure,
/// naming `path`.
size_t preadFully(int fd, uint8_t* out, size_t size, uint64_t offset,
                  const std::string& path);

class Wal {
 public:
  /// Bytes of framing before each record's payload.
  static constexpr size_t kFrameBytes = 8;  // crc32c + payloadLen

  /// Opens (creating if needed) the log at `path`. A created file gets a
  /// header with base LSN `createBaseLsn` and is made durable (file +
  /// parent directory synced). Throws std::runtime_error on I/O failure.
  explicit Wal(std::string path, Lsn createBaseLsn = 0);
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends one framed record to the current slot buffer and returns the
  /// LSN of its first payload byte (start + kFrameBytes). The record is NOT
  /// durable until sync() covers its end LSN.
  Lsn append(ByteView payload);

  /// Blocks until every byte below `lsn` is durable (group commit: joins
  /// the current slot, possibly becoming its leader).
  void sync(Lsn lsn);

  /// Makes everything appended so far durable.
  void syncAll() { sync(appendedLsn()); }

  /// Asynchronous commit wait: registers `done(ok)` to run once every byte
  /// below `lsn` is durable (ok == true) or the log has failed / is closing
  /// (ok == false). Callbacks run on a lazily started syncer thread, outside
  /// every Wal lock — they may append to or sync this log, but must not
  /// destroy it. Requests coalesce exactly like blocking sync(): every
  /// callback registered while a group is in flight is covered by one later
  /// fdatasync, so N pipelined committers cost ~1 fsync per group and zero
  /// blocked threads. The destructor drains pending callbacks before
  /// closing the file.
  void syncAsync(Lsn lsn, std::function<void(bool ok)> done);

  [[nodiscard]] Lsn appendedLsn() const;
  [[nodiscard]] Lsn durableLsn() const;
  [[nodiscard]] Lsn baseLsn() const { return baseLsn_; }
  /// Bytes in the replayable tail (appendedLsn - baseLsn).
  [[nodiscard]] uint64_t tailBytes() const { return appendedLsn() - baseLsn_; }

  /// Reads `size` bytes of log payload starting at `lsn`, serving written
  /// bytes with pread and still-buffered bytes from the slot buffers.
  /// Throws std::runtime_error if the range is below baseLsn() or past the
  /// appended end.
  ByteVec readAt(Lsn lsn, size_t size);

  /// One record seen by scan().
  struct Record {
    Lsn start = 0;         // LSN of the frame header
    Lsn payloadLsn = 0;    // LSN of the first payload byte
    Lsn end = 0;           // LSN one past the record
    ByteView payload;      // valid only during the callback
  };

  /// Replays records with start >= `from` (clamped to baseLsn()), stopping
  /// at the first torn or corrupt frame — or when the callback returns
  /// false (a CRC-valid but semantically malformed record, which recovery
  /// treats the same as corruption) — and truncating the file at the stop
  /// point so appends resume at a clean boundary. Returns the end LSN.
  /// Recovery-time only: must not race append/sync.
  Lsn scan(Lsn from, const std::function<bool(const Record&)>& fn);

  /// Atomically replaces the log with an empty one whose base LSN is
  /// `watermark` (== appendedLsn(); everything below it must already be
  /// durable elsewhere — i.e. in a renamed+synced checkpoint). Any bytes
  /// still buffered are discarded as duplicates of checkpointed state.
  /// Crash-safe: the new log is written to <path>.new, synced, renamed over
  /// the old one, and the directory synced.
  void rotate(Lsn watermark);

  /// Resolves the wal.* metrics in `registry` and starts recording into
  /// them (appends, sync latency, group size). Call once, before concurrent
  /// use.
  void bindMetrics(obs::MetricsRegistry& registry);

  /// Test crash injection: stop all further I/O, including the destructor's
  /// final sync, so buffered/unsynced state is dropped exactly as a kill
  /// would drop it. Wakes any blocked sync() with an error.
  void markCrashed();

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  void openFile(Lsn createBaseLsn);
  void readHeader();
  void asyncSyncerLoop();
  void stopAsyncSyncer();
  void writeLeaderGroup(std::unique_lock<std::mutex>& syncLock);
  [[nodiscard]] uint64_t fileOffsetOf(Lsn lsn) const {
    return headerBytes_ + (lsn - baseLsn_);
  }
  void throwErrno(const std::string& what) const;

  std::string path_;
  int fd_ = -1;
  uint64_t headerBytes_ = 0;  // 0 for legacy (headerless) files

  // Buffer state, guarded by bufMu_. The logical log is the concatenation
  //   file [baseLsn_, writtenLsn_) | writingBuf_ | buf_
  // where writingBuf_ is non-empty only while a slot leader is writing it.
  mutable std::mutex bufMu_;
  Lsn baseLsn_ = 0;
  Lsn writtenLsn_ = 0;  // everything below is in the file (not yet durable)
  Lsn nextLsn_ = 0;     // end of the appended log
  ByteVec buf_;         // open slot: [writtenLsn_ + writingBuf_.size(), nextLsn_)
  ByteVec writingBuf_;  // group being written: [writtenLsn_, +size)

  // Group-commit coordination, guarded by syncMu_.
  mutable std::mutex syncMu_;
  std::condition_variable syncCv_;
  Lsn durableLsn_ = 0;
  bool leaderActive_ = false;
  bool crashed_ = false;

  // Async commit state, guarded by asyncMu_ (never held across I/O or while
  // running callbacks). The syncer thread starts on the first syncAsync().
  std::mutex asyncMu_;
  std::condition_variable asyncCv_;
  std::vector<std::pair<Lsn, std::function<void(bool)>>> asyncPending_;
  std::thread asyncSyncer_;
  bool asyncStop_ = false;

  // Metrics (null until bindMetrics; hot paths guard on nullptr).
  obs::Counter* appendsMetric_ = nullptr;
  obs::Counter* appendBytesMetric_ = nullptr;
  obs::Counter* syncsMetric_ = nullptr;
  obs::Histogram* syncUsMetric_ = nullptr;
  obs::Histogram* groupRecordsMetric_ = nullptr;
  obs::Histogram* groupBytesMetric_ = nullptr;
  uint64_t pendingGroupRecords_ = 0;  // records in buf_ (guarded by bufMu_)
  uint64_t writingGroupRecords_ = 0;  // records in writingBuf_
};

}  // namespace freqdedup
