#include "kvstore/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "common/check.h"
#include "common/crc32.h"
#include "kvstore/crash_point.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace freqdedup {

namespace {

constexpr char kWalMagic[8] = {'F', 'D', 'W', 'A', 'L', '0', '0', '1'};
constexpr size_t kHeaderBytes = 20;  // magic(8) + baseLsn(8) + crc32c(4)

ByteVec encodeHeader(Lsn baseLsn) {
  ByteVec header;
  header.reserve(kHeaderBytes);
  appendBytes(header, ByteView(reinterpret_cast<const uint8_t*>(kWalMagic),
                               sizeof(kWalMagic)));
  putU64(header, baseLsn);
  putU32(header, crc32c(ByteView(header.data(), 16)));
  return header;
}

void fdatasyncOrThrow(int fd, const std::string& path) {
  if (::fdatasync(fd) != 0)
    throw std::runtime_error("wal: fdatasync failed on " + path + ": " +
                             std::strerror(errno));
}

uint64_t fileSizeOf(int fd, const std::string& path) {
  const off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0)
    throw std::runtime_error("wal: lseek failed on " + path + ": " +
                             std::strerror(errno));
  return static_cast<uint64_t>(end);
}

}  // namespace

void pwriteFully(int fd, const uint8_t* data, size_t size, uint64_t offset,
                 const std::string& path) {
  while (size > 0) {
    const ssize_t n = ::pwrite(fd, data, size, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("write failed on " + path + ": " +
                               std::strerror(errno));
    }
    data += n;
    size -= static_cast<size_t>(n);
    offset += static_cast<uint64_t>(n);
  }
}

size_t preadFully(int fd, uint8_t* out, size_t size, uint64_t offset,
                  const std::string& path) {
  size_t total = 0;
  while (total < size) {
    const ssize_t n = ::pread(fd, out + total, size - total,
                              static_cast<off_t>(offset + total));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("read failed on " + path + ": " +
                               std::strerror(errno));
    }
    if (n == 0) break;  // EOF
    total += static_cast<size_t>(n);
  }
  return total;
}

void fsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0)
    throw std::runtime_error("wal: cannot open directory " + dir + ": " +
                             std::strerror(errno));
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0)
    throw std::runtime_error("wal: fsync failed on directory " + dir + ": " +
                             std::strerror(err));
}

void Wal::throwErrno(const std::string& what) const {
  throw std::runtime_error("wal: " + what + " on " + path_ + ": " +
                           std::strerror(errno));
}

Wal::Wal(std::string path, Lsn createBaseLsn) : path_(std::move(path)) {
  openFile(createBaseLsn);
}

Wal::~Wal() {
  stopAsyncSyncer();
  if (fd_ >= 0) {
    if (!crashed_) {
      try {
        syncAll();
      } catch (...) {  // NOLINT(bugprone-empty-catch)
        // Destructors must not throw; an unsynced tail is the same state as
        // a crash before sync, which recovery truncates cleanly.
      }
    }
    ::close(fd_);
  }
}

void Wal::openFile(Lsn createBaseLsn) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
  const bool created = fd_ < 0 && errno == ENOENT;
  if (created)
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd_ < 0) throwErrno("cannot open");
  if (created) {
    const ByteVec header = encodeHeader(createBaseLsn);
    pwriteFully(fd_, header.data(), header.size(), 0, path_);
    fdatasyncOrThrow(fd_, path_);
    fsyncDir(std::filesystem::path(path_).parent_path().string());
  }
  readHeader();
}

void Wal::readHeader() {
  const uint64_t size = fileSizeOf(fd_, path_);
  uint8_t header[kHeaderBytes];
  bool haveHeader = false;
  if (size >= kHeaderBytes &&
      preadFully(fd_, header, kHeaderBytes, 0, path_) == kHeaderBytes &&
      std::memcmp(header, kWalMagic, sizeof(kWalMagic)) == 0 &&
      crc32c(ByteView(header, 16)) == getU32(ByteView(header, kHeaderBytes),
                                             16)) {
    haveHeader = true;
  }
  if (haveHeader) {
    headerBytes_ = kHeaderBytes;
    baseLsn_ = getU64(ByteView(header, kHeaderBytes), 8);
  } else {
    // Legacy pre-WAL log (or a file torn during creation): treat the whole
    // file as records with base LSN 0. The next rotation migrates it.
    headerBytes_ = 0;
    baseLsn_ = 0;
  }
  writtenLsn_ = baseLsn_ + (size - headerBytes_);
  nextLsn_ = writtenLsn_;
  durableLsn_ = writtenLsn_;  // just (re)opened: nothing buffered
}

Lsn Wal::append(ByteView payload) {
  ByteVec framed;
  framed.reserve(kFrameBytes + payload.size());
  putU32(framed, crc32c(payload));
  putU32(framed, static_cast<uint32_t>(payload.size()));
  appendBytes(framed, payload);

  // Slot buffers are bounded: once the open slot exceeds the spill
  // threshold (a put-heavy stretch with no sync in sight), write it to the
  // file WITHOUT a sync — durability is still deferred to the next group
  // fdatasync, which covers spilled bytes for free. Spilling only happens
  // while no leader holds bytes to write, so file regions never overlap.
  constexpr size_t kSpillBytes = 1 << 20;
  Lsn payloadLsn = 0;
  {
    std::lock_guard lock(bufMu_);
    payloadLsn = nextLsn_ + kFrameBytes;
    appendBytes(buf_, framed);
    nextLsn_ += framed.size();
    ++pendingGroupRecords_;
    if (buf_.size() >= kSpillBytes && writingBuf_.empty()) {
      pwriteFully(fd_, buf_.data(), buf_.size(), fileOffsetOf(writtenLsn_),
                  path_);
      writtenLsn_ += buf_.size();
      buf_.clear();
      // pendingGroupRecords_ stays: the spilled records still belong to the
      // next sync's group (they are written, not yet durable).
    }
  }
  kvcrash::crashPoint("wal.append");
  if (appendsMetric_ != nullptr) {
    appendsMetric_->add();
    appendBytesMetric_->add(framed.size());
  }
  return payloadLsn;
}

void Wal::sync(Lsn lsn) {
  std::unique_lock lock(syncMu_);
  for (;;) {
    if (crashed_) throw std::runtime_error("wal: crashed: " + path_);
    if (durableLsn_ >= lsn) return;
    if (!leaderActive_) break;
    // A leader is writing the previous slot; wait for it to publish. The
    // waiters it wakes re-check durableLsn_ and the first one still short
    // of its LSN leads the next slot — that later-arrivals batch is the
    // group commit.
    syncCv_.wait(lock);
  }
  leaderActive_ = true;
  writeLeaderGroup(lock);
}

void Wal::writeLeaderGroup(std::unique_lock<std::mutex>& syncLock) {
  // Called with syncMu_ held and leaderActive_ set by this thread.
  Lsn target = 0;
  {
    std::lock_guard bufLock(bufMu_);
    FDD_CHECK(writingBuf_.empty());
    writingBuf_ = std::move(buf_);
    buf_.clear();
    writingGroupRecords_ = pendingGroupRecords_;
    pendingGroupRecords_ = 0;
    target = nextLsn_;
  }
  syncLock.unlock();

  bool ok = false;
  try {
    if (!writingBuf_.empty())
      pwriteFully(fd_, writingBuf_.data(), writingBuf_.size(),
                  fileOffsetOf(target - writingBuf_.size()), path_);
    kvcrash::crashPoint("wal.after_write");
    obs::ObsSpan span(syncUsMetric_, "wal.sync", "wal");
    fdatasyncOrThrow(fd_, path_);
    span.finish();
    kvcrash::crashPoint("wal.after_sync");
    ok = true;
  } catch (...) {
    // Leave the group in writingBuf_ visible to readAt (the bytes are still
    // the authoritative tail), mark the log crashed so no caller believes a
    // later sync succeeded, and wake everyone.
    {
      // The pwrite may have partly landed: never re-serve it from memory
      // (a failed write is unrecoverable for this instance anyway).
      std::lock_guard bufLock(bufMu_);
      writtenLsn_ = std::max(writtenLsn_, target);
      writingBuf_.clear();
      writingGroupRecords_ = 0;
    }
    syncLock.lock();
    crashed_ = true;
    leaderActive_ = false;
    syncLock.unlock();
    syncCv_.notify_all();
    throw;
  }

  if (syncsMetric_ != nullptr && ok) {
    syncsMetric_->add();
    groupRecordsMetric_->record(writingGroupRecords_);
    groupBytesMetric_->record(writingBuf_.size());
  }
  {
    // Never back: appends may spill past target during an empty group.
    std::lock_guard bufLock(bufMu_);
    writtenLsn_ = std::max(writtenLsn_, target);
    writingBuf_.clear();
    writingGroupRecords_ = 0;
  }
  syncLock.lock();
  durableLsn_ = target;
  leaderActive_ = false;
  syncLock.unlock();
  syncCv_.notify_all();
}

void Wal::syncAsync(Lsn lsn, std::function<void(bool ok)> done) {
  // Already durable: nothing to wait for, run the callback on the caller's
  // thread.
  if (durableLsn() >= lsn) {
    done(true);
    return;
  }
  {
    std::lock_guard lock(asyncMu_);
    if (asyncStop_) {
      // Closing: behave like a crash before sync.
      done(false);
      return;
    }
    if (!asyncSyncer_.joinable())
      asyncSyncer_ = std::thread([this] { asyncSyncerLoop(); });
    asyncPending_.emplace_back(lsn, std::move(done));
  }
  asyncCv_.notify_one();
}

void Wal::asyncSyncerLoop() {
  for (;;) {
    std::vector<std::pair<Lsn, std::function<void(bool)>>> batch;
    {
      std::unique_lock lock(asyncMu_);
      asyncCv_.wait(lock,
                    [this] { return asyncStop_ || !asyncPending_.empty(); });
      if (asyncPending_.empty()) return;  // asyncStop_ and nothing owed
      batch.swap(asyncPending_);
    }
    // One blocking sync covers the whole batch — and coalesces with any
    // concurrent blocking sync()ers through the normal slot mechanism.
    Lsn maxLsn = 0;
    for (const auto& [lsn, cb] : batch) maxLsn = std::max(maxLsn, lsn);
    bool ok = true;
    try {
      sync(maxLsn);
    } catch (...) {
      ok = false;  // crashed / I/O failure: every waiter learns the truth
    }
    for (auto& [lsn, cb] : batch) {
      try {
        cb(ok);
      } catch (...) {  // NOLINT(bugprone-empty-catch)
        // A throwing completion callback must not take down the syncer (or
        // starve the callbacks queued behind it).
      }
    }
  }
}

void Wal::stopAsyncSyncer() {
  {
    std::lock_guard lock(asyncMu_);
    asyncStop_ = true;
  }
  asyncCv_.notify_all();
  if (asyncSyncer_.joinable()) asyncSyncer_.join();
}

Lsn Wal::appendedLsn() const {
  std::lock_guard lock(bufMu_);
  return nextLsn_;
}

Lsn Wal::durableLsn() const {
  std::lock_guard lock(syncMu_);
  return durableLsn_;
}

ByteVec Wal::readAt(Lsn lsn, size_t size) {
  ByteVec out(size);
  size_t have = 0;
  // File bytes below writtenLsn_ are immutable once written (append-only;
  // truncation only happens in recovery/rotation, which never races reads),
  // so the pread itself can run without the buffer lock.
  uint64_t preadOffset = 0;
  size_t preadBytes = 0;
  {
    std::lock_guard lock(bufMu_);
    if (lsn < baseLsn_ || lsn + size > nextLsn_)
      throw std::runtime_error("wal: read out of range on " + path_);
    const size_t fromFile =
        lsn < writtenLsn_
            ? std::min<uint64_t>(size, writtenLsn_ - lsn)
            : 0;
    preadOffset = fileOffsetOf(lsn);
    preadBytes = fromFile;
    // Memory part: writingBuf_ then buf_, contiguous from writtenLsn_.
    size_t memPos = have + fromFile;
    Lsn memLsn = lsn + fromFile;
    if (memPos < size) {
      const uint64_t memOffset = memLsn - writtenLsn_;
      if (memOffset < writingBuf_.size()) {
        const size_t n = std::min(size - memPos,
                                  writingBuf_.size() -
                                      static_cast<size_t>(memOffset));
        std::memcpy(out.data() + memPos, writingBuf_.data() + memOffset, n);
        memPos += n;
        memLsn += n;
      }
      if (memPos < size) {
        const uint64_t bufOffset =
            memLsn - (writtenLsn_ + writingBuf_.size());
        std::memcpy(out.data() + memPos, buf_.data() + bufOffset,
                    size - memPos);
      }
    }
  }
  if (preadBytes > 0 &&
      preadFully(fd_, out.data(), preadBytes, preadOffset, path_) !=
          preadBytes)
    throw std::runtime_error("wal: short read on " + path_);
  return out;
}

Lsn Wal::scan(Lsn from, const std::function<bool(const Record&)>& fn) {
  const uint64_t size = fileSizeOf(fd_, path_);
  const uint64_t dataBytes = size - headerBytes_;
  Lsn lsn = std::max(from, baseLsn_);
  if (lsn - baseLsn_ > dataBytes) {
    // A checkpoint watermark beyond the log's end (a crash tore the log's
    // creation after the checkpoint committed): rewrite the log as an empty
    // one based at the watermark, so future appends cannot leave a hole
    // that a later replay would misread as a torn tail.
    if (::ftruncate(fd_, 0) != 0) throwErrno("ftruncate failed");
    const ByteVec header = encodeHeader(lsn);
    pwriteFully(fd_, header.data(), header.size(), 0, path_);
    fdatasyncOrThrow(fd_, path_);
    headerBytes_ = kHeaderBytes;
    baseLsn_ = lsn;
    std::scoped_lock lock(syncMu_, bufMu_);
    writtenLsn_ = nextLsn_ = durableLsn_ = lsn;
    return lsn;
  }

  ByteVec payload;
  while (lsn + kFrameBytes <= baseLsn_ + dataBytes) {
    uint8_t frame[kFrameBytes];
    if (preadFully(fd_, frame, kFrameBytes, fileOffsetOf(lsn), path_) !=
        kFrameBytes)
      break;
    const uint32_t crc = getU32(ByteView(frame, kFrameBytes), 0);
    const uint32_t len = getU32(ByteView(frame, kFrameBytes), 4);
    if (lsn + kFrameBytes + len > baseLsn_ + dataBytes) break;
    payload.resize(len);
    if (len > 0 &&
        preadFully(fd_, payload.data(), len, fileOffsetOf(lsn) + kFrameBytes,
                   path_) != len)
      break;
    if (crc32c(payload) != crc) break;  // torn/corrupt record: stop here
    Record record;
    record.start = lsn;
    record.payloadLsn = lsn + kFrameBytes;
    record.end = lsn + kFrameBytes + len;
    record.payload = payload;
    const bool keepGoing = fn(record);
    lsn = record.end;
    if (!keepGoing) break;
  }

  if (lsn - baseLsn_ < dataBytes) {
    // Truncate the torn tail so appends resume at a clean record boundary.
    if (::ftruncate(fd_, static_cast<off_t>(fileOffsetOf(lsn))) != 0)
      throwErrno("ftruncate failed");
  }
  std::scoped_lock lock(syncMu_, bufMu_);  // the order writeLeaderGroup uses
  writtenLsn_ = nextLsn_ = durableLsn_ = lsn;
  return lsn;
}

void Wal::rotate(Lsn watermark) {
  // Callers guarantee watermark == appendedLsn() and that all state below
  // it is durable in a renamed+directory-synced checkpoint, so the old log
  // (and anything still buffered) is redundant once the new one is in
  // place.
  std::unique_lock syncLock(syncMu_);
  syncCv_.wait(syncLock, [this] { return !leaderActive_; });
  if (crashed_) throw std::runtime_error("wal: crashed: " + path_);
  std::lock_guard bufLock(bufMu_);
  FDD_CHECK_MSG(watermark == nextLsn_, "rotate below the appended end");

  const std::string tmpPath = path_ + ".new";
  const int tmpFd =
      ::open(tmpPath.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (tmpFd < 0)
    throw std::runtime_error("wal: cannot create " + tmpPath + ": " +
                             std::strerror(errno));
  try {
    const ByteVec header = encodeHeader(watermark);
    pwriteFully(tmpFd, header.data(), header.size(), 0, tmpPath);
    fdatasyncOrThrow(tmpFd, tmpPath);
  } catch (...) {
    ::close(tmpFd);
    throw;
  }
  std::error_code ec;
  std::filesystem::rename(tmpPath, path_, ec);
  if (ec) {
    ::close(tmpFd);
    throw std::runtime_error("wal: rename failed on " + tmpPath + ": " +
                             ec.message());
  }
  fsyncDir(std::filesystem::path(path_).parent_path().string());
  ::close(fd_);
  fd_ = tmpFd;  // same inode as the renamed file
  headerBytes_ = kHeaderBytes;
  baseLsn_ = watermark;
  writtenLsn_ = nextLsn_ = durableLsn_ = watermark;
  buf_.clear();
  writingBuf_.clear();
  pendingGroupRecords_ = writingGroupRecords_ = 0;
  syncLock.unlock();
  syncCv_.notify_all();
}

void Wal::bindMetrics(obs::MetricsRegistry& registry) {
  appendsMetric_ = &registry.counter("wal.appends");
  appendBytesMetric_ = &registry.counter("wal.append_bytes");
  syncsMetric_ = &registry.counter("wal.syncs");
  syncUsMetric_ = &registry.histogram("wal.sync_us");
  groupRecordsMetric_ = &registry.histogram("wal.group_records");
  groupBytesMetric_ = &registry.histogram("wal.group_bytes");
}

void Wal::markCrashed() {
  {
    std::lock_guard lock(syncMu_);
    crashed_ = true;
  }
  syncCv_.notify_all();
}

}  // namespace freqdedup
