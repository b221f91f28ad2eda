#include "kvstore/logkv.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "common/check.h"
#include "common/crc32.h"
#include "common/varint.h"
#include "kvstore/crash_point.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace freqdedup {

namespace {

std::string keyString(ByteView key) {
  return std::string(reinterpret_cast<const char*>(key.data()), key.size());
}

// Checkpoint header: magic(8) + recordCount(u64) + watermarkLsn(u64) +
// crc32c of the preceding 24 bytes.
constexpr char kCkptMagic[8] = {'F', 'D', 'K', 'V', 'C', 'K', 'P', '1'};
constexpr size_t kCkptHeaderBytes = 28;

/// Write buffer size for checkpoint streaming (bounds RAM for large
/// stores; values larger than this still write in one piece).
constexpr size_t kCkptWriteBufBytes = 1 << 20;

/// Closes a raw fd on scope exit unless released (ownership transferred).
struct FdCloser {
  int fd = -1;
  ~FdCloser() {
    if (fd >= 0) ::close(fd);
  }
  int release() {
    const int out = fd;
    fd = -1;
    return out;
  }
};

}  // namespace

LogKv::LogKv(std::string path, LogKvOptions options)
    : path_(std::move(path)), options_(options) {
  open();
}

LogKv::~LogKv() {
  if (!crashed_) {
    try {
      wal_->syncAll();
    } catch (...) {  // NOLINT(bugprone-empty-catch)
      // Destructors must not throw; an unsynced tail is the crash-before-
      // flush state, which recovery handles.
    }
  }
  if (ckptFd_ >= 0) ::close(ckptFd_);
}

void LogKv::open() {
  // Stray transients from a crash mid-checkpoint / mid-rotation: the tmp
  // checkpoint was never renamed (so never valid) and the tmp log was never
  // swapped in; both are dead bytes.
  std::error_code ec;
  std::filesystem::remove(ckptTmpPath(), ec);
  std::filesystem::remove(path_ + ".new", ec);

  loadCheckpoint();
  // If the log is missing (first open, or a crash between checkpoint and
  // log creation), it is created already based at the watermark.
  wal_ = std::make_unique<Wal>(path_, watermark_);
  replayTail();
}

void LogKv::loadCheckpoint() {
  index_.clear();
  watermark_ = 0;
  ckptLoaded_ = false;
  ckptRecordsLoaded_ = 0;
  if (!std::filesystem::exists(ckptPath())) return;

  bool valid = false;
  try {
    const ByteVec data = readFile(ckptPath());
    do {
      if (data.size() < kCkptHeaderBytes) break;
      if (std::memcmp(data.data(), kCkptMagic, sizeof(kCkptMagic)) != 0)
        break;
      if (crc32c(ByteView(data.data(), 24)) != getU32(data, 24)) break;
      const uint64_t count = getU64(data, 8);
      const Lsn watermark = getU64(data, 16);
      std::unordered_map<std::string, ValueLocation> loaded;
      loaded.reserve(static_cast<size_t>(
          std::min<uint64_t>(count, data.size() / Wal::kFrameBytes)));
      uint64_t offset = kCkptHeaderBytes;
      uint64_t i = 0;
      for (; i < count; ++i) {
        if (offset + Wal::kFrameBytes > data.size()) break;
        const uint32_t crc = getU32(data, offset);
        const uint32_t len = getU32(data, offset + 4);
        if (offset + Wal::kFrameBytes + len > data.size()) break;
        const ByteView payload(data.data() + offset + Wal::kFrameBytes, len);
        if (crc32c(payload) != crc) break;
        ParsedRecord record;
        if (!parseRecordPayload(payload, record)) break;
        // Checkpoints hold only live puts; anything else is corruption.
        if (record.type != RecordType::kPut) break;
        loaded[std::move(record.key)] = ValueLocation{
            offset + Wal::kFrameBytes + record.valueOffsetInPayload,
            record.valueSize, ValueFile::kCkpt};
        offset += Wal::kFrameBytes + len;
      }
      if (i != count || offset != data.size() || loaded.size() != count)
        break;
      index_ = std::move(loaded);
      watermark_ = watermark;
      ckptRecordsLoaded_ = count;
      valid = true;
    } while (false);
  } catch (const std::exception&) {
    valid = false;
  }

  if (!valid) {
    // Quarantine for forensics and fall back to replaying the whole log
    // from its base (best effort: if the log was already rotated past this
    // checkpoint, the loss is real and the caller's verify() reports it).
    index_.clear();
    watermark_ = 0;
    std::error_code ec;
    std::filesystem::rename(ckptPath(), ckptPath() + ".corrupt", ec);
    return;
  }
  const int fd = ::open(ckptPath().c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0)
    throw std::runtime_error("LogKv: cannot reopen checkpoint " +
                             ckptPath() + ": " + std::strerror(errno));
  ckptFd_ = fd;
  ckptLoaded_ = true;
}

void LogKv::replayTail() {
  deadRecords_ = 0;
  tailRecordsReplayed_ = 0;
  tailBytesReplayed_ = 0;
  wal_->scan(watermark_, [this](const Wal::Record& record) {
    ParsedRecord parsed;
    if (!parseRecordPayload(record.payload, parsed))
      return false;  // CRC-valid but malformed: treat as corruption, stop
    if (parsed.type == RecordType::kPut) {
      const auto it = index_.find(parsed.key);
      if (it != index_.end()) ++deadRecords_;
      index_[std::move(parsed.key)] = ValueLocation{
          record.payloadLsn + parsed.valueOffsetInPayload, parsed.valueSize,
          ValueFile::kWal};
    } else {
      if (index_.erase(parsed.key) > 0) ++deadRecords_;
      ++deadRecords_;  // the tombstone itself is dead space
    }
    ++tailRecordsReplayed_;
    tailBytesReplayed_ += record.end - record.start;
    return true;
  });
}

ByteVec LogKv::encodePutPayload(ByteView key, ByteView value,
                                size_t& valueOffsetInPayload) {
  ByteVec payload;
  payload.reserve(1 + 10 + key.size() + 10 + value.size());
  payload.push_back(static_cast<uint8_t>(RecordType::kPut));
  putVarint(payload, key.size());
  appendBytes(payload, key);
  putVarint(payload, value.size());
  valueOffsetInPayload = payload.size();
  appendBytes(payload, value);
  return payload;
}

bool LogKv::parseRecordPayload(ByteView payload, ParsedRecord& out) {
  if (payload.empty()) return false;
  size_t pos = 0;
  const uint8_t type = payload[pos++];
  if (type != static_cast<uint8_t>(RecordType::kPut) &&
      type != static_cast<uint8_t>(RecordType::kDelete))
    return false;
  out.type = static_cast<RecordType>(type);
  const auto keyLen = getVarint(payload, pos);
  if (!keyLen || pos + *keyLen > payload.size()) return false;
  out.key.assign(reinterpret_cast<const char*>(payload.data() + pos),
                 static_cast<size_t>(*keyLen));
  pos += static_cast<size_t>(*keyLen);
  if (out.type == RecordType::kPut) {
    const auto valLen = getVarint(payload, pos);
    if (!valLen || pos + *valLen != payload.size()) return false;
    out.valueOffsetInPayload = pos;
    out.valueSize = static_cast<uint32_t>(*valLen);
  } else if (pos != payload.size()) {
    return false;
  }
  return true;
}

ByteVec LogKv::readValueAtLocked(const ValueLocation& loc) {
  if (loc.file == ValueFile::kWal) return wal_->readAt(loc.offset, loc.size);
  ByteVec value(loc.size);
  if (preadFully(ckptFd_, value.data(), value.size(), loc.offset,
                 ckptPath()) != value.size())
    throw std::runtime_error("LogKv: short read on " + ckptPath());
  return value;
}

void LogKv::markCrashedLocked() {
  crashed_ = true;
  if (wal_) wal_->markCrashed();
}

void LogKv::put(ByteView key, ByteView value) {
  std::lock_guard lock(mu_);
  try {
    size_t valueOffsetInPayload = 0;
    const ByteVec payload = encodePutPayload(key, value,
                                             valueOffsetInPayload);
    const Lsn payloadLsn = wal_->append(payload);
    auto [it, inserted] = index_.try_emplace(keyString(key));
    if (!inserted) ++deadRecords_;
    it->second = ValueLocation{payloadLsn + valueOffsetInPayload,
                               static_cast<uint32_t>(value.size()),
                               ValueFile::kWal};
    maybeCheckpointLocked();
  } catch (const kvcrash::CrashInjected&) {
    markCrashedLocked();
    throw;
  }
}

void LogKv::syncAsync(Lsn lsn, std::function<void(bool ok)> done) {
  bool isCrashed = false;
  {
    std::lock_guard lock(mu_);
    isCrashed = crashed_;
  }
  if (isCrashed) {
    done(false);
    return;
  }
  wal_->syncAsync(lsn, std::move(done));
}

std::optional<ByteVec> LogKv::get(ByteView key) {
  std::lock_guard lock(mu_);
  const auto it = index_.find(keyString(key));
  if (it == index_.end()) return std::nullopt;
  return readValueAtLocked(it->second);
}

bool LogKv::erase(ByteView key) {
  std::lock_guard lock(mu_);
  const auto it = index_.find(keyString(key));
  if (it == index_.end()) return false;
  try {
    ByteVec payload;
    payload.reserve(1 + 10 + key.size());
    payload.push_back(static_cast<uint8_t>(RecordType::kDelete));
    putVarint(payload, key.size());
    appendBytes(payload, key);
    wal_->append(payload);
    index_.erase(it);
    // Two dead records per erase — the erased put and the tombstone
    // itself — matching what replay counts, so deadRecords() is stable
    // across a reopen.
    deadRecords_ += 2;
    maybeCheckpointLocked();
  } catch (const kvcrash::CrashInjected&) {
    markCrashedLocked();
    throw;
  }
  return true;
}

bool LogKv::contains(ByteView key) const {
  std::lock_guard lock(mu_);
  return index_.find(keyString(key)) != index_.end();
}

size_t LogKv::size() const {
  std::lock_guard lock(mu_);
  return index_.size();
}

void LogKv::forEach(
    const std::function<void(ByteView key, ByteView value)>& fn) {
  std::lock_guard lock(mu_);
  for (const auto& [key, loc] : index_) {
    const ByteVec value = readValueAtLocked(loc);
    fn(ByteView(reinterpret_cast<const uint8_t*>(key.data()), key.size()),
       value);
  }
}

void LogKv::forEachKey(const std::function<void(ByteView key)>& fn) const {
  std::lock_guard lock(mu_);
  for (const auto& [key, loc] : index_)
    fn(ByteView(reinterpret_cast<const uint8_t*>(key.data()), key.size()));
}

void LogKv::flush() { sync(wal_->appendedLsn()); }

Lsn LogKv::appendedLsn() const { return wal_->appendedLsn(); }

void LogKv::sync(Lsn lsn) {
  // Deliberately not under mu_: the durability wait is where concurrent
  // committers coalesce into one group fdatasync.
  try {
    wal_->sync(lsn);
  } catch (const kvcrash::CrashInjected&) {
    std::lock_guard lock(mu_);
    markCrashedLocked();
    throw;
  }
}

Lsn LogKv::durableLsn() const { return wal_->durableLsn(); }

uint64_t LogKv::logBytes() const { return wal_->tailBytes(); }

uint64_t LogKv::deadRecords() const {
  std::lock_guard lock(mu_);
  return deadRecords_;
}

void LogKv::checkpoint() {
  std::lock_guard lock(mu_);
  try {
    checkpointLocked();
  } catch (const kvcrash::CrashInjected&) {
    markCrashedLocked();
    throw;
  }
}

void LogKv::maybeCheckpointLocked() {
  if (wal_->tailBytes() >= options_.checkpointBytes) checkpointLocked();
}

void LogKv::checkpointLocked() {
  kvcrash::crashPoint("ckpt.begin");
  obs::ObsSpan span(ckptWriteUsMetric_, "kv.checkpoint", "kv");
  const Lsn watermark = wal_->appendedLsn();

  // Stream every live key+value into the tmp checkpoint, remembering each
  // value's future location so the in-memory index can be swapped over
  // atomically once the file is durable.
  FdCloser tmp;
  tmp.fd = ::open(ckptTmpPath().c_str(),
                  O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (tmp.fd < 0)
    throw std::runtime_error("LogKv: cannot create " + ckptTmpPath() + ": " +
                             std::strerror(errno));
  ByteVec buf;
  buf.reserve(kCkptWriteBufBytes + (64 << 10));
  uint64_t flushedBytes = 0;
  const auto flushBuf = [&] {
    if (buf.empty()) return;
    pwriteFully(tmp.fd, buf.data(), buf.size(), flushedBytes, ckptTmpPath());
    flushedBytes += buf.size();
    buf.clear();
  };

  appendBytes(buf, ByteView(reinterpret_cast<const uint8_t*>(kCkptMagic),
                            sizeof(kCkptMagic)));
  putU64(buf, index_.size());
  putU64(buf, watermark);
  putU32(buf, crc32c(ByteView(buf.data(), 24)));

  std::unordered_map<std::string, ValueLocation> fresh;
  fresh.reserve(index_.size());
  uint64_t records = 0;
  for (const auto& [key, loc] : index_) {
    const ByteVec value = readValueAtLocked(loc);
    size_t valueOffsetInPayload = 0;
    const ByteVec payload = encodePutPayload(
        ByteView(reinterpret_cast<const uint8_t*>(key.data()), key.size()),
        value, valueOffsetInPayload);
    const uint64_t recordStart = flushedBytes + buf.size();
    putU32(buf, crc32c(payload));
    putU32(buf, static_cast<uint32_t>(payload.size()));
    appendBytes(buf, payload);
    fresh[key] = ValueLocation{
        recordStart + Wal::kFrameBytes + valueOffsetInPayload,
        static_cast<uint32_t>(value.size()), ValueFile::kCkpt};
    ++records;
    if (buf.size() >= kCkptWriteBufBytes) flushBuf();
  }
  flushBuf();
  kvcrash::crashPoint("ckpt.after_tmp_write");

  // Durable publish: fsync the tmp file BEFORE the rename (so the name
  // never points at unsynced bytes) and fsync the directory AFTER (so the
  // rename itself survives power loss).
  if (::fdatasync(tmp.fd) != 0)
    throw std::runtime_error("LogKv: fdatasync failed on " + ckptTmpPath() +
                             ": " + std::strerror(errno));
  kvcrash::crashPoint("ckpt.after_tmp_sync");
  std::filesystem::rename(ckptTmpPath(), ckptPath());
  kvcrash::crashPoint("ckpt.after_rename");
  fsyncDir(std::filesystem::path(path_).parent_path().string());
  kvcrash::crashPoint("ckpt.after_dir_sync");

  // The checkpoint is durable: swap the live read fd and index over, then
  // rotate the WAL so the replay tail restarts at the watermark. A crash
  // before the rotation replays old records below the watermark — which
  // the scan skips — so every point in this sequence recovers consistently.
  if (ckptFd_ >= 0) ::close(ckptFd_);
  ckptFd_ = tmp.release();
  index_ = std::move(fresh);
  watermark_ = watermark;
  wal_->rotate(watermark);
  kvcrash::crashPoint("ckpt.after_rotate");
  deadRecords_ = 0;
  if (ckptWritesMetric_ != nullptr) {
    ckptWritesMetric_->add();
    ckptRecordsMetric_->add(records);
  }
}

void LogKv::bindMetrics(obs::MetricsRegistry& registry) {
  wal_->bindMetrics(registry);
  registry.counter("wal.replay.records").add(tailRecordsReplayed_);
  registry.counter("wal.replay.bytes").add(tailBytesReplayed_);
  if (ckptLoaded_) {
    registry.counter("ckpt.loads").add();
    registry.counter("ckpt.load_records").add(ckptRecordsLoaded_);
  }
  ckptWritesMetric_ = &registry.counter("ckpt.writes");
  ckptRecordsMetric_ = &registry.counter("ckpt.records");
  ckptWriteUsMetric_ = &registry.histogram("ckpt.write_us");
}

ByteVec kvKeyFromU64(uint64_t v) {
  ByteVec key;
  key.reserve(8);
  putU64(key, v);
  return key;
}

uint64_t kvKeyToU64(ByteView key) {
  FDD_CHECK(key.size() == 8);
  return getU64(key, 0);
}

}  // namespace freqdedup
