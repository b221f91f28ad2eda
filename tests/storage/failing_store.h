// Fault-injection BackupStore decorator for restore- and commit-path tests.
//
// Wraps any BackupStore and forwards every operation; the read path
// (getChunk / getChunks) can be made to fail or corrupt every read of one
// chunk, named by its ciphertext fingerprint, or to delay every read, and
// the metadata group sync (syncMetadataAsync) can be made to fail, and so
// can the write path's chunk puts (putChunk, putKnownChunk). Keying
// faults to a chunk rather than to global read order keeps them
// deterministic under restore prefetch, which may fetch later batches before
// earlier ones are emitted. All injection state is atomic, so the wrapper is
// as thread-safe as the store it decorates — concurrent restore sessions can
// run through it, and the concurrency high-water mark records how many
// chunk-fetching calls overlapped (the lock-scope regression tests assert it
// exceeds 1).
#pragma once

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "storage/backup_store.h"

namespace freqdedup {

class FailingStore : public BackupStore {
 public:
  explicit FailingStore(BackupStore& inner) : inner_(&inner) {}

  // --- Injection knobs (resetInjection disarms them all) ---

  /// Every read of `cipherFp` throws std::runtime_error("injected read
  /// failure").
  void failReadOf(Fp cipherFp) { failFp_.arm(cipherFp); }

  /// Every read of `cipherFp` returns its bytes with one bit flipped.
  void corruptReadOf(Fp cipherFp) { corruptFp_.arm(cipherFp); }

  /// Every getChunk/getChunks call sleeps this long (simulated I/O latency).
  void delayReads(std::chrono::milliseconds d) { delayMs_.store(d.count()); }

  /// Every syncMetadataAsync reports ok == false, as when the metadata log's
  /// group sync fails.
  void failMetadataSync() { failSync_.store(true); }

  /// Every putChunk throws std::runtime_error("injected put failure").
  void failPuts() { failPuts_.store(true); }

  /// Every putKnownChunk (a seal-memo put) throws the same error.
  void failKnownPuts() { failKnownPuts_.store(true); }

  void resetInjection() {
    failFp_.disarm();
    corruptFp_.disarm();
    delayMs_.store(0);
    failSync_.store(false);
    failPuts_.store(false);
    failKnownPuts_.store(false);
  }

  /// Highest number of simultaneously in-flight getChunk/getChunks calls.
  [[nodiscard]] uint64_t maxConcurrentReads() const {
    return maxConcurrent_.load();
  }

  // --- BackupStore: read path with injection ---

  ByteVec getChunk(Fp cipherFp) override {
    const ReadScope scope(*this);
    maybeDelay();
    ByteVec bytes = inner_->getChunk(cipherFp);
    injectInto(cipherFp, bytes);
    return bytes;
  }

  std::vector<ByteVec> getChunks(std::span<const Fp> cipherFps) override {
    const ReadScope scope(*this);
    maybeDelay();
    std::vector<ByteVec> batch = inner_->getChunks(cipherFps);
    for (size_t i = 0; i < batch.size(); ++i)
      injectInto(cipherFps[i], batch[i]);
    return batch;
  }

  // --- BackupStore: everything else forwards (puts and the group sync may
  // fail) ---

  [[nodiscard]] bool hasChunk(Fp cipherFp) const override {
    return inner_->hasChunk(cipherFp);
  }
  bool putChunk(Fp cipherFp, ByteView bytes) override {
    if (failPuts_.load()) throw std::runtime_error("injected put failure");
    return inner_->putChunk(cipherFp, bytes);
  }
  bool putKnownChunk(Fp cipherFp, uint32_t size) override {
    if (failKnownPuts_.load())
      throw std::runtime_error("injected put failure");
    return inner_->putKnownChunk(cipherFp, size);
  }
  [[nodiscard]] std::vector<std::optional<ChunkPlacement>> chunkLocator(
      std::span<const Fp> cipherFps) const override {
    return inner_->chunkLocator(cipherFps);
  }
  [[nodiscard]] uint32_t chunkRefCount(Fp cipherFp) const override {
    return inner_->chunkRefCount(cipherFp);
  }
  void putBlob(const std::string& name, ByteView bytes) override {
    inner_->putBlob(name, bytes);
  }
  std::optional<ByteVec> getBlob(const std::string& name) override {
    return inner_->getBlob(name);
  }
  bool eraseBlob(const std::string& name) override {
    return inner_->eraseBlob(name);
  }
  [[nodiscard]] std::vector<std::string> listBlobs() override {
    return inner_->listBlobs();
  }
  void recordBackup(const std::string& name,
                    std::span<const Fp> chunkRefs) override {
    inner_->recordBackup(name, chunkRefs);
  }
  void recordBackupDeferred(const std::string& name,
                            std::span<const Fp> chunkRefs) override {
    inner_->recordBackupDeferred(name, chunkRefs);
  }
  void syncMetadataAsync(std::function<void(bool ok)> done) override {
    if (failSync_.load()) {
      done(false);
      return;
    }
    inner_->syncMetadataAsync(std::move(done));
  }
  bool releaseBackup(const std::string& name) override {
    return inner_->releaseBackup(name);
  }
  [[nodiscard]] std::vector<std::string> listBackups() override {
    return inner_->listBackups();
  }
  std::optional<std::vector<Fp>> backupRefs(const std::string& name) override {
    return inner_->backupRefs(name);
  }
  GcStats collectGarbage() override { return inner_->collectGarbage(); }
  StoreCheckReport verify() override { return inner_->verify(); }
  void flush() override { inner_->flush(); }
  [[nodiscard]] BackupStoreStats stats() const override {
    return inner_->stats();
  }
  [[nodiscard]] StoreReadStats readStats() const override {
    return inner_->readStats();
  }
  [[nodiscard]] obs::MetricsSnapshot metricsSnapshot() const override {
    return inner_->metricsSnapshot();
  }
  [[nodiscard]] size_t containerCount() const override {
    return inner_->containerCount();
  }

 private:
  /// One armable fingerprint target.
  class FpTarget {
   public:
    void arm(Fp fp) {
      fp_.store(fp);
      armed_.store(true);
    }
    void disarm() { armed_.store(false); }
    [[nodiscard]] bool matches(Fp fp) const {
      return armed_.load() && fp_.load() == fp;
    }

   private:
    std::atomic<Fp> fp_{0};
    std::atomic<bool> armed_{false};
  };

  /// RAII in-flight counter feeding the concurrency high-water mark.
  struct ReadScope {
    explicit ReadScope(const FailingStore& store) : store_(store) {
      const uint64_t now = ++store_.concurrent_;
      uint64_t seen = store_.maxConcurrent_.load();
      while (now > seen &&
             !store_.maxConcurrent_.compare_exchange_weak(seen, now)) {
      }
    }
    ~ReadScope() { --store_.concurrent_; }
    const FailingStore& store_;
  };

  void maybeDelay() const {
    const int64_t ms = delayMs_.load();
    if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }

  /// Applies the armed faults to one served chunk.
  void injectInto(Fp cipherFp, ByteVec& bytes) const {
    if (failFp_.matches(cipherFp))
      throw std::runtime_error("injected read failure");
    if (corruptFp_.matches(cipherFp) && !bytes.empty())
      bytes[bytes.size() / 2] ^= 1;
  }

  BackupStore* inner_;
  FpTarget failFp_;
  FpTarget corruptFp_;
  std::atomic<int64_t> delayMs_{0};
  std::atomic<bool> failSync_{false};
  std::atomic<bool> failPuts_{false};
  std::atomic<bool> failKnownPuts_{false};
  mutable std::atomic<uint64_t> concurrent_{0};
  mutable std::atomic<uint64_t> maxConcurrent_{0};
};

}  // namespace freqdedup
