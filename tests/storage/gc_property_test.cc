// Property test for the GC safety invariant: after ANY sequence of
// backup/delete/gc operations, garbage collection never reclaims a chunk
// still referenced by a live manifest, reference counts always equal the
// occurrence sums of a naive model, and reclaimed space matches the model's
// dead set. Randomized op sequences with fixed RNG seeds, checked against a
// naive reference counter, with periodic close/reopen of the store.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>

#include "common/rng.h"
#include "storage/codec.h"
#include "storage/file_backup_store.h"
#include "temp_store.h"

namespace freqdedup {
namespace {

constexpr uint64_t kSmallContainerBytes = 8 * 1024;

struct NaiveModel {
  std::map<Fp, ByteVec> chunks;            // everything ever put (until GC'd)
  std::map<Fp, uint64_t> refs;             // naive reference counter
  std::map<std::string, std::vector<Fp>> manifests;

  void recordBackup(const std::string& name, const std::vector<Fp>& fps) {
    releaseBackup(name);
    for (const Fp fp : fps) ++refs[fp];
    manifests[name] = fps;
  }

  bool releaseBackup(const std::string& name) {
    const auto it = manifests.find(name);
    if (it == manifests.end()) return false;
    for (const Fp fp : it->second) --refs[fp];
    manifests.erase(it);
    return true;
  }

  void gc() {
    std::erase_if(chunks, [this](const auto& kv) {
      const auto it = refs.find(kv.first);
      return it == refs.end() || it->second == 0;
    });
  }

  [[nodiscard]] uint64_t liveBytes() const {
    uint64_t total = 0;
    for (const auto& [fp, bytes] : chunks) total += bytes.size();
    return total;
  }
};

/// One randomized run against `store`; `reopen` closes and reopens the
/// store, returning the fresh instance. `compressible` chunks are runs of
/// repeated bytes, so a compressing codec actually shrinks their frames;
/// otherwise chunk bytes are uniformly random.
void runOps(uint64_t seed, BackupStore* store,
            const std::function<BackupStore*()>& reopen,
            bool compressible = false) {
  Rng rng(seed);
  NaiveModel model;
  std::vector<std::pair<Fp, ByteVec>> pool;  // shared chunk pool
  uint64_t nextBackupId = 0;

  const auto randomChunk = [&rng, compressible]() {
    ByteVec bytes(512 + rng.pickIndex(1536));
    if (!compressible) {
      for (auto& b : bytes) b = static_cast<uint8_t>(rng.next());
      return bytes;
    }
    for (size_t i = 0; i < bytes.size();) {
      const size_t run = std::min(bytes.size() - i, 8 + rng.pickIndex(56));
      std::fill_n(bytes.begin() + static_cast<long>(i), run,
                  static_cast<uint8_t>(rng.next()));
      i += run;
    }
    EXPECT_TRUE(compressBytes(ContainerCodec::kDeflate, bytes).has_value());
    return bytes;
  };

  const auto checkInvariants = [&] {
    // Refcounts equal the naive occurrence sums; every live chunk is intact.
    for (const auto& [fp, n] : model.refs) {
      EXPECT_EQ(store->chunkRefCount(fp), n) << "fp " << fpToHex(fp);
      if (n > 0) {
        ASSERT_TRUE(store->hasChunk(fp));
        EXPECT_EQ(store->getChunk(fp), model.chunks.at(fp));
      }
    }
    EXPECT_EQ(store->listBackups().size(), model.manifests.size());
  };

  for (int step = 0; step < 60; ++step) {
    const uint64_t dice = rng.pickIndex(10);
    if (dice < 5 || model.manifests.empty()) {
      // Backup: a mix of fresh chunks and re-used pool chunks, with an
      // occasional intra-backup duplicate reference.
      const std::string name = "b" + std::to_string(nextBackupId++);
      std::vector<Fp> fps;
      const size_t fresh = 1 + rng.pickIndex(4);
      for (size_t i = 0; i < fresh; ++i) {
        const ByteVec bytes = randomChunk();
        const Fp fp = fpOfContent(bytes);
        store->putChunk(fp, bytes);
        model.chunks[fp] = bytes;
        pool.emplace_back(fp, bytes);
        fps.push_back(fp);
      }
      const size_t reused = rng.pickIndex(4);
      for (size_t i = 0; i < reused && !pool.empty(); ++i) {
        const auto& [fp, bytes] = pool[rng.pickIndex(pool.size())];
        if (!store->hasChunk(fp)) {
          store->putChunk(fp, bytes);
          model.chunks[fp] = bytes;
        }
        fps.push_back(fp);
      }
      if (!fps.empty() && rng.pickIndex(3) == 0) fps.push_back(fps[0]);
      store->recordBackup(name, fps);
      model.recordBackup(name, fps);
    } else if (dice < 8) {
      // Delete a random live backup.
      auto it = model.manifests.begin();
      std::advance(it, static_cast<long>(
                           rng.pickIndex(model.manifests.size())));
      const std::string name = it->first;
      EXPECT_TRUE(store->releaseBackup(name));
      EXPECT_TRUE(model.releaseBackup(name));
    } else {
      // Garbage-collect and compare against the model's dead set.
      const GcStats gc = store->collectGarbage();
      const uint64_t liveBefore = model.liveBytes();
      model.gc();
      EXPECT_EQ(gc.bytesReclaimed, liveBefore - model.liveBytes());
      EXPECT_EQ(store->stats().uniqueChunks, model.chunks.size());
      EXPECT_EQ(store->stats().storedBytes, model.liveBytes());
      for (const auto& [fp, n] : model.refs) {
        if (n == 0)
          EXPECT_FALSE(store->hasChunk(fp))
              << "GC must reclaim unreferenced " << fpToHex(fp);
      }
      const StoreCheckReport report = store->verify();
      EXPECT_TRUE(report.ok()) << (report.errors.empty()
                                       ? ""
                                       : report.errors.front());
    }
    checkInvariants();

    if (step % 12 == 11) {
      store = reopen();
      checkInvariants();
    }
  }

  // Final sweep: GC everything deletable and re-verify.
  for (const auto& [name, fps] : model.manifests) store->releaseBackup(name);
  while (!model.manifests.empty()) model.releaseBackup(model.manifests.begin()->first);
  store->collectGarbage();
  model.gc();
  EXPECT_EQ(store->stats().uniqueChunks, model.chunks.size());
  EXPECT_TRUE(store->verify().ok());
}

class GcProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GcProperty, FileBackendMatchesNaiveModelAcrossReopens) {
  const TempDir tmp;
  const std::string& dir = tmp.path();
  auto store = std::make_unique<FileBackupStore>(
      dir, StoreOptions{.containerBytes = kSmallContainerBytes});
  runOps(GetParam(), store.get(), [&]() -> BackupStore* {
    store.reset();  // close (destructor flushes)
    store = std::make_unique<FileBackupStore>(
        dir, StoreOptions{.containerBytes = kSmallContainerBytes});
    EXPECT_EQ(store->recoveryStats().entriesDropped, 0u);
    return store.get();
  });
}

// The same model check over deflate-compressed containers: GC compaction
// reads live chunks out of compressed frames and seals them into new
// compressed containers, and every reopen re-validates those frames.
TEST_P(GcProperty, CompressedFileBackendMatchesNaiveModelAcrossReopens) {
  const TempDir tmp;
  const std::string& dir = tmp.path();
  const StoreOptions options{.containerBytes = kSmallContainerBytes,
                             .codec = ContainerCodec::kDeflate};
  auto store = std::make_unique<FileBackupStore>(dir, options);
  runOps(
      GetParam(), store.get(),
      [&]() -> BackupStore* {
        store.reset();  // close (destructor flushes)
        store = std::make_unique<FileBackupStore>(dir, options);
        EXPECT_EQ(store->recoveryStats().entriesDropped, 0u);
        EXPECT_EQ(store->recoveryStats().corruptContainers, 0u);
        return store.get();
      },
      /*compressible=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 42u));

// The read-path safety companion to the model check above: while a writer
// runs a random backup/delete/gc churn, an always-restoring reader thread
// continuously issues batched reads for chunks that were live when it
// sampled them. Every read must either return the exact original bytes or
// fail cleanly (the chunk got reclaimed between sample and read) — stale or
// relocated container bytes must never be served, even from cache hits.
TEST(GcPropertyConcurrent, AlwaysRestoringReaderNeverSeesWrongBytes) {
  // Tiny containers + tiny read cache: most batched reads fetch from
  // disk, and every GC pass compacts containers the reader may be using.
  TempStore store({.containerBytes = kSmallContainerBytes,
                   .blockCacheBytes = 2 * kSmallContainerBytes});
  Rng rng(1234);
  NaiveModel model;
  uint64_t nextBackupId = 0;

  // Chunks that were live (referenced by a manifest) at sample time.
  std::mutex liveMu;
  std::vector<std::pair<Fp, ByteVec>> live;
  const auto resyncLive = [&] {
    std::vector<std::pair<Fp, ByteVec>> fresh;
    for (const auto& [fp, n] : model.refs)
      if (n > 0) fresh.emplace_back(fp, model.chunks.at(fp));
    std::lock_guard lock(liveMu);
    live = std::move(fresh);
  };

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> servedOk{0};
  std::atomic<uint64_t> cleanFailures{0};
  std::atomic<uint64_t> wrongBytes{0};
  std::thread reader([&] {
    while (!stop.load()) {
      std::vector<std::pair<Fp, ByteVec>> sample;
      {
        std::lock_guard lock(liveMu);
        sample = live;
      }
      if (sample.empty()) {
        std::this_thread::yield();
        continue;
      }
      std::vector<Fp> fps;
      fps.reserve(sample.size());
      for (const auto& [fp, bytes] : sample) fps.push_back(fp);
      try {
        const std::vector<ByteVec> got = store.getChunks(fps);
        for (size_t i = 0; i < sample.size(); ++i) {
          if (got[i] == sample[i].second) {
            ++servedOk;
          } else {
            ++wrongBytes;  // silent corruption: the one forbidden outcome
          }
        }
      } catch (const std::exception&) {
        ++cleanFailures;  // raced a delete+GC of a sampled chunk: allowed
      }
    }
  });

  const auto randomChunk = [&rng]() {
    ByteVec bytes(512 + rng.pickIndex(1536));
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.next());
    return bytes;
  };
  for (int step = 0; step < 120; ++step) {
    const uint64_t dice = rng.pickIndex(10);
    if (dice < 5 || model.manifests.empty()) {
      const std::string name = "b" + std::to_string(nextBackupId++);
      std::vector<Fp> fps;
      for (size_t i = 0, fresh = 1 + rng.pickIndex(4); i < fresh; ++i) {
        const ByteVec bytes = randomChunk();
        const Fp fp = fpOfContent(bytes);
        store.putChunk(fp, bytes);
        model.chunks[fp] = bytes;
        fps.push_back(fp);
      }
      store.recordBackup(name, fps);
      model.recordBackup(name, fps);
    } else if (dice < 8) {
      auto it = model.manifests.begin();
      std::advance(it, static_cast<long>(
                           rng.pickIndex(model.manifests.size())));
      const std::string name = it->first;
      EXPECT_TRUE(store.releaseBackup(name));
      EXPECT_TRUE(model.releaseBackup(name));
    } else {
      store.collectGarbage();
      model.gc();
    }
    resyncLive();
  }
  stop.store(true);
  reader.join();

  EXPECT_EQ(wrongBytes.load(), 0u)
      << "the reader must never receive stale/relocated bytes";
  EXPECT_GT(servedOk.load(), 0u) << "the reader must have made progress";
  // Informational: clean failures are permitted but should be the rare
  // sample-vs-GC race, not the common case.
  (void)cleanFailures;
  EXPECT_TRUE(store.verify().ok());
}

}  // namespace
}  // namespace freqdedup
