// Restore-path concurrency:
//  - the lock-scope regression: two concurrent restore sessions must make
//    overlapping I/O progress (the pre-PR5 engine held the client's store
//    mutex across every getChunk's container read, serializing them);
//  - cache-correctness under churn: concurrent restore sessions interleaved
//    with deleteBackup + collectGarbage (which relocates live chunks and
//    deletes their old containers) must always produce the exact original
//    bytes — stale or relocated container bytes must never be served.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <thread>

#include "chunking/cdc_chunker.h"
#include "client/dedup_client.h"
#include "common/rng.h"
#include "../storage/failing_store.h"
#include "storage/file_backup_store.h"
#include "temp_store.h"

namespace freqdedup {
namespace {

ByteVec randomContent(uint64_t seed, size_t n) {
  Rng rng(seed);
  ByteVec data(n);
  for (auto& b : data) b = static_cast<uint8_t>(rng.next());
  return data;
}

CdcParams smallCdc() {
  CdcParams p;
  p.minSize = 256;
  p.avgSize = 1024;
  p.maxSize = 4096;
  return p;
}

RestoreOptions concurrentRestoreOptions() {
  RestoreOptions o;
  o.parallelism = 2;
  o.readAheadBatches = 2;
  o.batchBytes = 8 * 1024;
  return o;
}

TEST(RestoreConcurrency, TwoConcurrentRestoresMakeOverlappingIoProgress) {
  TempStore inner({.containerBytes = 16 * 1024});
  FailingStore store(inner);  // injection disarmed; used as an I/O probe
  KeyManager km(toBytes("overlap-secret"));
  CdcChunker chunker(smallCdc());
  DedupClient client(store, km, chunker, {}, concurrentRestoreOptions());

  const ByteVec content = randomContent(81, 128 * 1024);
  BackupSession backup = client.beginBackup("obj");
  backup.append(content);
  const BackupOutcome outcome = backup.finish();

  // Every store read now takes ~5 ms: if one restore held the client's
  // store mutex across its reads (the pre-PR5 bug), the two sessions'
  // reads could never be in flight simultaneously, regardless of timing.
  store.delayReads(std::chrono::milliseconds(5));
  std::barrier sync(2);
  std::vector<std::thread> threads;
  std::atomic<uint64_t> mismatches{0};
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      RestoreSession session =
          client.beginRestore(outcome.fileRecipe, outcome.keyRecipe);
      sync.arrive_and_wait();
      if (session.readAll() != content) ++mismatches;
    });
  }
  for (auto& thread : threads) thread.join();
  store.resetInjection();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GE(store.maxConcurrentReads(), 2u)
      << "concurrent restores must overlap their store reads";
}

TEST(RestoreConcurrency, RestoresRacingDeleteAndGcNeverServeWrongBytes) {
  // Small containers + tiny read cache: restores constantly reload
  // containers while GC compacts them underneath.
  TempStore store({.containerBytes = 16 * 1024,
                   .blockCacheBytes = 2 * 16 * 1024});
  KeyManager km(toBytes("gc-race-secret"));
  CdcChunker chunker(smallCdc());
  DedupClient client(store, km, chunker, {}, concurrentRestoreOptions());
  const AesKey userKey = userKeyFromPassphrase("gc-race");
  Rng rng(5);

  // "churn" goes first, so the chunks "keep" shares with it live in
  // churn's containers: deleting churn + GC then relocates live,
  // keep-referenced chunks and deletes the containers they came from.
  const ByteVec churnContent = randomContent(90, 96 * 1024);
  ByteVec keepContent = churnContent;
  for (size_t off = 4'000; off + 512 < keepContent.size(); off += 24'000)
    for (size_t i = off; i < off + 512; ++i) keepContent[i] ^= 0x3C;

  const auto backupObject = [&](const std::string& name,
                                const ByteVec& content) {
    BackupSession session = client.beginBackup(name);
    session.append(content);
    client.commitBackup(name, session.finish(), userKey, rng);
  };
  backupObject("churn", churnContent);
  backupObject("keep", keepContent);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> restores{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        // "keep" is never deleted, so every pass must succeed AND be
        // byte-exact, even while its chunks are being relocated.
        try {
          RestoreSession session = client.beginRestore("keep", userKey);
          if (session.readAll() != keepContent) {
            ++failures;
            return;
          }
          ++restores;
        } catch (const std::exception&) {
          ++failures;
          return;
        }
      }
    });
  }

  // Churn: repeatedly delete + GC (relocating keep's shared chunks into
  // fresh containers), then re-create churn so the next cycle has dead
  // chunks again.
  for (int cycle = 0; cycle < 4; ++cycle) {
    ASSERT_TRUE(client.deleteBackup("churn"));
    const GcStats gc = store.collectGarbage();
    if (cycle == 0)
      EXPECT_GT(gc.chunksRelocated, 0u)
          << "shared chunks must be copied forward for the race to bite";
    backupObject("churn", churnContent);
  }
  stop.store(true);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(failures.load(), 0u)
      << "a restore of a live backup must never fail or see wrong bytes";
  EXPECT_GT(restores.load(), 0u);
  EXPECT_TRUE(store.verify().ok());
}

}  // namespace
}  // namespace freqdedup
