// Store-level coverage of the group-commit WAL + checkpointed index:
// commit durability through the BackupStore API, checkpoint-driven GC, and
// the acceptance invariant that a reopen after GC's checkpoint replays only
// the records committed since it.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "storage/file_backup_store.h"
#include "temp_store.h"

namespace freqdedup {
namespace {

class StoreWalTest : public ::testing::Test {
 protected:
  const TempDir tmp_;
  const std::string dir_ = tmp_.path();
};

// Acceptance: after GC checkpoints the index, a reopen loads the checkpoint
// and replays exactly the records appended since — observable through the
// wal.replay.records counter the store's registry exposes.
TEST_F(StoreWalTest, ReopenAfterGcCheckpointReplaysOnlyTailRecords) {
  constexpr int kTailBlobs = 5;
  {
    FileBackupStore store(dir_);
    std::vector<Fp> refs;
    for (int i = 0; i < 20; ++i) {
      const ByteVec bytes(1024, static_cast<uint8_t>(i));
      const Fp fp = fpOfContent(bytes);
      store.putChunk(fp, bytes);
      refs.push_back(fp);
    }
    store.recordBackup("backup-0", refs);
    // GC's final phase checkpoints the index and rotates the WAL: from here
    // on, the replayable tail is empty.
    store.collectGarbage();
    const obs::MetricsSnapshot snap = store.metricsSnapshot();
    EXPECT_GE(snap.counter("ckpt.writes"), 1u);
    // Exactly kTailBlobs single-record commits ride the fresh tail.
    for (int i = 0; i < kTailBlobs; ++i)
      store.putBlob("tail-" + std::to_string(i), toBytes("tail-blob"));
    store.flush();
  }
  FileBackupStore reopened(dir_);
  const obs::MetricsSnapshot snap = reopened.metricsSnapshot();
  EXPECT_EQ(snap.counter("wal.replay.records"),
            static_cast<uint64_t>(kTailBlobs));
  EXPECT_EQ(snap.counter("ckpt.loads"), 1u);
  EXPECT_GT(snap.counter("ckpt.load_records"), 0u);
  // And the state is intact on both sides of the watermark.
  ASSERT_TRUE(reopened.backupRefs("backup-0").has_value());
  EXPECT_EQ(reopened.backupRefs("backup-0")->size(), 20u);
  for (int i = 0; i < kTailBlobs; ++i)
    EXPECT_EQ(reopened.getBlob("tail-" + std::to_string(i)),
              toBytes("tail-blob"));
}

// recordBackup's return now implies durability: the manifest must survive a
// reopen that never saw an explicit flush. Concurrent committers coalesce —
// their syncs ride shared group fdatasyncs rather than serializing.
TEST_F(StoreWalTest, ConcurrentRecordBackupsAreDurable) {
  constexpr int kCommitters = 8;
  std::vector<Fp> fps;
  {
    FileBackupStore store(dir_);
    for (int i = 0; i < kCommitters; ++i) {
      const ByteVec bytes(512, static_cast<uint8_t>(0x40 + i));
      const Fp fp = fpOfContent(bytes);
      store.putChunk(fp, bytes);
      fps.push_back(fp);
    }
    store.flush();
    std::vector<std::thread> threads;
    threads.reserve(kCommitters);
    for (int t = 0; t < kCommitters; ++t) {
      threads.emplace_back([&store, &fps, t] {
        const std::vector<Fp> refs{fps[static_cast<size_t>(t)]};
        store.recordBackup("backup-" + std::to_string(t), refs);
      });
    }
    for (auto& th : threads) th.join();
    const obs::MetricsSnapshot snap = store.metricsSnapshot();
    EXPECT_EQ(snap.counter("store.backups_recorded"),
              static_cast<uint64_t>(kCommitters));
    EXPECT_GT(snap.counter("wal.syncs"), 0u);
  }
  FileBackupStore reopened(dir_);
  EXPECT_EQ(reopened.listBackups().size(), static_cast<size_t>(kCommitters));
  for (int t = 0; t < kCommitters; ++t) {
    const auto refs = reopened.backupRefs("backup-" + std::to_string(t));
    ASSERT_TRUE(refs.has_value()) << t;
    EXPECT_EQ(*refs, std::vector<Fp>{fps[static_cast<size_t>(t)]});
  }
  EXPECT_EQ(reopened.chunkRefCount(fps[0]), 1u);
}

// GC's checkpoint replaces the old rewrite-and-rename compaction: dead
// index records are gone from the persistent files and a reopen starts
// from the compact checkpoint.
TEST_F(StoreWalTest, GcCheckpointCompactsIndexRecords) {
  {
    FileBackupStore store(dir_);
    const ByteVec bytes(2048, 0x77);
    const Fp fp = fpOfContent(bytes);
    store.putChunk(fp, bytes);
    std::vector<Fp> refs{fp};
    // Churn: re-record the same backup many times (each rewrites the
    // manifest and refcount records), then GC.
    for (int round = 0; round < 50; ++round)
      store.recordBackup("churn", refs);
    store.collectGarbage();
  }
  FileBackupStore reopened(dir_);
  const obs::MetricsSnapshot snap = reopened.metricsSnapshot();
  // All the churn was absorbed by the checkpoint: nothing left to replay.
  EXPECT_EQ(snap.counter("wal.replay.records"), 0u);
  ASSERT_TRUE(reopened.backupRefs("churn").has_value());
  EXPECT_EQ(reopened.verify().errors.size(), 0u);
}

}  // namespace
}  // namespace freqdedup
