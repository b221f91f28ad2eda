#include "storage/backup_store.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "storage/file_backup_store.h"
#include "temp_store.h"

namespace freqdedup {
namespace {

ByteVec chunkOfByte(uint8_t b, size_t n) { return ByteVec(n, b); }

class BackupStoreDirTest : public ::testing::Test {
 protected:
  size_t containerFilesOnDisk() const {
    size_t files = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir_ + "/containers"))
      files += entry.path().extension() == ".fdc";
    return files;
  }

  const TempDir tmp_;
  const std::string dir_ = tmp_.path();
};

TEST(BackupStore, PutGetChunk) {
  TempStore store;
  const ByteVec bytes = toBytes("ciphertext chunk");
  const Fp fp = fpOfContent(bytes);
  EXPECT_TRUE(store.putChunk(fp, bytes));
  EXPECT_TRUE(store.hasChunk(fp));
  EXPECT_EQ(store.getChunk(fp), bytes);
}

TEST(BackupStore, DuplicatePutIsDeduplicated) {
  TempStore store;
  const ByteVec bytes = toBytes("dup chunk");
  const Fp fp = fpOfContent(bytes);
  EXPECT_TRUE(store.putChunk(fp, bytes));
  EXPECT_FALSE(store.putChunk(fp, bytes));
  EXPECT_EQ(store.stats().uniqueChunks, 1u);
  EXPECT_EQ(store.stats().logicalPuts, 2u);
  EXPECT_EQ(store.stats().storedBytes, bytes.size());
  EXPECT_EQ(store.stats().logicalBytes, 2 * bytes.size());
}

TEST(BackupStore, MissingChunkThrows) {
  TempStore store;
  EXPECT_THROW(store.getChunk(0x1234), std::runtime_error);
}

TEST(BackupStore, ChunksRetrievableAfterContainerSeal) {
  TempStore store;  // 4 MB containers by default
  std::vector<std::pair<Fp, ByteVec>> chunks;
  for (int i = 0; i < 200; ++i) {
    ByteVec bytes(64 * 1024, static_cast<uint8_t>(i));  // 200 x 64 KB > 4 MB
    const Fp fp = fpOfContent(bytes);
    store.putChunk(fp, bytes);
    chunks.emplace_back(fp, std::move(bytes));
  }
  EXPECT_GT(store.containerCount(), 1u);
  for (const auto& [fp, bytes] : chunks) EXPECT_EQ(store.getChunk(fp), bytes);
}

TEST(BackupStore, Blobs) {
  TempStore store;
  store.putBlob("file:a", toBytes("recipe-a"));
  store.putBlob("key:a", toBytes("keys-a"));
  EXPECT_EQ(store.getBlob("file:a"), toBytes("recipe-a"));
  EXPECT_EQ(store.getBlob("missing"), std::nullopt);
  const auto names = store.listBlobs();
  EXPECT_EQ(names.size(), 2u);
  EXPECT_TRUE(store.eraseBlob("file:a"));
  EXPECT_FALSE(store.eraseBlob("file:a"));
  EXPECT_EQ(store.getBlob("file:a"), std::nullopt);
}

TEST(BackupStore, DedupRatioTracksDuplication) {
  TempStore store;
  const ByteVec bytes(1000, 0x33);
  const Fp fp = fpOfContent(bytes);
  for (int i = 0; i < 4; ++i) store.putChunk(fp, bytes);
  EXPECT_DOUBLE_EQ(store.stats().dedupRatio(), 4.0);
}

TEST(BackupStore, RecordBackupCountsReferences) {
  TempStore store;
  const ByteVec a = chunkOfByte(1, 100), b = chunkOfByte(2, 100);
  const Fp fpA = fpOfContent(a), fpB = fpOfContent(b);
  store.putChunk(fpA, a);
  store.putChunk(fpB, b);
  // fpA referenced twice within one backup, once by another.
  store.recordBackup("b1", std::vector<Fp>{fpA, fpB, fpA});
  store.recordBackup("b2", std::vector<Fp>{fpA});
  EXPECT_EQ(store.chunkRefCount(fpA), 3u);
  EXPECT_EQ(store.chunkRefCount(fpB), 1u);
  EXPECT_EQ(store.listBackups().size(), 2u);
  EXPECT_TRUE(store.verify().ok());
}

TEST(BackupStore, ReRecordingANameReplacesItsReferences) {
  TempStore store;
  const ByteVec a = chunkOfByte(1, 100), b = chunkOfByte(2, 100);
  const Fp fpA = fpOfContent(a), fpB = fpOfContent(b);
  store.putChunk(fpA, a);
  store.putChunk(fpB, b);
  store.recordBackup("b", std::vector<Fp>{fpA});
  store.recordBackup("b", std::vector<Fp>{fpB});
  EXPECT_EQ(store.chunkRefCount(fpA), 0u);
  EXPECT_EQ(store.chunkRefCount(fpB), 1u);
  EXPECT_EQ(store.listBackups().size(), 1u);
  EXPECT_TRUE(store.verify().ok());
}

TEST(BackupStore, RecordBackupRejectsUnknownChunk) {
  TempStore store;
  EXPECT_THROW(store.recordBackup("b", std::vector<Fp>{0xDEAD}),
               std::runtime_error);
}

TEST(BackupStore, ReleaseBackupDropsReferences) {
  TempStore store;
  const ByteVec a = chunkOfByte(1, 100);
  const Fp fpA = fpOfContent(a);
  store.putChunk(fpA, a);
  store.recordBackup("b1", std::vector<Fp>{fpA});
  store.recordBackup("b2", std::vector<Fp>{fpA});
  EXPECT_TRUE(store.releaseBackup("b1"));
  EXPECT_FALSE(store.releaseBackup("b1"));
  EXPECT_EQ(store.chunkRefCount(fpA), 1u);
  EXPECT_TRUE(store.verify().ok());
}

TEST(BackupStore, GcReclaimsOnlyUnreferencedChunks) {
  TempStore store({.containerBytes = 256});
  const ByteVec live = chunkOfByte(1, 100), dead = chunkOfByte(2, 100);
  const Fp fpLive = fpOfContent(live), fpDead = fpOfContent(dead);
  store.putChunk(fpLive, live);
  store.putChunk(fpDead, dead);
  store.recordBackup("keep", std::vector<Fp>{fpLive});
  store.recordBackup("drop", std::vector<Fp>{fpDead});
  store.releaseBackup("drop");

  const GcStats gc = store.collectGarbage();
  EXPECT_EQ(gc.chunksReclaimed, 1u);
  EXPECT_EQ(gc.bytesReclaimed, 100u);
  EXPECT_FALSE(store.hasChunk(fpDead));
  EXPECT_EQ(store.getChunk(fpLive), live);
  EXPECT_EQ(store.stats().uniqueChunks, 1u);
  EXPECT_EQ(store.stats().storedBytes, 100u);
  EXPECT_TRUE(store.verify().ok());
}

TEST(BackupStore, GcRelocatesLiveChunksOutOfMixedContainers) {
  // Small containers so live and dead chunks share one container.
  TempStore store({.containerBytes = 1024});
  const ByteVec live = chunkOfByte(1, 300), dead = chunkOfByte(2, 300);
  const Fp fpLive = fpOfContent(live), fpDead = fpOfContent(dead);
  store.putChunk(fpLive, live);
  store.putChunk(fpDead, dead);
  store.recordBackup("keep", std::vector<Fp>{fpLive});
  store.recordBackup("drop", std::vector<Fp>{fpDead});
  store.releaseBackup("drop");

  const GcStats gc = store.collectGarbage();
  EXPECT_EQ(gc.chunksRelocated, 1u);
  EXPECT_EQ(gc.containersCompacted, 1u);
  EXPECT_EQ(store.getChunk(fpLive), live);
  EXPECT_EQ(store.chunkRefCount(fpLive), 1u) << "relocation keeps refcounts";
  EXPECT_TRUE(store.verify().ok());
}

TEST(BackupStore, GcOnCleanStoreIsANoop) {
  TempStore store;
  const ByteVec a = chunkOfByte(1, 64);
  store.putChunk(fpOfContent(a), a);
  store.recordBackup("b", std::vector<Fp>{fpOfContent(a)});
  const GcStats gc = store.collectGarbage();
  EXPECT_EQ(gc.chunksReclaimed, 0u);
  EXPECT_EQ(gc.containersCompacted, 0u);
}

TEST(BackupStore, VerifyFlagsRefcountMismatch) {
  TempStore store;
  const ByteVec a = chunkOfByte(1, 64);
  const Fp fp = fpOfContent(a);
  store.putChunk(fp, a);
  store.recordBackup("b", std::vector<Fp>{fp});
  store.releaseBackup("b");
  store.releaseBackup("b");  // double release is a no-op
  EXPECT_TRUE(store.verify().ok());
}

TEST_F(BackupStoreDirTest, PersistsAcrossReopen) {
  std::vector<std::pair<Fp, ByteVec>> chunks;
  {
    FileBackupStore store(dir_, {.containerBytes = 256 * 1024});
    for (int i = 0; i < 50; ++i) {
      ByteVec bytes(16 * 1024, static_cast<uint8_t>(i));
      const Fp fp = fpOfContent(bytes);
      store.putChunk(fp, bytes);
      chunks.emplace_back(fp, std::move(bytes));
    }
    store.putBlob("file:backup1", toBytes("sealed recipe"));
    store.flush();
  }
  FileBackupStore reopened(dir_, {.containerBytes = 256 * 1024});
  EXPECT_EQ(reopened.stats().uniqueChunks, 50u);
  for (const auto& [fp, bytes] : chunks) {
    EXPECT_TRUE(reopened.hasChunk(fp));
    EXPECT_EQ(reopened.getChunk(fp), bytes);
  }
  EXPECT_EQ(reopened.getBlob("file:backup1"), toBytes("sealed recipe"));
}

TEST_F(BackupStoreDirTest, DedupAcrossReopen) {
  const ByteVec bytes(8 * 1024, 0x77);
  const Fp fp = fpOfContent(bytes);
  {
    FileBackupStore store(dir_);
    EXPECT_TRUE(store.putChunk(fp, bytes));
    store.flush();
  }
  FileBackupStore reopened(dir_);
  EXPECT_FALSE(reopened.putChunk(fp, bytes)) << "chunk must survive reopen";
}

TEST_F(BackupStoreDirTest, ContainerFilesOnDisk) {
  {
    FileBackupStore store(dir_, {.containerBytes = 64 * 1024});
    for (int i = 0; i < 10; ++i) {
      ByteVec bytes(16 * 1024, static_cast<uint8_t>(i));
      store.putChunk(fpOfContent(bytes), bytes);
    }
    store.flush();
  }
  EXPECT_GE(containerFilesOnDisk(), 2u);
}

TEST_F(BackupStoreDirTest, ReferencesAndManifestsSurviveReopen) {
  const ByteVec a = chunkOfByte(1, 1000), b = chunkOfByte(2, 1000);
  const Fp fpA = fpOfContent(a), fpB = fpOfContent(b);
  {
    FileBackupStore store(dir_);
    store.putChunk(fpA, a);
    store.putChunk(fpB, b);
    store.recordBackup("b1", std::vector<Fp>{fpA, fpB});
    store.recordBackup("b2", std::vector<Fp>{fpA});
  }
  FileBackupStore reopened(dir_);
  EXPECT_EQ(reopened.chunkRefCount(fpA), 2u);
  EXPECT_EQ(reopened.chunkRefCount(fpB), 1u);
  EXPECT_EQ(reopened.listBackups().size(), 2u);
  EXPECT_TRUE(reopened.verify().ok());
}

TEST_F(BackupStoreDirTest, GcReclaimsContainerFilesAndSurvivesReopen) {
  const ByteVec live = chunkOfByte(1, 32 * 1024);
  const Fp fpLive = fpOfContent(live);
  {
    FileBackupStore store(dir_, {.containerBytes = 64 * 1024});
    store.putChunk(fpLive, live);
    std::vector<Fp> doomed;
    for (int i = 2; i < 10; ++i) {
      const ByteVec bytes = chunkOfByte(static_cast<uint8_t>(i), 32 * 1024);
      store.putChunk(fpOfContent(bytes), bytes);
      doomed.push_back(fpOfContent(bytes));
    }
    store.recordBackup("keep", std::vector<Fp>{fpLive});
    store.recordBackup("drop", doomed);
    store.releaseBackup("drop");
    const size_t before = containerFilesOnDisk();
    const GcStats gc = store.collectGarbage();
    EXPECT_EQ(gc.chunksReclaimed, doomed.size());
    EXPECT_LT(containerFilesOnDisk(), before);
    EXPECT_TRUE(store.verify().ok());
  }
  FileBackupStore reopened(dir_, {.containerBytes = 64 * 1024});
  EXPECT_EQ(reopened.stats().uniqueChunks, 1u);
  EXPECT_EQ(reopened.getChunk(fpLive), live);
  EXPECT_TRUE(reopened.verify().ok());
}

TEST_F(BackupStoreDirTest, RecoveryRemovesOrphanContainers) {
  {
    FileBackupStore store(dir_);
    const ByteVec bytes = chunkOfByte(1, 100);
    store.putChunk(fpOfContent(bytes), bytes);
    store.recordBackup("b", std::vector<Fp>{fpOfContent(bytes)});
  }
  // Simulate a crash between a container write and its index puts: a
  // container file that no index entry references.
  writeFile(dir_ + "/containers/00000099.fdc", toBytes("not even a container"));
  writeFile(dir_ + "/containers/00000100.fdc.tmp", toBytes("torn write"));

  FileBackupStore reopened(dir_);
  EXPECT_EQ(reopened.recoveryStats().orphanContainersRemoved, 1u);
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/containers/00000099.fdc"));
  EXPECT_FALSE(
      std::filesystem::exists(dir_ + "/containers/00000100.fdc.tmp"));
  EXPECT_TRUE(reopened.verify().ok());
}

TEST_F(BackupStoreDirTest, RecoveryQuarantinesCorruptContainers) {
  const ByteVec bytes = chunkOfByte(1, 100);
  const Fp fp = fpOfContent(bytes);
  std::string containerFile;
  {
    FileBackupStore store(dir_);
    store.putChunk(fp, bytes);
    store.recordBackup("b", std::vector<Fp>{fp});
  }
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_ + "/containers"))
    if (entry.path().extension() == ".fdc")
      containerFile = entry.path().string();
  ASSERT_FALSE(containerFile.empty());
  // Flip a payload bit: the container trailer CRC must catch it.
  ByteVec raw = readFile(containerFile);
  raw[raw.size() / 2] ^= 0x01;
  writeFile(containerFile, raw);

  FileBackupStore reopened(dir_);
  EXPECT_EQ(reopened.recoveryStats().corruptContainers, 1u);
  EXPECT_EQ(reopened.recoveryStats().entriesDropped, 1u);
  EXPECT_FALSE(reopened.hasChunk(fp)) << "entry for lost data must be gone";
  EXPECT_TRUE(std::filesystem::exists(containerFile + ".corrupt"));
  // The manifest now references a missing chunk: verify must report it.
  const StoreCheckReport report = reopened.verify();
  EXPECT_FALSE(report.ok());
}

TEST_F(BackupStoreDirTest, UnflushedOpenContainerIsLostButStoreStaysClean) {
  const ByteVec sealed = chunkOfByte(1, 100);
  const Fp fpSealed = fpOfContent(sealed);
  {
    FileBackupStore store(dir_);
    store.putChunk(fpSealed, sealed);
    store.flush();
    // Staged but never flushed: equivalent to a crash before seal. The
    // destructor flushes, so bypass it the hard way by writing directly.
  }
  FileBackupStore reopened(dir_);
  EXPECT_EQ(reopened.getChunk(fpSealed), sealed);
  EXPECT_TRUE(reopened.verify().ok());
}

}  // namespace
}  // namespace freqdedup
