// Hot/cold tiering: GC-driven demotion (hotBytes target, keepHotRecent
// protection, least-recently-read order), transparent promotion on restore
// reads (verbatim frame bytes, promotions ≤ cold reads), tier discovery on
// reopen without tiering options, GC of demoted containers, cold-orphan
// detection in verify(), cross-tier recovery, and the ObjectDir contract.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "obs/metrics.h"
#include "storage/backup_store.h"
#include "storage/container.h"
#include "storage/container_tier.h"
#include "storage/file_backup_store.h"
#include "temp_store.h"

namespace freqdedup {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kContainerBytes = 64 * 1024;
constexpr size_t kChunkBytes = 16 * 1024;

ByteVec chunkOfByte(uint8_t b) { return ByteVec(kChunkBytes, b); }

class TierTest : public ::testing::Test {
 protected:
  static StoreOptions tiered(uint64_t hotBytes = 0,
                             uint32_t keepHotRecent = 1) {
    StoreOptions options;
    options.containerBytes = kContainerBytes;
    options.coldTier.demoteOnGc = true;
    options.coldTier.hotBytes = hotBytes;
    options.coldTier.keepHotRecent = keepHotRecent;
    return options;
  }

  size_t filesWithExtension(const std::string& sub,
                            const std::string& ext) const {
    const std::string path = dir_ + "/" + sub;
    if (!fs::exists(path)) return 0;
    size_t files = 0;
    for (const auto& entry : fs::directory_iterator(path))
      files += entry.path().extension() == ext;
    return files;
  }
  size_t hotContainers() const {
    return filesWithExtension("containers", ".fdc");
  }
  size_t coldContainers() const { return filesWithExtension("cold", ".fdc"); }

  /// Writes `count` distinct chunks, records them all live under one
  /// backup, and flushes (sealing the open container).
  std::vector<std::pair<Fp, ByteVec>> fillStore(FileBackupStore& store,
                                                int count) {
    std::vector<std::pair<Fp, ByteVec>> chunks;
    std::vector<Fp> refs;
    for (int i = 0; i < count; ++i) {
      ByteVec bytes = chunkOfByte(static_cast<uint8_t>(i + 1));
      const Fp fp = fpOfContent(bytes);
      store.putChunk(fp, bytes);
      refs.push_back(fp);
      chunks.emplace_back(fp, std::move(bytes));
    }
    store.flush();
    store.recordBackup("live", refs);
    return chunks;
  }

  const TempDir tmp_;
  const std::string dir_ = tmp_.path();
};

TEST_F(TierTest, GcDemotesEverythingButTheKeepHotTail) {
  FileBackupStore store(dir_, tiered(/*hotBytes=*/0, /*keepHotRecent=*/1));
  const auto chunks = fillStore(store, 24);  // ~6 sealed containers
  const size_t before = hotContainers();
  ASSERT_GE(before, 2u);

  const GcStats gc = store.collectGarbage();
  EXPECT_EQ(gc.containersDemoted, before - 1);
  EXPECT_EQ(hotContainers(), 1u) << "keepHotRecent=1 keeps newest hot";
  EXPECT_EQ(coldContainers(), before - 1);

  // Every chunk — hot or cold — still reads back bit-identical.
  for (const auto& [fp, bytes] : chunks) EXPECT_EQ(store.getChunk(fp), bytes);
  EXPECT_TRUE(store.verify().ok());
}

TEST_F(TierTest, HotBytesTargetBoundsDemotion) {
  // A target large enough for the whole store: GC must demote nothing.
  FileBackupStore store(dir_,
                        tiered(/*hotBytes=*/1ull << 40, /*keepHotRecent=*/1));
  fillStore(store, 24);
  const size_t before = hotContainers();
  const GcStats gc = store.collectGarbage();
  EXPECT_EQ(gc.containersDemoted, 0u);
  EXPECT_EQ(hotContainers(), before);
  EXPECT_EQ(coldContainers(), 0u);
}

TEST_F(TierTest, KeepHotRecentProtectsTheNewestContainers) {
  FileBackupStore store(dir_, tiered(/*hotBytes=*/0, /*keepHotRecent=*/1000));
  fillStore(store, 24);
  const GcStats gc = store.collectGarbage();
  EXPECT_EQ(gc.containersDemoted, 0u);
  EXPECT_EQ(coldContainers(), 0u);
}

TEST_F(TierTest, DemotionWithoutOptInNeverHappens) {
  StoreOptions options;
  options.containerBytes = kContainerBytes;
  FileBackupStore store(dir_, options);
  fillStore(store, 24);
  const GcStats gc = store.collectGarbage();
  EXPECT_EQ(gc.containersDemoted, 0u);
  EXPECT_EQ(coldContainers(), 0u);
}

TEST_F(TierTest, ColdReadsPromoteTransparentlyAndVerbatim) {
  std::vector<std::pair<Fp, ByteVec>> chunks;
  {
    FileBackupStore store(dir_, tiered());
    chunks = fillStore(store, 24);
    ASSERT_GT(store.collectGarbage().containersDemoted, 0u);
  }
  // Snapshot the cold frames: promotion must move these exact bytes.
  std::map<std::string, ByteVec> coldFrames;
  for (const auto& entry : fs::directory_iterator(dir_ + "/cold"))
    if (entry.path().extension() == ".fdc")
      coldFrames[entry.path().filename().string()] =
          readFile(entry.path().string());
  ASSERT_FALSE(coldFrames.empty());

  // A fresh instance (cold block cache) so reads genuinely hit the tier.
  FileBackupStore reopened(dir_, tiered());
  for (const auto& [fp, bytes] : chunks)
    EXPECT_EQ(reopened.getChunk(fp), bytes);

  const StoreReadStats rs = reopened.readStats();
  EXPECT_GT(rs.coldReads, 0u);
  EXPECT_GT(rs.promotions, 0u);
  EXPECT_LE(rs.promotions, rs.coldReads);

  // Every promoted frame is back in the hot tier, bit-identical, and its
  // cold copy is gone (exactly one durable copy at all times). The
  // directories show the promotion in every build.
  EXPECT_EQ(coldContainers(), 0u);
  for (const auto& [name, frame] : coldFrames) {
    const std::string hotPath = dir_ + "/containers/" + name;
    ASSERT_TRUE(fs::exists(hotPath)) << name;
    EXPECT_EQ(readFile(hotPath), frame) << "promotion must preserve bytes";
  }

  // Re-reading is now purely hot: nothing goes back to the cold tier, and
  // the counters do not move.
  for (const auto& [fp, bytes] : chunks)
    EXPECT_EQ(reopened.getChunk(fp), bytes);
  EXPECT_EQ(coldContainers(), 0u);
  EXPECT_EQ(reopened.readStats().coldReads, rs.coldReads);
  EXPECT_EQ(reopened.readStats().promotions, rs.promotions);
  EXPECT_TRUE(reopened.verify().ok());
}

TEST_F(TierTest, ReopenWithoutTierOptionsStillFindsColdContainers) {
  std::vector<std::pair<Fp, ByteVec>> chunks;
  {
    FileBackupStore store(dir_, tiered());
    chunks = fillStore(store, 24);
    ASSERT_GT(store.collectGarbage().containersDemoted, 0u);
  }
  // Default options: no tiering configured at all. The tier assignment is
  // discovered by scanning, so recovery is clean and every chunk readable.
  FileBackupStore reopened(dir_, StoreOptions{});
  EXPECT_EQ(reopened.recoveryStats().corruptContainers, 0u);
  EXPECT_EQ(reopened.recoveryStats().entriesDropped, 0u);
  EXPECT_EQ(reopened.recoveryStats().orphanContainersRemoved, 0u);
  for (const auto& [fp, bytes] : chunks)
    EXPECT_EQ(reopened.getChunk(fp), bytes);
  EXPECT_TRUE(reopened.verify().ok());
}

TEST_F(TierTest, GcReclaimsDemotedContainersFromTheColdTier) {
  FileBackupStore store(dir_, tiered());
  std::vector<Fp> doomed;
  for (int i = 0; i < 24; ++i) {
    const ByteVec bytes = chunkOfByte(static_cast<uint8_t>(i + 1));
    store.putChunk(fpOfContent(bytes), bytes);
    doomed.push_back(fpOfContent(bytes));
  }
  store.flush();
  store.recordBackup("drop", doomed);
  ASSERT_GT(store.collectGarbage().containersDemoted, 0u);
  ASSERT_GT(coldContainers(), 0u);

  // Now the backup is released: the next GC must reclaim dead containers
  // from BOTH tiers — a demoted container is not immortal.
  store.releaseBackup("drop");
  const GcStats gc = store.collectGarbage();
  EXPECT_EQ(gc.chunksReclaimed, doomed.size());
  EXPECT_EQ(coldContainers(), 0u);
  EXPECT_EQ(hotContainers(), 0u);
  EXPECT_TRUE(store.verify().ok());
}

TEST_F(TierTest, VerifyFlagsOrphanColdObjects) {
  FileBackupStore store(dir_, tiered());
  fillStore(store, 8);
  ASSERT_TRUE(store.verify().ok());
  writeFile(dir_ + "/cold/00000099.fdc", toBytes("stray cold object"));
  EXPECT_FALSE(store.verify().ok()) << "cold orphan must be reported";
}

TEST_F(TierTest, TierGaugesTrackPlacement) {
  FileBackupStore store(dir_, tiered());
  fillStore(store, 24);
  store.collectGarbage();
  const auto snapshot = store.metricsSnapshot();
  const auto gauge = [&](const std::string& name) {
    const auto it = snapshot.gauges.find(name);
    return it == snapshot.gauges.end() ? int64_t{0} : it->second;
  };
  EXPECT_EQ(gauge("tier.hot_containers"),
            static_cast<int64_t>(hotContainers()));
  EXPECT_EQ(gauge("tier.cold_containers"),
            static_cast<int64_t>(coldContainers()));
  EXPECT_GT(gauge("tier.cold_bytes"), 0);
}

// Cross-tier recovery. Each test demotes a store, closes it, edits the tier
// directories the way a crash (or bit rot) would, and reopens.
class TierRecoveryTest : public TierTest {
 protected:
  /// Fills a tiered store, demotes all but the newest container and closes
  /// it; returns the chunks and the file name of the lowest demoted id.
  std::string demotedStore(std::vector<std::pair<Fp, ByteVec>>& chunks) {
    FileBackupStore store(dir_, tiered());
    chunks = fillStore(store, 24);
    EXPECT_GT(store.collectGarbage().containersDemoted, 0u);
    std::string first;
    for (const auto& entry : fs::directory_iterator(dir_ + "/cold")) {
      const std::string name = entry.path().filename().string();
      if (entry.path().extension() == ".fdc" && (first.empty() || name < first))
        first = name;
    }
    return first;
  }

  static void flipMiddleByte(const std::string& path) {
    ByteVec raw = readFile(path);
    raw[raw.size() / 2] ^= 0x01;
    writeFile(path, raw);
  }
};

TEST_F(TierRecoveryTest, CopyInBothTiersKeepsHotAndRemovesCold) {
  std::vector<std::pair<Fp, ByteVec>> chunks;
  const std::string name = demotedStore(chunks);
  ASSERT_FALSE(name.empty());
  // A crash between the halves of a demotion or a promotion: both tiers
  // hold the same complete frame.
  const ByteVec frame = readFile(dir_ + "/cold/" + name);
  writeFile(dir_ + "/containers/" + name, frame);
  const size_t coldBefore = coldContainers();

  FileBackupStore reopened(dir_, tiered());
  EXPECT_EQ(reopened.recoveryStats().corruptContainers, 0u);
  EXPECT_EQ(reopened.recoveryStats().entriesDropped, 0u);
  EXPECT_EQ(reopened.recoveryStats().orphanContainersRemoved, 0u);
  EXPECT_EQ(readFile(dir_ + "/containers/" + name), frame);
  EXPECT_FALSE(fs::exists(dir_ + "/cold/" + name));
  EXPECT_EQ(coldContainers(), coldBefore - 1);
  for (const auto& [fp, bytes] : chunks)
    EXPECT_EQ(reopened.getChunk(fp), bytes);
  EXPECT_TRUE(reopened.verify().ok());
}

TEST_F(TierRecoveryTest, CorruptHotCopyIsQuarantinedAndColdServes) {
  std::vector<std::pair<Fp, ByteVec>> chunks;
  const std::string name = demotedStore(chunks);
  ASSERT_FALSE(name.empty());
  const std::string hotPath = dir_ + "/containers/" + name;
  writeFile(hotPath, readFile(dir_ + "/cold/" + name));
  flipMiddleByte(hotPath);

  FileBackupStore reopened(dir_, tiered());
  EXPECT_EQ(reopened.recoveryStats().corruptContainers, 1u);
  EXPECT_EQ(reopened.recoveryStats().entriesDropped, 0u);
  EXPECT_TRUE(fs::exists(hotPath + ".corrupt"));
  EXPECT_FALSE(fs::exists(hotPath));
  EXPECT_TRUE(fs::exists(dir_ + "/cold/" + name));
  for (const auto& [fp, bytes] : chunks)
    EXPECT_EQ(reopened.getChunk(fp), bytes);
  EXPECT_GT(reopened.readStats().coldReads, 0u);
  EXPECT_TRUE(reopened.verify().ok());
}

TEST_F(TierRecoveryTest, CorruptColdOnlyCopyIsQuarantinedAndItsEntriesDrop) {
  std::vector<std::pair<Fp, ByteVec>> chunks;
  const std::string name = demotedStore(chunks);
  ASSERT_FALSE(name.empty());
  const std::string coldPath = dir_ + "/cold/" + name;
  const size_t lost = parseContainer(readFile(coldPath)).entries.size();
  ASSERT_GT(lost, 0u);
  flipMiddleByte(coldPath);

  FileBackupStore reopened(dir_, tiered());
  EXPECT_EQ(reopened.recoveryStats().corruptContainers, 1u);
  EXPECT_EQ(reopened.recoveryStats().entriesDropped, lost);
  EXPECT_TRUE(fs::exists(coldPath + ".corrupt"));
  EXPECT_FALSE(fs::exists(coldPath));
  EXPECT_FALSE(fs::exists(dir_ + "/containers/" + name + ".corrupt"));
  size_t missing = 0;
  for (const auto& [fp, bytes] : chunks) missing += !reopened.hasChunk(fp);
  EXPECT_EQ(missing, lost);
  // The "live" manifest still references the lost chunks.
  const StoreCheckReport report = reopened.verify();
  size_t dangling = 0;
  for (const std::string& error : report.errors)
    dangling += error.starts_with("manifest references missing chunk");
  EXPECT_EQ(dangling, lost);
}

TEST_F(TierRecoveryTest, UnreferencedColdObjectIsRemovedAsAnOrphan) {
  std::vector<std::pair<Fp, ByteVec>> chunks;
  ASSERT_FALSE(demotedStore(chunks).empty());
  const std::string orphan = dir_ + "/cold/00000099.fdc";
  writeFile(orphan, toBytes("unreferenced cold object"));

  FileBackupStore reopened(dir_, tiered());
  EXPECT_EQ(reopened.recoveryStats().orphanContainersRemoved, 1u);
  EXPECT_EQ(reopened.recoveryStats().corruptContainers, 0u);
  EXPECT_FALSE(fs::exists(orphan));
  for (const auto& [fp, bytes] : chunks)
    EXPECT_EQ(reopened.getChunk(fp), bytes);
  EXPECT_TRUE(reopened.verify().ok());
}

TEST(ObjectDirTest, PutGetRemoveRenameListAndTornTmpSweep) {
  const TempDir tmp;
  const std::string dir = tmp.path() + "/objects";
  {
    const ObjectDir objects(dir);
    objects.put("a.fdc", toBytes("alpha"));
  }
  // A torn put (crash mid-write) leaves a tmp file; reopening sweeps it.
  writeFile(dir + "/torn.fdc.tmp", toBytes("partial"));
  const ObjectDir objects(dir);
  EXPECT_FALSE(fs::exists(dir + "/torn.fdc.tmp"));

  EXPECT_TRUE(objects.exists("a.fdc"));
  EXPECT_EQ(objects.get("a.fdc"), toBytes("alpha"));
  EXPECT_THROW((void)objects.get("missing"), std::runtime_error);
  objects.put("b.fdc", toBytes("beta"));
  EXPECT_EQ(objects.list().size(), 2u);
  objects.rename("b.fdc", "b.fdc.corrupt");
  EXPECT_FALSE(objects.exists("b.fdc"));
  EXPECT_TRUE(objects.exists("b.fdc.corrupt"));
  EXPECT_THROW(objects.rename("b.fdc", "c.fdc"), std::runtime_error);
  EXPECT_TRUE(objects.remove("a.fdc"));
  EXPECT_FALSE(objects.remove("a.fdc")) << "second remove is an idempotent no";
}

}  // namespace
}  // namespace freqdedup
