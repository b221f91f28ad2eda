// Hot/cold tiering: GC-driven demotion (hotBytes target, keepHotRecent
// protection, least-recently-read order), transparent promotion on restore
// reads (verbatim frame bytes, promotions ≤ cold reads), tier discovery on
// reopen without tiering options, GC of demoted containers, cold-orphan
// detection in verify(), and the LocalObjectStore contract.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>

#include "obs/metrics.h"
#include "storage/backup_store.h"
#include "storage/cold_tier.h"
#include "storage/container.h"
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

TEST(LocalObjectStoreTest, PutGetRemoveRenameListAndTornTmpSweep) {
  const std::string dir =
      (fs::temp_directory_path() / "local_object_store_test").string();
  fs::remove_all(dir);
  {
    LocalObjectStore store(dir);
    store.put("a.fdc", toBytes("alpha"));
  }
  // A torn put (crash mid-write) leaves a tmp file; reopening sweeps it.
  writeFile(dir + "/torn.fdc.tmp", toBytes("partial"));
  LocalObjectStore store(dir);
  EXPECT_FALSE(fs::exists(dir + "/torn.fdc.tmp"));

  EXPECT_TRUE(store.exists("a.fdc"));
  EXPECT_EQ(store.get("a.fdc"), toBytes("alpha"));
  EXPECT_THROW((void)store.get("missing"), std::runtime_error);
  store.put("b.fdc", toBytes("beta"));
  EXPECT_EQ(store.list().size(), 2u);
  store.rename("b.fdc", "b.fdc.corrupt");
  EXPECT_FALSE(store.exists("b.fdc"));
  EXPECT_TRUE(store.exists("b.fdc.corrupt"));
  EXPECT_TRUE(store.remove("a.fdc"));
  EXPECT_FALSE(store.remove("a.fdc")) << "second remove is an idempotent no";
  fs::remove_all(dir);
}

TEST(LocalObjectStoreTest, SimulatedLatencyIsApplied) {
  const std::string dir =
      (fs::temp_directory_path() / "local_object_store_sim_test").string();
  fs::remove_all(dir);
  ObjectStoreSim sim;
  sim.readLatencyUs = 2000;
  LocalObjectStore store(dir, sim);
  store.put("k", toBytes("v"));
  const auto t0 = std::chrono::steady_clock::now();
  (void)store.get("k");
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_GE(elapsed, 1000) << "simulated read latency should be felt";
  fs::remove_all(dir);
}

}  // namespace
}  // namespace freqdedup
