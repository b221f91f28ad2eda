// End-to-end round-trip matrix: backup -> commit -> close -> reopen ->
// restore -> byte-compare, across every EncryptionScheme x restore
// parallelism {1, 4}; plus delete + GC followed by restoring the surviving
// backup, and the compressed + tiered store against a single-tier twin.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <tuple>

#include "chunking/cdc_chunker.h"
#include "client/dedup_client.h"
#include "common/rng.h"
#include "storage/file_backup_store.h"
#include "temp_store.h"

namespace freqdedup {
namespace {

using MatrixParam = std::tuple<EncryptionScheme, uint32_t>;

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

/// Backs up one in-memory object in a single append.
BackupOutcome backupAll(DedupClient& client, const std::string& name,
                        ByteView content) {
  BackupSession session = client.beginBackup(name);
  session.append(content);
  return session.finish();
}

ByteVec restoreByName(DedupClient& client, const std::string& name,
                      const AesKey& userKey) {
  return client.beginRestore(name, userKey).readAll();
}

/// Names of the container files (*.fdc) in one tier directory.
std::set<std::string> containerFiles(const std::string& dir) {
  std::set<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ".fdc")
      names.insert(entry.path().filename().string());
  return names;
}

class RestoreMatrix : public ::testing::TestWithParam<MatrixParam> {
 protected:
  [[nodiscard]] EncryptionScheme scheme() const {
    return std::get<0>(GetParam());
  }
  [[nodiscard]] uint32_t parallelism() const { return std::get<1>(GetParam()); }

  [[nodiscard]] std::unique_ptr<FileBackupStore> openStore() const {
    return std::make_unique<FileBackupStore>(
        dir_, StoreOptions{.containerBytes = 128 * 1024});
  }

  [[nodiscard]] BackupOptions options() const {
    BackupOptions o;
    o.scheme = scheme();
    o.segmentParams.minBytes = 8 * 1024;
    o.segmentParams.avgBytes = 16 * 1024;
    o.segmentParams.maxBytes = 32 * 1024;
    o.segmentParams.avgChunkBytes = 1024;
    return o;
  }

  [[nodiscard]] DedupClient makeClient(BackupStore& store) const {
    RestoreOptions restore;
    restore.parallelism = parallelism();
    return DedupClient(store, km_, chunker_, options(), restore);
  }

  const TempDir tmp_;
  const std::string dir_ = tmp_.path();
  KeyManager km_{toBytes("matrix-secret")};
  CdcChunker chunker_{smallCdc()};
};

TEST_P(RestoreMatrix, CloseReopenRestoreBitIdentical) {
  AesKey userKey{};
  userKey.fill(0x5A);
  Rng rng(1);

  // Three objects with cross-object duplication: v1 is v0 with a clustered
  // edit, other is independent content.
  std::map<std::string, ByteVec> objects;
  objects["v0"] = randomContent(100, 200 * 1024);
  objects["v1"] = objects["v0"];
  for (size_t i = 60'000; i < 66'000; ++i) objects["v1"][i] ^= 0xFF;
  objects["other"] = randomContent(101, 150 * 1024);

  {
    const auto store = openStore();
    DedupClient client = makeClient(*store);
    for (const auto& [name, content] : objects) {
      const BackupOutcome outcome = backupAll(client, name, content);
      client.commitBackup(name, outcome, userKey, rng);
      // In-process restore must already round-trip.
      EXPECT_EQ(
          client.beginRestore(outcome.fileRecipe, outcome.keyRecipe).readAll(),
          content);
    }
    store->flush();
  }  // close

  // Reopen from disk: every backup must restore bit-identically.
  const auto reopened = openStore();
  DedupClient client = makeClient(*reopened);
  ASSERT_EQ(client.listBackups().size(), objects.size());
  for (const auto& [name, content] : objects)
    EXPECT_EQ(restoreByName(client, name, userKey), content) << name;
  EXPECT_TRUE(reopened->verify().ok());
}

TEST_P(RestoreMatrix, DeleteAndGcThenRestoreSurvivor) {
  AesKey userKey{};
  userKey.fill(0xA5);
  Rng rng(2);

  ByteVec keep = randomContent(200, 180 * 1024);
  ByteVec drop = keep;  // heavy sharing with the surviving backup
  for (size_t i = 20'000; i < 28'000; ++i) drop[i] ^= 0x77;

  {
    const auto store = openStore();
    DedupClient client = makeClient(*store);
    client.commitBackup("keep", backupAll(client, "keep", keep), userKey, rng);
    client.commitBackup("drop", backupAll(client, "drop", drop), userKey, rng);

    EXPECT_TRUE(client.deleteBackup("drop"));
    const uint64_t storedBefore = store->stats().storedBytes;
    const GcStats gc = store->collectGarbage();
    EXPECT_GT(gc.chunksReclaimed, 0u) << "the edited region was unshared";
    EXPECT_LT(store->stats().storedBytes, storedBefore);
    EXPECT_TRUE(store->verify().ok());

    EXPECT_EQ(restoreByName(client, "keep", userKey), keep);
    EXPECT_THROW(restoreByName(client, "drop", userKey), std::runtime_error);
    store->flush();
  }

  // The survivor must still restore after close + reopen.
  const auto reopened = openStore();
  DedupClient client = makeClient(*reopened);
  EXPECT_EQ(restoreByName(client, "keep", userKey), keep);
  EXPECT_EQ(client.listBackups(), std::vector<std::string>{"keep"});
  EXPECT_TRUE(reopened->verify().ok());
}

// The fingerprint index lives in the store's LogKv, so deduplication must
// hold across process lifetimes: each version of an edited object is backed
// up by a fresh store instance, and every version after the first finds most
// of its chunks already stored.
TEST_P(RestoreMatrix, IncrementalChainDedupsAcrossReopens) {
  AesKey userKey{};
  userKey.fill(0x66);
  Rng rng(4);

  std::vector<ByteVec> versions{randomContent(400, 160 * 1024)};
  for (size_t v = 1; v < 4; ++v) {
    ByteVec next = versions.back();
    const size_t at = 30'000 * v;
    for (size_t i = at; i < at + 4'000; ++i) next[i] ^= 0x5C;
    versions.push_back(std::move(next));
  }

  for (size_t v = 0; v < versions.size(); ++v) {
    const auto store = openStore();
    DedupClient client = makeClient(*store);
    const std::string name = "v" + std::to_string(v);
    const BackupOutcome outcome = backupAll(client, name, versions[v]);
    if (v == 0) {
      EXPECT_EQ(outcome.duplicateChunks, 0u);
    } else {
      EXPECT_GT(outcome.duplicateChunks, outcome.newChunks)
          << name << " should dedup against the reopened index";
    }
    client.commitBackup(name, outcome, userKey, rng);
    store->flush();
  }

  const auto reopened = openStore();
  DedupClient client = makeClient(*reopened);
  ASSERT_EQ(client.listBackups().size(), versions.size());
  for (size_t v = 0; v < versions.size(); ++v)
    EXPECT_EQ(restoreByName(client, "v" + std::to_string(v), userKey),
              versions[v])
        << "v" << v;
  EXPECT_TRUE(reopened->verify().ok());
}

// Deleting every backup and collecting garbage must leave no container file
// behind, and the emptied store must reopen cleanly and take new backups.
TEST_P(RestoreMatrix, DeleteEverythingThenGcEmptiesTheStoreOnDisk) {
  AesKey userKey{};
  userKey.fill(0x99);
  Rng rng(5);

  const ByteVec first = randomContent(500, 120 * 1024);
  const ByteVec second = randomContent(501, 90 * 1024);
  {
    const auto store = openStore();
    DedupClient client = makeClient(*store);
    client.commitBackup("first", backupAll(client, "first", first), userKey,
                        rng);
    client.commitBackup("second", backupAll(client, "second", second),
                        userKey, rng);
    store->flush();
    ASSERT_FALSE(containerFiles(dir_ + "/containers").empty());

    EXPECT_TRUE(client.deleteBackup("first"));
    EXPECT_TRUE(client.deleteBackup("second"));
    EXPECT_GT(store->collectGarbage().chunksReclaimed, 0u);
    EXPECT_TRUE(client.listBackups().empty());
    EXPECT_TRUE(containerFiles(dir_ + "/containers").empty());
    EXPECT_TRUE(store->verify().ok());
  }

  const auto reopened = openStore();
  EXPECT_EQ(reopened->recoveryStats().entriesDropped, 0u);
  DedupClient client = makeClient(*reopened);
  EXPECT_TRUE(client.listBackups().empty());
  client.commitBackup("again", backupAll(client, "again", second), userKey,
                      rng);
  EXPECT_EQ(restoreByName(client, "again", userKey), second);
  EXPECT_TRUE(reopened->verify().ok());
}

// The block cache is an optimisation only: a reopened store with the cache
// disabled reads every container from disk and restores the same bytes as
// one with a cache large enough to keep every container.
TEST_P(RestoreMatrix, UncachedRestoreMatchesCachedRestore) {
  AesKey userKey{};
  userKey.fill(0xC3);
  Rng rng(6);

  std::map<std::string, ByteVec> objects;
  objects["a"] = randomContent(600, 180 * 1024);
  objects["b"] = objects["a"];
  for (size_t i = 50'000; i < 55'000; ++i) objects["b"][i] ^= 0x3E;
  {
    const auto store = openStore();
    DedupClient client = makeClient(*store);
    for (const auto& [name, content] : objects)
      client.commitBackup(name, backupAll(client, name, content), userKey,
                          rng);
    store->flush();
  }

  for (const uint64_t cacheBytes : {uint64_t{0}, kUnboundedBlockCacheBytes}) {
    FileBackupStore store(dir_, {.containerBytes = 128 * 1024,
                                 .blockCacheBytes = cacheBytes});
    DedupClient client = makeClient(store);
    for (const auto& [name, content] : objects)
      EXPECT_EQ(restoreByName(client, name, userKey), content)
          << name << " with cache budget " << cacheBytes;
    if (cacheBytes == 0)
      EXPECT_EQ(store.readCacheStats().cachedBytes, 0u)
          << "a zero budget must retain nothing";
    EXPECT_TRUE(store.verify().ok());
  }
}

// Acceptance matrix for the compressed + tiered storage path: a store
// opened with compression enabled and GC-driven demotion to the cold tier
// must restore every backup bit-identical to BOTH the original content and
// an uncompressed single-tier twin — first from cold (reads promote), then
// warm (promoted copies) — for every scheme x restore parallelism. The
// shared block cache must honor its byte budget throughout. (Chunk payloads
// are ciphertext, so per-container compression falls back to the legacy
// frame — the codec path is exercised end to end without assuming the
// impossible, that encrypted chunks shrink.)
TEST_P(RestoreMatrix, TieredCompressedRestoresMatchSingleTierColdAndWarm) {
  AesKey userKey{};
  userKey.fill(0x3C);
  Rng rng(3);

  std::map<std::string, ByteVec> objects;
  objects["v0"] = randomContent(300, 200 * 1024);
  objects["v1"] = objects["v0"];
  for (size_t i = 40'000; i < 46'000; ++i) objects["v1"][i] ^= 0xFF;
  objects["other"] = randomContent(301, 150 * 1024);

  const std::string baseDir = dir_ + "/base";
  const std::string tieredDir = dir_ + "/tiered";
  StoreOptions baseOptions;
  baseOptions.containerBytes = 128 * 1024;
  StoreOptions tieredOptions = baseOptions;
  tieredOptions.codec = ContainerCodec::kDeflate;
  tieredOptions.blockCacheBytes = 4 * 128 * 1024;
  tieredOptions.coldTier.demoteOnGc = true;
  tieredOptions.coldTier.hotBytes = 0;
  tieredOptions.coldTier.keepHotRecent = 1;

  // Identical backups into the uncompressed single-tier twin and the
  // compressed tiered store; demote the tiered store's containers.
  for (const auto& [dir, options] :
       {std::pair{baseDir, baseOptions}, std::pair{tieredDir, tieredOptions}}) {
    FileBackupStore store(dir, options);
    DedupClient client = makeClient(store);
    for (const auto& [name, content] : objects)
      client.commitBackup(name, backupAll(client, name, content), userKey, rng);
    store.flush();
    if (options.coldTier.demoteOnGc)
      EXPECT_GT(store.collectGarbage().containersDemoted, 0u);
  }

  // The tier is read off the directories.
  const std::set<std::string> demoted = containerFiles(tieredDir + "/cold");
  ASSERT_FALSE(demoted.empty()) << "gc should have demoted containers";

  // Cold pass: fresh instances, the tiered store serving (and promoting)
  // from the cold tier. All three restores must agree byte for byte.
  {
    FileBackupStore base(baseDir, baseOptions);
    FileBackupStore tiered(tieredDir, tieredOptions);
    DedupClient baseClient = makeClient(base);
    DedupClient tieredClient = makeClient(tiered);
    for (const auto& [name, content] : objects) {
      const ByteVec fromBase = restoreByName(baseClient, name, userKey);
      const ByteVec fromTiered = restoreByName(tieredClient, name, userKey);
      EXPECT_EQ(fromBase, content) << name;
      EXPECT_EQ(fromTiered, content) << "cold " << name;
    }
    const StoreReadStats rs = tiered.readStats();
    EXPECT_GT(rs.coldReads, 0u) << "restores should have hit the cold tier";
    EXPECT_GT(rs.promotions, 0u);
    EXPECT_LE(rs.promotions, rs.coldReads);
    // Every object was restored, so every demoted container was read and
    // promoted: its file is back in containers/ and cold/ is empty.
    const std::set<std::string> hot = containerFiles(tieredDir + "/containers");
    for (const std::string& name : demoted)
      EXPECT_TRUE(hot.contains(name)) << name << " was not promoted";
    EXPECT_TRUE(containerFiles(tieredDir + "/cold").empty());
    EXPECT_LE(tiered.readCacheStats().peakCachedBytes,
              tieredOptions.blockCacheBytes)
        << "block cache must honor its byte budget";

    // Warm pass in the same instance: promoted copies + block cache.
    for (const auto& [name, content] : objects)
      EXPECT_EQ(restoreByName(tieredClient, name, userKey), content)
          << "warm " << name;
    EXPECT_EQ(tiered.readStats().coldReads, rs.coldReads)
        << "promoted containers must serve hot";
    EXPECT_TRUE(containerFiles(tieredDir + "/cold").empty());
    EXPECT_LE(tiered.readCacheStats().peakCachedBytes,
              tieredOptions.blockCacheBytes);
    EXPECT_TRUE(tiered.verify().ok());
  }

  // And once more after another reopen: the promoted layout persists.
  FileBackupStore tiered(tieredDir, tieredOptions);
  DedupClient client = makeClient(tiered);
  for (const auto& [name, content] : objects)
    EXPECT_EQ(restoreByName(client, name, userKey), content)
        << "promoted " << name;
  EXPECT_TRUE(tiered.verify().ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, RestoreMatrix,
    ::testing::Combine(
        ::testing::Values(EncryptionScheme::kMle, EncryptionScheme::kMinHash,
                          EncryptionScheme::kMinHashScrambled),
        ::testing::Values(1u, 4u)),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      const char* scheme = "";
      switch (std::get<0>(info.param)) {
        case EncryptionScheme::kMle: scheme = "Mle"; break;
        case EncryptionScheme::kMinHash: scheme = "MinHash"; break;
        case EncryptionScheme::kMinHashScrambled: scheme = "Scrambled"; break;
      }
      return std::string(scheme) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace freqdedup
