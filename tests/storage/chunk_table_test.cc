// The store's chunk table: refcounts live only in memory and are derived
// from the manifests at open, so a commit logs one record for its manifest
// and recipe and nothing per chunk, an index written in the legacy form
// (a refcount in every 'C' value) reopens with the manifests' counts, and
// so does a log of plain put records with a re-commit cut halfway. The
// manifest names live in memory too, filled the same way.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "chunking/cdc_chunker.h"
#include "client/dedup_client.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/varint.h"
#include "kvstore/logkv.h"
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

BackupOutcome backupAll(DedupClient& client, const std::string& name,
                        ByteView content) {
  BackupSession session = client.beginBackup(name);
  session.append(content);
  return session.finish();
}

/// Occurrences of each fingerprint over every recorded manifest.
std::unordered_map<Fp, uint32_t, FpHash> manifestRefs(BackupStore& store) {
  std::unordered_map<Fp, uint32_t, FpHash> refs;
  for (const std::string& name : store.listBackups()) {
    const auto manifest = store.backupRefs(name);
    if (!manifest) continue;
    for (const Fp fp : *manifest) ++refs[fp];
  }
  return refs;
}

/// The names of the 'M' keys in a closed store's index log, sorted: what
/// listing backups found by scanning every key.
std::vector<std::string> manifestKeysOnDisk(const std::string& dir) {
  LogKv index(dir + "/index.log");
  std::vector<std::string> names;
  index.forEachKey([&names](ByteView key) {
    if (!key.empty() && key[0] == 'M')
      names.emplace_back(reinterpret_cast<const char*>(key.data()) + 1,
                         key.size() - 1);
  });
  std::sort(names.begin(), names.end());
  return names;
}

class ChunkTableTest : public ::testing::Test {
 protected:
  ChunkTableTest() { userKey_.fill(0x6E); }

  const TempDir tmp_;
  const std::string dir_ = tmp_.path();
  KeyManager km_{toBytes("chunk-table-secret")};
  CdcChunker chunker_{smallCdc()};
  AesKey userKey_{};
  Rng rng_{11};
};

// A commit's log records do not grow with its chunk count: a new name, a
// re-commit and a delete each append one batch record, which holds the
// manifest and the recipe blob together.
TEST_F(ChunkTableTest, CommitRecommitAndDeleteAppendOneRecordEach) {
  FileBackupStore store(dir_);
  DedupClient client(store, km_, chunker_);
  const ByteVec content = randomContent(5, 2 << 20);
  client.commitBackup("first", backupAll(client, "first", content), userKey_,
                      rng_);

  // The same object under a new name stores no chunk, so the commit's seal
  // has nothing to index and its appends are the commit's own.
  const BackupOutcome outcome = backupAll(client, "second", content);
  ASSERT_GE(outcome.fileRecipe.entries.size(), 1000u);
  ASSERT_EQ(outcome.newChunks, 0u);
  const auto appends = [&store] {
    return store.metricsSnapshot().counter("wal.appends");
  };
  uint64_t before = appends();
  client.commitBackup("second", outcome, userKey_, rng_);
  EXPECT_EQ(appends() - before, 1u);

  before = appends();
  client.commitBackup("second", outcome, userKey_, rng_);
  EXPECT_EQ(appends() - before, 1u);

  for (const auto& [fp, n] : manifestRefs(store))
    EXPECT_EQ(store.chunkRefCount(fp), n) << fpToHex(fp);
  EXPECT_TRUE(store.verify().ok());

  before = appends();
  EXPECT_TRUE(client.deleteBackup("second"));
  EXPECT_EQ(appends() - before, 1u);
  for (const auto& [fp, n] : manifestRefs(store))
    EXPECT_EQ(store.chunkRefCount(fp), n) << fpToHex(fp);
  EXPECT_TRUE(store.verify().ok());
}

// A store written before commits became batch records still opens. Its log
// holds only plain put records, one per manifest and one per recipe blob,
// and a re-commit of "a" was cut after its first step: the manifest widened
// to old + new while the recipe blob is still the old one. The store
// verifies, its refcounts equal the manifests, every backup restores
// bit-identically, and re-committing "a" over it completes the change.
TEST_F(ChunkTableTest, LogOfPlainPutsWithAWidenedRecommitReopens) {
  const ByteVec a = randomContent(41, 48 * 1024);
  ByteVec a2 = a;
  for (size_t i = 10'000; i < 14'000; ++i) a2[i] ^= 0x77;
  const ByteVec tail = randomContent(43, 8 * 1024);
  a2.insert(a2.end(), tail.begin(), tail.end());
  const ByteVec b = randomContent(42, 32 * 1024);
  const StoreOptions options{.containerBytes = 16 * 1024};

  // Every chunk and recipe, written by this build; "a2" stores a2's chunks.
  const std::string written = dir_ + "/written";
  std::vector<Fp> widened;  // the manifest of "a", then that of "a2"
  {
    FileBackupStore store(written, options);
    DedupClient client(store, km_, chunker_);
    client.commitBackup("a", backupAll(client, "a", a), userKey_, rng_);
    client.commitBackup("b", backupAll(client, "b", b), userKey_, rng_);
    client.commitBackup("a2", backupAll(client, "a2", a2), userKey_, rng_);
    widened = store.backupRefs("a").value();
    const std::vector<Fp> next = store.backupRefs("a2").value();
    widened.insert(widened.end(), next.begin(), next.end());
  }
  std::vector<std::pair<ByteVec, ByteVec>> entries;
  {
    LogKv index(written + "/index.log");
    index.forEach([&entries](ByteView key, ByteView value) {
      entries.emplace_back(ByteVec(key.begin(), key.end()),
                           ByteVec(value.begin(), value.end()));
    });
  }
  const auto keyOf = [](char prefix, const std::string& name) {
    ByteVec key{static_cast<uint8_t>(prefix)};
    appendBytes(key, toBytes(name));
    return key;
  };

  // The same entries as plain puts in a fresh log: chunks first, then each
  // backup's manifest and blob, with "a" widened and "a2" left out.
  const std::string parent = dir_ + "/parent";
  std::filesystem::copy(written, parent,
                        std::filesystem::copy_options::recursive);
  for (const char* file : {"/index.log", "/index.log.ckpt"})
    std::filesystem::remove(parent + file);
  {
    LogKv index(parent + "/index.log");
    for (const auto& [key, value] : entries)
      if (key[0] == 'C') index.put(key, value);
    for (const auto& [key, value] : entries) {
      if (key == keyOf('M', "a2") || key == keyOf('B', "recipe:a2")) continue;
      if (key == keyOf('M', "a")) {
        ByteVec manifest;
        putVarint(manifest, widened.size());
        for (const Fp fp : widened) putU64(manifest, fp);
        putU32(manifest, crc32c(manifest));
        index.put(key, manifest);
      } else if (key[0] != 'C') {
        index.put(key, value);
      }
    }
    index.flush();
  }

  FileBackupStore store(parent, options);
  EXPECT_EQ(store.listBackups(), (std::vector<std::string>{"a", "b"}));
  const StoreCheckReport report = store.verify();
  EXPECT_TRUE(report.ok()) << report.errors.front();
  EXPECT_EQ(store.backupRefs("a")->size(), widened.size());
  for (const auto& [fp, n] : manifestRefs(store))
    EXPECT_EQ(store.chunkRefCount(fp), n) << fpToHex(fp);
  DedupClient client(store, km_, chunker_);
  EXPECT_EQ(client.beginRestore("a", userKey_).readAll(), a);
  EXPECT_EQ(client.beginRestore("b", userKey_).readAll(), b);

  client.commitBackup("a", backupAll(client, "a", a2), userKey_, rng_);
  EXPECT_TRUE(store.verify().ok());
  for (const auto& [fp, n] : manifestRefs(store))
    EXPECT_EQ(store.chunkRefCount(fp), n) << fpToHex(fp);
  EXPECT_EQ(client.beginRestore("a", userKey_).readAll(), a2);
  EXPECT_EQ(client.beginRestore("b", userKey_).readAll(), b);
}

// A store whose 'C' values are in the 16-byte legacy form, with refcounts
// that match nothing, reopens with the manifests' refcounts and restores
// every backup bit-identically; GC after the reopen keeps what is live.
TEST_F(ChunkTableTest, LegacyIndexEntriesReopenWithManifestRefcounts) {
  const ByteVec a = randomContent(21, 48 * 1024);
  ByteVec b = a;
  for (size_t i = 20'000; i < 24'000; ++i) b[i] ^= 0xA5;
  const ByteVec gone = randomContent(22, 16 * 1024);
  {
    FileBackupStore store(dir_, {.containerBytes = 16 * 1024});
    DedupClient client(store, km_, chunker_);
    client.commitBackup("a", backupAll(client, "a", a), userKey_, rng_);
    client.commitBackup("b", backupAll(client, "b", b), userKey_, rng_);
    // A deleted backup leaves chunks whose true refcount is 0.
    client.commitBackup("gone", backupAll(client, "gone", gone), userKey_,
                        rng_);
    ASSERT_TRUE(client.deleteBackup("gone"));
  }

  // Rewrite every 'C' value in the legacy form with a wrong refcount.
  size_t rewritten = 0;
  {
    LogKv index(dir_ + "/index.log");
    std::vector<std::pair<ByteVec, ByteVec>> legacy;
    index.forEach([&legacy](ByteView key, ByteView value) {
      if (key.empty() || key[0] != 'C') return;
      ASSERT_EQ(value.size(), 12u) << "new 'C' values carry no refcount";
      ByteVec old(value.begin(), value.end());
      putU32(old, 7 + static_cast<uint32_t>(legacy.size() % 3));
      legacy.emplace_back(ByteVec(key.begin(), key.end()), std::move(old));
    });
    for (const auto& [key, value] : legacy) index.put(key, value);
    index.flush();
    rewritten = legacy.size();
  }
  ASSERT_GT(rewritten, 0u);

  FileBackupStore store(dir_, {.containerBytes = 16 * 1024});
  const auto refs = manifestRefs(store);
  EXPECT_EQ(store.stats().uniqueChunks, rewritten);
  EXPECT_FALSE(store.backupRefs("gone").has_value());
  for (const auto& [fp, n] : refs)
    EXPECT_EQ(store.chunkRefCount(fp), n) << fpToHex(fp);
  EXPECT_TRUE(store.verify().ok());

  DedupClient client(store, km_, chunker_);
  EXPECT_EQ(client.beginRestore("a", userKey_).readAll(), a);
  EXPECT_EQ(client.beginRestore("b", userKey_).readAll(), b);

  // GC reclaims exactly the chunks no manifest references.
  const size_t unreferenced = rewritten - refs.size();
  EXPECT_GT(unreferenced, 0u);
  EXPECT_EQ(store.collectGarbage().chunksReclaimed, unreferenced);
  EXPECT_EQ(client.beginRestore("a", userKey_).readAll(), a);
  EXPECT_EQ(client.beginRestore("b", userKey_).readAll(), b);
  EXPECT_TRUE(store.verify().ok());
}

// listBackups() serves the manifest names from memory. After each commit,
// re-commit, delete and GC, and after the reopen that rebuilds the names,
// they equal the manifest keys in the index log.
TEST_F(ChunkTableTest, ListedBackupsEqualTheManifestKeysAfterEveryStep) {
  const ByteVec a = randomContent(31, 64 * 1024);
  const ByteVec b = randomContent(32, 64 * 1024);
  const auto commit = [this](DedupClient& client, const std::string& name,
                             const ByteVec& content) {
    client.commitBackup(name, backupAll(client, name, content), userKey_,
                        rng_);
  };
  using Run = std::function<void(DedupClient&, FileBackupStore&)>;
  const struct Step {
    std::string what;
    Run run;
    std::vector<std::string> names;
  } steps[] = {
      {"commit a", [&](DedupClient& c, FileBackupStore&) { commit(c, "a", a); },
       {"a"}},
      {"commit b and c",
       [&](DedupClient& c, FileBackupStore&) {
         commit(c, "b", b);
         commit(c, "c", a);
       },
       {"a", "b", "c"}},
      {"re-commit a",
       [&](DedupClient& c, FileBackupStore&) { commit(c, "a", b); },
       {"a", "b", "c"}},
      {"delete b",
       [](DedupClient& c, FileBackupStore&) {
         EXPECT_TRUE(c.deleteBackup("b"));
       },
       {"a", "c"}},
      {"gc",
       [](DedupClient&, FileBackupStore& store) { store.collectGarbage(); },
       {"a", "c"}},
  };
  for (const Step& step : steps) {
    std::vector<std::string> listed;
    {
      FileBackupStore store(dir_);
      DedupClient client(store, km_, chunker_);
      step.run(client, store);
      listed = store.listBackups();
    }
    const std::vector<std::string> onDisk = manifestKeysOnDisk(dir_);
    EXPECT_EQ(onDisk, step.names) << step.what;
    EXPECT_EQ(listed, onDisk) << step.what;
    FileBackupStore reopened(dir_);
    EXPECT_EQ(reopened.listBackups(), onDisk) << "reopened after " << step.what;
  }
}

}  // namespace
}  // namespace freqdedup
