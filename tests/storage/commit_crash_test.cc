// Crash coverage of DedupClient::commitBackup and deleteBackup over a
// FileBackupStore: after a crash anywhere inside a commit or a delete, a
// reopened store's chunk refcounts equal the occurrence sums of the
// manifests that survived, each surviving manifest has its recipe blob and
// the other way round, the recipe's ciphertext fingerprints equal the
// manifest as a multiset, and the recipe that survived restores
// bit-identically.
//
// The store writes a commit's manifest and recipe blob as one log record
// and erases both in one for a delete, so every log prefix holds either the
// old or the new pair. The operations are a new name, a re-commit of an
// existing name and a delete, and each runs under two crash models:
//   - Crash at every wal.append of the operation (the kvcrash hook), then
//     reopen once on the files as the crash left them and once after page-
//     cache loss (the WAL cut back to its last fdatasynced byte, as
//     logkv_crash_test does).
//   - Every log prefix: the operation runs to completion, and the WAL is
//     then cut at each record boundary it wrote: what a power loss leaves
//     when only part of its group write reached the disk.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "chunking/cdc_chunker.h"
#include "client/dedup_client.h"
#include "common/rng.h"
#include "common/varint.h"
#include "kvstore/crash_point.h"
#include "storage/file_backup_store.h"
#include "storage/recipe.h"
#include "temp_store.h"

namespace freqdedup {
namespace {

std::atomic<int> g_appends{0};  // wal.append calls since the hook was armed
std::atomic<int> g_crashAt{0};  // crash at this append (0: only count)

bool crashHook(const char* point) {
  if (std::strcmp(point, "wal.append") != 0) return false;
  const int n = g_appends.fetch_add(1) + 1;
  return n == g_crashAt.load();
}

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

constexpr auto kRecursive = std::filesystem::copy_options::recursive;

std::string indexPath(const std::string& dir) { return dir + "/index.log"; }

enum class Op { kNewName, kReCommit, kDelete };

class StoreOpCrash : public ::testing::Test {
 protected:
  explicit StoreOpCrash(Op op) : op_(op) {
    userKey_.fill(0x3C);
    // The re-committed object keeps most of the old one's chunks and adds
    // some of its own, so the refcount delta and the seal both have work.
    newContent_ = oldContent_;
    for (size_t i = 8'000; i < 12'000; ++i) newContent_[i] ^= 0x5A;
    newContent_.insert(newContent_.end(), extra_.begin(), extra_.end());
  }
  void TearDown() override { kvcrash::setHook(nullptr); }

  [[nodiscard]] bool reCommit() const { return op_ == Op::kReCommit; }
  /// The backup the operation writes or deletes.
  [[nodiscard]] std::string name() const {
    return op_ == Op::kNewName ? "fresh" : "obj";
  }
  /// The fewest log records the operation appends: a delete one batch, a
  /// commit the seal's 'C' records of its new chunks too.
  [[nodiscard]] int minAppends() const {
    return op_ == Op::kDelete ? 1 : reCommit() ? 3 : 2;
  }

  [[nodiscard]] std::unique_ptr<FileBackupStore> openStore(
      const std::string& dir) const {
    return std::make_unique<FileBackupStore>(
        dir, StoreOptions{.containerBytes = 16 * 1024});
  }

  void commit(DedupClient& client, const std::string& name,
              const ByteVec& content) {
    BackupSession session = client.beginBackup(name);
    session.append(content);
    const BackupOutcome outcome = session.finish();
    client.commitBackup(name, outcome, userKey_, rng_);
  }

  /// The durable state every scenario starts from: "obj" (the old content)
  /// and "other", both committed.
  void seed(const std::string& dir) {
    const auto store = openStore(dir);
    DedupClient client(*store, km_, chunker_);
    commit(client, "obj", oldContent_);
    commit(client, "other", otherContent_);
  }

  /// Opens the seeded store and runs the operation (a delete of name(), or
  /// a backup of the new content committed as name()) with the crash hook
  /// armed at append `crashAt` (0: never). Returns the operation's
  /// wal.append count, or -1 if the crash fired. The index log's size
  /// before the operation started, which is its durable prefix, lands in
  /// `durableBytes`.
  int runOp(const std::string& dir, int crashAt, uint64_t& durableBytes) {
    const auto store = openStore(dir);
    durableBytes = std::filesystem::file_size(indexPath(dir));
    DedupClient client(*store, km_, chunker_);
    std::optional<BackupOutcome> outcome;
    if (op_ != Op::kDelete) {
      BackupSession session = client.beginBackup(name());
      session.append(newContent_);
      outcome = session.finish();
    }
    g_appends.store(0);
    g_crashAt.store(crashAt);
    kvcrash::setHook(crashHook);
    int appends = -1;
    try {
      if (outcome)
        client.commitBackup(name(), *outcome, userKey_, rng_);
      else
        EXPECT_TRUE(client.deleteBackup(name()));
      appends = g_appends.load();
    } catch (const kvcrash::CrashInjected&) {
    }
    kvcrash::setHook(nullptr);
    return appends;  // the poisoned store's destructor performs no I/O
  }

  /// The ciphertext fingerprints of the recipe stored for `backup`, sorted,
  /// or nullopt when it has none. The blob is the client's packing: a
  /// varint length, then the sealed file recipe, then the sealed keys.
  std::optional<std::vector<Fp>> recipeFps(BackupStore& store,
                                           const std::string& backup) {
    const auto blob = store.getBlob(recipeBlobName(backup));
    if (!blob) return std::nullopt;
    size_t at = 0;
    const auto len = getVarint(*blob, at);
    EXPECT_TRUE(len && *len <= blob->size() - at);
    const FileRecipe recipe = parseFileRecipe(openWithUserKey(
        userKey_, ByteView(*blob).subspan(at, static_cast<size_t>(*len))));
    std::vector<Fp> fps;
    for (const RecipeEntry& e : recipe.entries) fps.push_back(e.cipherFp);
    std::sort(fps.begin(), fps.end());
    return fps;
  }

  /// Reopens `dir` and checks the recovery contract.
  void expectRecovered(const std::string& dir) {
    const auto store = openStore(dir);
    const StoreCheckReport report = store->verify();
    EXPECT_TRUE(report.ok()) << report.errors.front();

    std::unordered_map<Fp, uint32_t, FpHash> manifestRefs;
    for (const std::string& backup : store->listBackups()) {
      const auto refs = store->backupRefs(backup);
      ASSERT_TRUE(refs.has_value()) << backup;
      for (const Fp fp : *refs) ++manifestRefs[fp];
    }
    for (const auto& [fp, n] : manifestRefs)
      EXPECT_EQ(store->chunkRefCount(fp), n) << fpToHex(fp);

    // Manifest and recipe survive together and name the same chunks.
    for (const std::string& backup : {name(), std::string("other")}) {
      SCOPED_TRACE("backup " + backup);
      auto manifest = store->backupRefs(backup);
      const auto recipe = recipeFps(*store, backup);
      ASSERT_EQ(manifest.has_value(), recipe.has_value());
      if (!manifest) continue;
      std::sort(manifest->begin(), manifest->end());
      EXPECT_EQ(*manifest, *recipe);
    }

    DedupClient client(*store, km_, chunker_);
    const bool blob = store->getBlob(recipeBlobName(name())).has_value();
    if (op_ == Op::kNewName) {
      if (blob)
        EXPECT_EQ(client.beginRestore(name(), userKey_).readAll(),
                  newContent_);
      EXPECT_EQ(client.beginRestore("obj", userKey_).readAll(), oldContent_);
    } else if (reCommit()) {
      ASSERT_TRUE(blob) << "a re-commit must leave the old or the new blob";
      const ByteVec restored = client.beginRestore(name(), userKey_).readAll();
      EXPECT_TRUE(restored == oldContent_ || restored == newContent_);
    } else if (blob) {
      EXPECT_EQ(client.beginRestore(name(), userKey_).readAll(), oldContent_);
    }
    EXPECT_EQ(client.beginRestore("other", userKey_).readAll(), otherContent_);
  }

  /// Crashes the operation at each of its appends in turn.
  void crashAtEveryAppend() {
    const std::string pristine = tmp_.path() + "/pristine";
    seed(pristine);
    // A dry run counts the operation's appends.
    int appends = 0;
    {
      const std::string dir = tmp_.path() + "/count";
      std::filesystem::copy(pristine, dir, kRecursive);
      uint64_t durableBytes = 0;
      appends = runOp(dir, 0, durableBytes);
      ASSERT_GE(appends, minAppends());
    }
    for (int k = 1; k <= appends; ++k) {
      SCOPED_TRACE("crash at append " + std::to_string(k) + " of " +
                   std::to_string(appends));
      const std::string left = tmp_.path() + "/left-" + std::to_string(k);
      std::filesystem::copy(pristine, left, kRecursive);
      uint64_t durableBytes = 0;
      ASSERT_EQ(runOp(left, k, durableBytes), -1) << "crash never fired";
      const std::string lost = tmp_.path() + "/lost-" + std::to_string(k);
      std::filesystem::copy(left, lost, kRecursive);
      std::filesystem::resize_file(indexPath(lost), durableBytes);
      {
        SCOPED_TRACE("files as the crash left them");
        expectRecovered(left);
      }
      {
        SCOPED_TRACE("after page-cache loss");
        expectRecovered(lost);
      }
      std::filesystem::remove_all(left);
      std::filesystem::remove_all(lost);
    }
  }

  /// Runs the operation whole, then cuts its log at every record boundary.
  void cutAtEveryLogPrefix() {
    const std::string whole = tmp_.path() + "/whole";
    seed(whole);
    uint64_t before = 0;
    ASSERT_GT(runOp(whole, 0, before), 0);
    // Walk the frames ([crc u32][len u32][payload]) the operation (and a
    // commit's backup) appended after the seeded prefix.
    const ByteVec log = readFile(indexPath(whole));
    std::vector<uint64_t> boundaries;
    for (uint64_t at = before; at < log.size();) {
      at += 8 + getU32(log, at + 4);
      ASSERT_LE(at, log.size());
      boundaries.push_back(at);
    }
    ASSERT_GE(boundaries.size(), static_cast<size_t>(minAppends()));
    boundaries.pop_back();  // the whole log is the committed state
    boundaries.insert(boundaries.begin(), before);
    for (const uint64_t cut : boundaries) {
      SCOPED_TRACE("log cut at byte " + std::to_string(cut));
      const std::string dir = tmp_.path() + "/cut";
      std::filesystem::copy(whole, dir, kRecursive);
      std::filesystem::resize_file(indexPath(dir), cut);
      expectRecovered(dir);
      std::filesystem::remove_all(dir);
    }
    expectRecovered(whole);
  }

  const Op op_;
  const TempDir tmp_;
  KeyManager km_{toBytes("commit-crash-secret")};
  CdcChunker chunker_{smallCdc()};
  AesKey userKey_{};
  Rng rng_{7};
  ByteVec oldContent_ = randomContent(41, 24 * 1024);
  ByteVec otherContent_ = randomContent(42, 12 * 1024);
  ByteVec extra_ = randomContent(43, 6 * 1024);
  ByteVec newContent_;
};

class CommitCrashTest : public StoreOpCrash,
                        public ::testing::WithParamInterface<bool> {
 protected:
  CommitCrashTest() : StoreOpCrash(GetParam() ? Op::kReCommit : Op::kNewName) {}
};

class DeleteCrashTest : public StoreOpCrash {
 protected:
  DeleteCrashTest() : StoreOpCrash(Op::kDelete) {}
};

TEST_P(CommitCrashTest, RefcountsEqualManifestsAfterCrashAtEveryAppend) {
  crashAtEveryAppend();
}

TEST_P(CommitCrashTest, RefcountsEqualManifestsAtEveryLogPrefix) {
  cutAtEveryLogPrefix();
}

TEST_F(DeleteCrashTest, RefcountsEqualManifestsAfterCrashAtEveryAppend) {
  crashAtEveryAppend();
}

TEST_F(DeleteCrashTest, RefcountsEqualManifestsAtEveryLogPrefix) {
  cutAtEveryLogPrefix();
}

INSTANTIATE_TEST_SUITE_P(Commit, CommitCrashTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "ReCommit" : "NewName";
                         });

}  // namespace
}  // namespace freqdedup
