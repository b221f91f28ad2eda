// Crash coverage of DedupClient::commitBackup over a FileBackupStore: after
// a crash anywhere inside a commit, a reopened store's chunk refcounts equal
// the occurrence sums of the manifests that survived, and the recipe blob
// that survived restores bit-identically.
//
// Two crash models, each for a new name and for a re-commit of an existing
// name (widen, blob swap, shrink):
//   - Crash at every wal.append of the commit (the kvcrash hook), then
//     reopen once on the files as the crash left them and once after page-
//     cache loss (the WAL cut back to its last fdatasynced byte, as
//     logkv_crash_test does).
//   - Every log prefix: the commit runs to completion, and the WAL is then
//     cut at each record boundary the commit wrote: what a power loss leaves
//     when only part of the commit's group write reached the disk.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "chunking/cdc_chunker.h"
#include "client/dedup_client.h"
#include "common/rng.h"
#include "kvstore/crash_point.h"
#include "storage/file_backup_store.h"
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

class CommitCrashTest : public ::testing::TestWithParam<bool> {
 protected:
  CommitCrashTest() {
    userKey_.fill(0x3C);
    // The re-committed object keeps most of the old one's chunks and adds
    // some of its own, so the widen, the shrink and the seal all have work.
    newContent_ = oldContent_;
    for (size_t i = 8'000; i < 12'000; ++i) newContent_[i] ^= 0x5A;
    newContent_.insert(newContent_.end(), extra_.begin(), extra_.end());
  }
  void TearDown() override { kvcrash::setHook(nullptr); }

  [[nodiscard]] bool reCommit() const { return GetParam(); }
  [[nodiscard]] std::string name() const {
    return reCommit() ? "obj" : "fresh";
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

  /// Opens the seeded store, backs up the new content as name() and runs
  /// its commit with the crash hook armed at append `crashAt` (0: never).
  /// Returns the commit's wal.append count, or -1 if the crash fired. The
  /// index log's size before the backup started, which is its durable
  /// prefix, lands in `durableBytes`.
  int runCommit(const std::string& dir, int crashAt, uint64_t& durableBytes) {
    const auto store = openStore(dir);
    durableBytes = std::filesystem::file_size(indexPath(dir));
    DedupClient client(*store, km_, chunker_);
    BackupSession session = client.beginBackup(name());
    session.append(newContent_);
    const BackupOutcome outcome = session.finish();
    g_appends.store(0);
    g_crashAt.store(crashAt);
    kvcrash::setHook(crashHook);
    int appends = -1;
    try {
      client.commitBackup(name(), outcome, userKey_, rng_);
      appends = g_appends.load();
    } catch (const kvcrash::CrashInjected&) {
    }
    kvcrash::setHook(nullptr);
    return appends;  // the poisoned store's destructor performs no I/O
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

    DedupClient client(*store, km_, chunker_);
    const bool blob =
        store->getBlob(DedupClient::recipeBlobName(name())).has_value();
    if (reCommit()) {
      ASSERT_TRUE(blob) << "a re-commit must leave the old or the new blob";
      const ByteVec restored = client.beginRestore(name(), userKey_).readAll();
      EXPECT_TRUE(restored == oldContent_ || restored == newContent_);
    } else if (blob) {
      EXPECT_EQ(client.beginRestore(name(), userKey_).readAll(), newContent_);
    }
    if (!reCommit())
      EXPECT_EQ(client.beginRestore("obj", userKey_).readAll(), oldContent_);
    EXPECT_EQ(client.beginRestore("other", userKey_).readAll(), otherContent_);
  }

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

TEST_P(CommitCrashTest, RefcountsEqualManifestsAfterCrashAtEveryAppend) {
  const std::string pristine = tmp_.path() + "/pristine";
  seed(pristine);
  // A dry run counts the commit's appends.
  int appends = 0;
  {
    const std::string dir = tmp_.path() + "/count";
    std::filesystem::copy(pristine, dir, kRecursive);
    uint64_t durableBytes = 0;
    appends = runCommit(dir, 0, durableBytes);
    ASSERT_GE(appends, reCommit() ? 3 : 2);
  }
  for (int k = 1; k <= appends; ++k) {
    SCOPED_TRACE("crash at append " + std::to_string(k) + " of " +
                 std::to_string(appends));
    const std::string left = tmp_.path() + "/left-" + std::to_string(k);
    std::filesystem::copy(pristine, left, kRecursive);
    uint64_t durableBytes = 0;
    ASSERT_EQ(runCommit(left, k, durableBytes), -1) << "crash never fired";
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

TEST_P(CommitCrashTest, RefcountsEqualManifestsAtEveryLogPrefix) {
  const std::string whole = tmp_.path() + "/whole";
  seed(whole);
  uint64_t before = 0;
  ASSERT_GT(runCommit(whole, 0, before), 0);
  // Walk the frames ([crc u32][len u32][payload]) the backup and its
  // commit appended after the seeded prefix.
  const ByteVec log = readFile(indexPath(whole));
  std::vector<uint64_t> boundaries;
  for (uint64_t at = before; at < log.size();) {
    at += 8 + getU32(log, at + 4);
    ASSERT_LE(at, log.size());
    boundaries.push_back(at);
  }
  ASSERT_GE(boundaries.size(), reCommit() ? 3u : 2u);
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

INSTANTIATE_TEST_SUITE_P(Commit, CommitCrashTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "ReCommit" : "NewName";
                         });

}  // namespace
}  // namespace freqdedup
