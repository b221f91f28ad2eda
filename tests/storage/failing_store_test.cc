// Fault-injection restore tests: a mid-restore read error or bit-flip must
// surface as a clean exception with no partial-sink silent success — the
// sink observes a strict prefix of the object, never wrong or reordered
// bytes — at restore parallelism 1 (serial engine) and 4 (prefetch +
// parallel decrypt), and the session must stay usable afterwards. Faults
// are keyed to a recipe entry's ciphertext fingerprint, so where the restore
// fails does not depend on the order in which prefetch workers read. The
// FailingStoreFaults cases pin down the decorator's own fault targeting;
// FailingStoreCommit and FailingStoreForwarding cover the commit path.
#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <vector>

#include "chunking/cdc_chunker.h"
#include "client/dedup_client.h"
#include "common/rng.h"
#include "failing_store.h"
#include "storage/container_backup_store.h"
#include "storage/file_backup_store.h"

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

class FailingStoreRestore : public ::testing::TestWithParam<uint32_t> {
 protected:
  FailingStoreRestore()
      : store_(/*containerBytes=*/16 * 1024),
        failing_(store_),
        km_(toBytes("failing-secret")),
        chunker_(smallCdc()),
        content_(randomContent(31, 128 * 1024)) {}

  [[nodiscard]] uint32_t parallelism() const { return GetParam(); }

  [[nodiscard]] DedupClient makeClient() {
    BackupOptions backup;
    backup.parallelism = parallelism();
    RestoreOptions restore;
    restore.parallelism = parallelism();
    restore.readAheadBatches = 2;
    restore.batchBytes = 8 * 1024;  // several batches across containers
    restore.maxBatchContainers = 2;
    return DedupClient(failing_, km_, chunker_, backup, restore);
  }

  /// Collects sink output; asserts afterwards that it is a strict prefix.
  void expectStrictPrefix(const ByteVec& collected) const {
    ASSERT_LT(collected.size(), content_.size())
        << "a failed restore must not deliver the full object";
    EXPECT_TRUE(std::equal(collected.begin(), collected.end(),
                           content_.begin()))
        << "sink bytes must be a prefix of the object, in order";
  }

  MemBackupStore store_;
  FailingStore failing_;
  KeyManager km_;
  CdcChunker chunker_;
  ByteVec content_;
};

TEST_P(FailingStoreRestore, ReadErrorSurfacesCleanlyWithoutSilentSuccess) {
  DedupClient client = makeClient();
  BackupSession session = client.beginBackup("obj");
  session.append(content_);
  const BackupOutcome outcome = session.finish();

  RestoreSession restore =
      client.beginRestore(outcome.fileRecipe, outcome.keyRecipe);
  ASSERT_GT(restore.chunkCount(), 8u) << "need several chunks to fail midway";

  // Fail on the chunk in the middle of the object.
  const auto& entries = outcome.fileRecipe.entries;
  failing_.failReadOf(entries[restore.chunkCount() / 2].cipherFp);
  ByteVec collected;
  EXPECT_THROW(
      restore.streamTo([&](ByteView b) { appendBytes(collected, b); }),
      std::runtime_error);
  expectStrictPrefix(collected);

  // The engine must be clean afterwards: the same session restores fully.
  failing_.resetInjection();
  EXPECT_EQ(restore.readAll(), content_);
}

TEST_P(FailingStoreRestore, BitFlipSurfacesAsFingerprintMismatch) {
  DedupClient client = makeClient();
  BackupSession session = client.beginBackup("obj");
  session.append(content_);
  const BackupOutcome outcome = session.finish();

  RestoreSession restore =
      client.beginRestore(outcome.fileRecipe, outcome.keyRecipe);
  const auto& entries = outcome.fileRecipe.entries;
  failing_.corruptReadOf(entries[restore.chunkCount() / 2].cipherFp);

  ByteVec collected;
  try {
    restore.streamTo([&](ByteView b) { appendBytes(collected, b); });
    FAIL() << "a corrupted chunk must abort the restore";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"),
              std::string::npos)
        << e.what();
  }
  expectStrictPrefix(collected);

  failing_.resetInjection();
  EXPECT_EQ(restore.readAll(), content_);
}

TEST_P(FailingStoreRestore, FailureOnVeryFirstReadDeliversNothing) {
  DedupClient client = makeClient();
  BackupSession session = client.beginBackup("obj");
  session.append(content_);
  const BackupOutcome outcome = session.finish();

  RestoreSession restore =
      client.beginRestore(outcome.fileRecipe, outcome.keyRecipe);
  // Nothing can be emitted before the object's first chunk.
  failing_.failReadOf(outcome.fileRecipe.entries[0].cipherFp);
  ByteVec collected;
  EXPECT_THROW(
      restore.streamTo([&](ByteView b) { appendBytes(collected, b); }),
      std::runtime_error);
  EXPECT_TRUE(collected.empty());
}

INSTANTIATE_TEST_SUITE_P(Parallelism, FailingStoreRestore,
                         ::testing::Values(1u, 4u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return "p" + std::to_string(info.param);
                         });

// The decorator itself: faults hit exactly the armed fingerprint, on both
// read entry points, and resetInjection disarms them.
class FailingStoreFaults : public ::testing::Test {
 protected:
  FailingStoreFaults() : failing_(store_) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      chunks_.push_back(randomContent(seed, 512));
      fps_.push_back(fpOfContent(chunks_.back()));
      store_.putChunk(fps_.back(), chunks_.back());
    }
    store_.flush();
  }

  MemBackupStore store_;
  FailingStore failing_;
  std::vector<ByteVec> chunks_;
  std::vector<Fp> fps_;
};

TEST_F(FailingStoreFaults, FailReadOfTargetsOnlyThatFingerprint) {
  failing_.failReadOf(fps_[1]);
  EXPECT_EQ(failing_.getChunk(fps_[0]), chunks_[0]);
  EXPECT_EQ(failing_.getChunk(fps_[2]), chunks_[2]);
  EXPECT_THROW((void)failing_.getChunk(fps_[1]), std::runtime_error);
  // Every read of the target fails, not just the first.
  EXPECT_THROW((void)failing_.getChunk(fps_[1]), std::runtime_error);
  EXPECT_THROW((void)failing_.getChunks(fps_), std::runtime_error);
  const std::vector<Fp> others = {fps_[2], fps_[0]};
  const std::vector<ByteVec> batch = failing_.getChunks(others);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], chunks_[2]);
  EXPECT_EQ(batch[1], chunks_[0]);
}

TEST_F(FailingStoreFaults, CorruptReadOfFlipsOneBitOfThatChunkOnly) {
  failing_.corruptReadOf(fps_[2]);
  const std::vector<ByteVec> batch = failing_.getChunks(fps_);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0], chunks_[0]);
  EXPECT_EQ(batch[1], chunks_[1]);
  const ByteVec single = failing_.getChunk(fps_[2]);
  for (const ByteVec& corrupted : {batch[2], single}) {
    ASSERT_EQ(corrupted.size(), chunks_[2].size());
    size_t flippedBits = 0;
    for (size_t i = 0; i < corrupted.size(); ++i)
      flippedBits += static_cast<size_t>(
          std::popcount(static_cast<uint8_t>(corrupted[i] ^ chunks_[2][i])));
    EXPECT_EQ(flippedBits, 1u);
  }
  // The stored bytes themselves are untouched.
  EXPECT_EQ(store_.getChunk(fps_[2]), chunks_[2]);
}

TEST_F(FailingStoreFaults, ResetInjectionDisarmsEveryFault) {
  failing_.failReadOf(fps_[0]);
  failing_.corruptReadOf(fps_[1]);
  failing_.delayReads(std::chrono::milliseconds(1));
  failing_.resetInjection();
  const std::vector<ByteVec> batch = failing_.getChunks(fps_);
  ASSERT_EQ(batch.size(), 3u);
  for (size_t i = 0; i < batch.size(); ++i) EXPECT_EQ(batch[i], chunks_[i]);
  EXPECT_EQ(failing_.getChunk(fps_[0]), chunks_[0]);
  EXPECT_EQ(failing_.getChunk(fps_[1]), chunks_[1]);
}

// A failed metadata group sync surfaces on both commit entry points:
// commitBackup throws, commitBackupAsync hands ok == false to its callback.
class FailingStoreCommit : public ::testing::Test {
 protected:
  FailingStoreCommit()
      : failing_(store_),
        km_(toBytes("commit-secret")),
        chunker_(smallCdc()),
        client_(failing_, km_, chunker_) {
    BackupSession session = client_.beginBackup("doc");
    session.append(randomContent(51, 32 * 1024));
    outcome_ = session.finish();
  }

  MemBackupStore store_;
  FailingStore failing_;
  KeyManager km_;
  CdcChunker chunker_;
  DedupClient client_;
  BackupOutcome outcome_;
  const AesKey userKey_ = userKeyFromPassphrase("commit");
  Rng rng_{9};
};

TEST_F(FailingStoreCommit, CommitBackupThrowsWhenTheSyncFails) {
  failing_.failMetadataSync();
  EXPECT_THROW(client_.commitBackup("doc", outcome_, userKey_, rng_),
               std::runtime_error);
  // Without the fault the same commit succeeds.
  failing_.resetInjection();
  client_.commitBackup("doc", outcome_, userKey_, rng_);
  EXPECT_EQ(client_.listBackups(), std::vector<std::string>{"doc"});
}

TEST_F(FailingStoreCommit, CommitBackupAsyncReportsTheFailedSync) {
  failing_.failMetadataSync();
  std::vector<bool> reported;
  client_.commitBackupAsync("doc", outcome_, userKey_, rng_,
                            [&reported](bool ok) { reported.push_back(ok); });
  EXPECT_EQ(reported, std::vector<bool>{false});
  failing_.resetInjection();
  client_.commitBackupAsync("doc", outcome_, userKey_, rng_,
                            [&reported](bool ok) { reported.push_back(ok); });
  EXPECT_EQ(reported, (std::vector<bool>{false, true}));
}

// The decorator forwards the deferred commit and its group sync, so a commit
// through it is durable when commitBackup returns: a copy of the inner
// store's directory, taken while it is still open, restores the object.
TEST(FailingStoreForwarding, CommitThroughTheDecoratorIsDurable) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "failing_store_commit")
          .string();
  const std::string copy = dir + "_copy";
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(copy);
  const ByteVec content = randomContent(52, 48 * 1024);
  const AesKey userKey = userKeyFromPassphrase("forward");
  {
    FileBackupStore inner(dir);
    FailingStore failing(inner);
    KeyManager km(toBytes("forward-secret"));
    CdcChunker chunker(smallCdc());
    DedupClient client(failing, km, chunker);
    BackupSession session = client.beginBackup("doc");
    session.append(content);
    Rng rng(10);
    client.commitBackup("doc", session.finish(), userKey, rng);
    std::filesystem::copy(dir, copy, std::filesystem::copy_options::recursive);
  }
  {
    FileBackupStore copied(copy);
    DedupClient reader(copied);
    EXPECT_EQ(reader.beginRestore("doc", userKey).readAll(), content);
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(copy);
}

}  // namespace
}  // namespace freqdedup
