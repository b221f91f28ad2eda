// DedupClient session lifecycle: large objects in bounded memory, concurrent
// sessions sharing one store, commit/restore/delete through the client,
// restore-only clients, durability of commitBackup on return, and
// construction-time validation.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <filesystem>
#include <thread>

#include "chunking/cdc_chunker.h"
#include "client/dedup_client.h"
#include "common/hash.h"
#include "common/rng.h"
#include "legacy_backup_reference.h"
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

BackupOptions smallSegmentOptions(EncryptionScheme scheme,
                                  uint32_t parallelism = 1) {
  BackupOptions o;
  o.scheme = scheme;
  o.parallelism = parallelism;
  o.segmentParams.minBytes = 8 * 1024;
  o.segmentParams.avgBytes = 16 * 1024;
  o.segmentParams.maxBytes = 32 * 1024;
  o.segmentParams.avgChunkBytes = 1024;
  return o;
}

// The acceptance-criteria test: a >= 64 MiB object flows through a backup
// session in 1 MiB appends and back out through a restore session's sink —
// the full object never exists in client memory on either path (the test
// itself only ever holds one 1 MiB generation block; the session buffers at
// most one segment plus the encrypt window).
TEST(DedupClientLarge, SixtyFourMiBObjectStreamsThroughSessions) {
  constexpr size_t kBlock = 1 << 20;
  constexpr size_t kBlocks = 64;

  MemBackupStore store;
  KeyManager km(toBytes("large-secret"));
  CdcChunker chunker;  // default 8 KiB average chunks
  BackupOptions options;
  options.scheme = EncryptionScheme::kMinHashScrambled;  // hardest path
  options.parallelism = 2;
  DedupClient client(store, km, chunker, options);

  // Deterministic per-block generator, so backup and verify can regenerate
  // the stream independently without materializing it.
  const auto makeBlock = [](size_t index) {
    Rng rng(1000 + index);
    ByteVec block(kBlock);
    for (auto& b : block) b = static_cast<uint8_t>(rng.next());
    return block;
  };

  Sha256Stream appended;
  BackupSession session = client.beginBackup("large.img");
  for (size_t i = 0; i < kBlocks; ++i) {
    const ByteVec block = makeBlock(i % 48);  // some cross-block duplication
    appended.update(block);
    session.append(block);
  }
  const Digest wroteDigest = appended.finish();
  const BackupOutcome outcome = session.finish();
  EXPECT_EQ(outcome.fileRecipe.fileSize, kBlock * kBlocks);
  EXPECT_GT(outcome.duplicateChunks, 0u) << "repeated blocks must dedup";

  RestoreSession restore =
      client.beginRestore(outcome.fileRecipe, outcome.keyRecipe);
  Sha256Stream restored;
  uint64_t bytes =
      restore.streamTo([&restored](ByteView b) { restored.update(b); });
  EXPECT_EQ(bytes, kBlock * kBlocks);
  EXPECT_EQ(restored.finish(), wroteDigest);
}

// >= 2 concurrent sessions sharing one store: every session's recipes must
// equal the legacy one-shot recipes for its object (per-session determinism
// is unaffected by concurrency), and every object must restore bit-exactly
// from the shared store.
TEST(DedupClient, ConcurrentSessionsShareOneStore) {
  constexpr size_t kSessions = 4;
  constexpr size_t kObjectBytes = 192 * 1024;

  KeyManager km(toBytes("concurrent-secret"));
  CdcChunker chunker(smallCdc());
  const BackupOptions options =
      smallSegmentOptions(EncryptionScheme::kMinHashScrambled,
                          /*parallelism=*/2);

  // Oracle recipes from the frozen one-shot path, one isolated store each.
  std::vector<ByteVec> contents;
  std::vector<BackupOutcome> expected;
  for (size_t i = 0; i < kSessions; ++i) {
    contents.push_back(randomContent(500 + i, kObjectBytes));
    MemBackupStore oracle;
    expected.push_back(legacy::oneShotBackup(
        oracle, km, chunker, options, "obj" + std::to_string(i),
        contents.back()));
  }

  MemBackupStore store;
  DedupClient client(store, km, chunker, options);
  std::vector<BackupOutcome> outcomes(kSessions);
  std::barrier sync(kSessions);  // force the sessions to overlap
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      BackupSession session = client.beginBackup("obj" + std::to_string(i));
      sync.arrive_and_wait();
      constexpr size_t kStep = 8 * 1024;
      const ByteVec& content = contents[i];
      for (size_t off = 0; off < content.size(); off += kStep)
        session.append(ByteView(content.data() + off,
                                std::min(kStep, content.size() - off)));
      outcomes[i] = session.finish();
    });
  }
  for (auto& t : threads) t.join();

  for (size_t i = 0; i < kSessions; ++i) {
    EXPECT_EQ(outcomes[i].fileRecipe, expected[i].fileRecipe) << i;
    EXPECT_EQ(outcomes[i].keyRecipe, expected[i].keyRecipe) << i;
    EXPECT_EQ(client.beginRestore(outcomes[i].fileRecipe,
                                  outcomes[i].keyRecipe)
                  .readAll(),
              contents[i])
        << i;
  }
  EXPECT_TRUE(store.verify().ok());
}

TEST(DedupClient, CommitRestoreDeleteLifecycle) {
  MemBackupStore store;
  KeyManager km(toBytes("lifecycle-secret"));
  CdcChunker chunker(smallCdc());
  DedupClient client(store, km, chunker,
                     smallSegmentOptions(EncryptionScheme::kMinHash));

  const AesKey userKey = userKeyFromPassphrase("hunter2");
  Rng rng(3);
  const ByteVec content = randomContent(9, 120 * 1024);

  BackupSession session = client.beginBackup("doc");
  session.append(content);
  const BackupOutcome outcome = session.finish();
  client.commitBackup("doc", outcome, userKey, rng);
  EXPECT_EQ(client.listBackups(), std::vector<std::string>{"doc"});

  // A restore-only client (no chunker / key manager) can read it back.
  DedupClient reader(store);
  RestoreSession restore = reader.beginRestore("doc", userKey);
  EXPECT_EQ(restore.objectName(), "doc");
  EXPECT_EQ(restore.size(), content.size());
  EXPECT_EQ(restore.readAll(), content);

  EXPECT_TRUE(client.deleteBackup("doc"));
  EXPECT_FALSE(client.deleteBackup("doc"));
  EXPECT_THROW((void)reader.beginRestore("doc", userKey), std::runtime_error);
}

// commitBackup is durable when it returns. The store directory is copied
// while the store is still open — what a process crash leaves on disk — and
// the copy must restore the committed bytes, for a new name and for a
// re-commit of an existing one.
class DedupClientDurability : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    const auto tmp = std::filesystem::temp_directory_path();
    dir_ = (tmp / ("dedup_client_durability_" + test)).string();
    copy_ = dir_ + "_copy";
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(copy_);
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(copy_);
  }

  void backupAndCommit(DedupClient& client, const std::string& name,
                       const ByteVec& content) {
    BackupSession session = client.beginBackup(name);
    session.append(content);
    client.commitBackup(name, session.finish(), userKey_, rng_);
  }

  /// Copies the (still open) store directory and restores `name` from the
  /// copy.
  ByteVec restoreFromCopy(const std::string& name) {
    std::filesystem::copy(dir_, copy_,
                          std::filesystem::copy_options::recursive);
    FileBackupStore copied(copy_);
    DedupClient reader(copied);
    EXPECT_EQ(reader.listBackups(), std::vector<std::string>{name});
    return reader.beginRestore(name, userKey_).readAll();
  }

  std::string dir_;
  std::string copy_;
  KeyManager km_{toBytes("durability-secret")};
  CdcChunker chunker_{smallCdc()};
  const AesKey userKey_ = userKeyFromPassphrase("durable");
  Rng rng_{5};
};

TEST_F(DedupClientDurability, NewNameIsDurableWhenCommitReturns) {
  FileBackupStore store(dir_);
  DedupClient client(store, km_, chunker_);
  const ByteVec content = randomContent(41, 96 * 1024);
  backupAndCommit(client, "doc", content);
  EXPECT_EQ(restoreFromCopy("doc"), content);
}

TEST_F(DedupClientDurability, RecommitIsDurableWhenCommitReturns) {
  FileBackupStore store(dir_);
  DedupClient client(store, km_, chunker_);
  backupAndCommit(client, "doc", randomContent(42, 96 * 1024));
  const ByteVec content = randomContent(43, 80 * 1024);
  backupAndCommit(client, "doc", content);
  EXPECT_EQ(restoreFromCopy("doc"), content);
}

TEST(DedupClient, EmptyObjectRoundTrips) {
  MemBackupStore store;
  KeyManager km(toBytes("empty-secret"));
  CdcChunker chunker(smallCdc());
  DedupClient client(store, km, chunker, {});

  BackupSession session = client.beginBackup("empty");
  const BackupOutcome outcome = session.finish();
  EXPECT_EQ(outcome.chunkCount, 0u);
  EXPECT_EQ(outcome.fileRecipe.fileSize, 0u);
  EXPECT_TRUE(client.beginRestore(outcome.fileRecipe, outcome.keyRecipe)
                  .readAll()
                  .empty());
}

TEST(DedupClient, ValidatesOptionsAtConstruction) {
  MemBackupStore store;
  KeyManager km(toBytes("validate-secret"));
  CdcChunker chunker(smallCdc());

  BackupOptions zeroParallelism;
  zeroParallelism.parallelism = 0;
  EXPECT_THROW(DedupClient(store, km, chunker, zeroParallelism),
               std::invalid_argument);

  BackupOptions badSegments;
  badSegments.segmentParams.minBytes = 0;
  EXPECT_THROW(DedupClient(store, km, chunker, badSegments),
               std::invalid_argument);

  BackupOptions inverted;
  inverted.segmentParams.minBytes = inverted.segmentParams.maxBytes * 2;
  EXPECT_THROW(DedupClient(store, km, chunker, inverted),
               std::invalid_argument);
}

TEST(DedupClient, SessionMisuseIsRejected) {
  MemBackupStore store;
  KeyManager km(toBytes("misuse-secret"));
  CdcChunker chunker(smallCdc());
  DedupClient client(store, km, chunker, {});

  BackupSession session = client.beginBackup("x");
  session.append(toBytes("hello"));
  (void)session.finish();
  EXPECT_THROW(session.append(toBytes("more")), std::logic_error);
  EXPECT_THROW((void)session.finish(), std::logic_error);

  // Backup on a restore-only client is a contract violation.
  DedupClient reader(store);
  EXPECT_THROW((void)reader.beginBackup("y"), std::logic_error);

  // Mismatched recipes are rejected up front.
  FileRecipe file;
  file.entries.push_back({1, 1, 0});
  KeyRecipe keys;  // empty: disagrees with the file recipe
  EXPECT_THROW((void)client.beginRestore(std::move(file), std::move(keys)),
               std::invalid_argument);
}

}  // namespace
}  // namespace freqdedup
