// DedupClient session lifecycle: large objects in bounded memory, concurrent
// sessions sharing one store, commit/restore/delete through the client,
// restore-only clients, durability of commitBackup on return,
// construction-time validation, and the seal memo (stale entries after GC,
// MinHash segment-key changes, a repeat inside one segment, concurrent
// sessions, more chunks than it holds).
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "chunking/cdc_chunker.h"
#include "chunking/fixed_chunker.h"
#include "client/dedup_client.h"
#include "common/hash.h"
#include "common/rng.h"
#include "legacy_backup_reference.h"
#include "obs/metrics.h"
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

BackupOptions smallSegmentOptions(EncryptionScheme scheme) {
  BackupOptions o;
  o.scheme = scheme;
  o.segmentParams.minBytes = 8 * 1024;
  o.segmentParams.avgBytes = 16 * 1024;
  o.segmentParams.maxBytes = 32 * 1024;
  o.segmentParams.avgChunkBytes = 1024;
  return o;
}

/// Backs `content` up as `name` in 8 KiB appends; returns the outcome.
BackupOutcome backupObject(DedupClient& client, const std::string& name,
                           const ByteVec& content) {
  BackupSession session = client.beginBackup(name);
  constexpr size_t kStep = 8 * 1024;
  for (size_t off = 0; off < content.size(); off += kStep)
    session.append(ByteView(content.data() + off,
                            std::min(kStep, content.size() - off)));
  return session.finish();
}

/// backup.seal_memo_hits counted since `before`.
uint64_t sealMemoHitsSince(const obs::MetricsSnapshot& before) {
  return obs::MetricsRegistry::global().snapshot().delta(before).counter(
      "backup.seal_memo_hits");
}

// The acceptance-criteria test: a >= 64 MiB object flows through a backup
// session in 1 MiB appends and back out through a restore session's sink —
// the full object never exists in client memory on either path (the test
// itself only ever holds one 1 MiB generation block; the session buffers at
// most one segment of plaintext and one ciphertext).
TEST(DedupClientLarge, SixtyFourMiBObjectStreamsThroughSessions) {
  constexpr size_t kBlock = 1 << 20;
  constexpr size_t kBlocks = 64;

  TempStore store;
  KeyManager km(toBytes("large-secret"));
  CdcChunker chunker;  // default 8 KiB average chunks
  BackupOptions options;
  options.scheme = EncryptionScheme::kMinHashScrambled;  // hardest path
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
      smallSegmentOptions(EncryptionScheme::kMinHashScrambled);

  // Oracle recipes from the frozen one-shot path, one isolated store each.
  std::vector<ByteVec> contents;
  std::vector<BackupOutcome> expected;
  for (size_t i = 0; i < kSessions; ++i) {
    contents.push_back(randomContent(500 + i, kObjectBytes));
    TempStore oracle;
    expected.push_back(legacy::oneShotBackup(
        oracle, km, chunker, options, "obj" + std::to_string(i),
        contents.back()));
  }

  TempStore store;
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
  TempStore store;
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

  const TempDir tmp_;
  const std::string dir_ = tmp_.path() + "/store";
  const std::string copy_ = tmp_.path() + "/copy";
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

// Every store written so far holds chunks keyed by this secret: a new value
// would make fresh backups store every chunk again instead of deduplicating.
TEST(DedupClient, KeyManagerSecretIsTheOneEveryStoreWasWrittenWith) {
  EXPECT_EQ(kKeyManagerSecret, "backup-system-global-secret");
}

TEST(DedupClient, EmptyObjectRoundTrips) {
  TempStore store;
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
  TempStore store;
  KeyManager km(toBytes("validate-secret"));
  CdcChunker chunker(smallCdc());

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
  TempStore store;
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

// A memo entry outlives its chunk when the only backup using the chunk is
// deleted and collected. Backing the object up again on the same client must
// store every chunk anew (the store, not the memo, decides), with the same
// recipes, and leave a store that restores the object and verifies clean.
TEST(DedupClientSealMemo, StaleEntryAfterDeleteAndGcStoresTheChunksAgain) {
  TempStore store;
  KeyManager km(toBytes("stale-secret"));
  CdcChunker chunker(smallCdc());
  DedupClient client(store, km, chunker);
  const AesKey userKey = userKeyFromPassphrase("stale");
  Rng rng(11);
  const ByteVec content = randomContent(601, 96 * 1024);

  const BackupOutcome first = backupObject(client, "x", content);
  ASSERT_GT(first.newChunks, 0u);
  client.commitBackup("x", first, userKey, rng);
  ASSERT_TRUE(client.deleteBackup("x"));
  EXPECT_EQ(store.collectGarbage().chunksReclaimed, first.newChunks);
  for (const RecipeEntry& e : first.fileRecipe.entries)
    ASSERT_FALSE(store.hasChunk(e.cipherFp));

  const obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
  const BackupOutcome second = backupObject(client, "x", content);
  EXPECT_EQ(second.newChunks, first.newChunks);
  EXPECT_EQ(second.newChunkFps, first.newChunkFps);
  EXPECT_EQ(second.fileRecipe, first.fileRecipe);
  EXPECT_EQ(second.keyRecipe, first.keyRecipe);
  EXPECT_EQ(sealMemoHitsSince(before), 0u);
  for (const RecipeEntry& e : second.fileRecipe.entries)
    EXPECT_TRUE(store.hasChunk(e.cipherFp));

  client.commitBackup("x", second, userKey, rng);
  EXPECT_EQ(client.beginRestore("x", userKey).readAll(), content);
  const StoreCheckReport report = store.verify();
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
}

// MinHash chunks seen before under another segment key must miss the memo:
// an object whose shared chunks fall into differently keyed segments gets
// exactly the recipes a fresh client computes, and only chunks whose segment
// key matches the memo's count as hits.
TEST(DedupClientSealMemo, MinHashSegmentKeyChangeMissesTheMemo) {
  KeyManager km(toBytes("segment-secret"));
  CdcChunker chunker(smallCdc());
  const BackupOptions options = smallSegmentOptions(EncryptionScheme::kMinHash);
  const ByteVec shared = randomContent(611, 96 * 1024);
  ByteVec shifted = randomContent(612, 20 * 1024);
  shifted.insert(shifted.end(), shared.begin(), shared.end());

  TempStore store;
  DedupClient client(store, km, chunker, options);
  const BackupOutcome a = backupObject(client, "a", shared);
  const obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
  const BackupOutcome b = backupObject(client, "b", shifted);
  const uint64_t hits = sealMemoHitsSince(before);

  TempStore freshStore;
  DedupClient fresh(freshStore, km, chunker, options);
  const BackupOutcome expected = backupObject(fresh, "b", shifted);
  EXPECT_EQ(b.fileRecipe, expected.fileRecipe);
  EXPECT_EQ(b.keyRecipe, expected.keyRecipe);

  // The case under test occurs: some chunk of b is a chunk of a sealed
  // under another segment key.
  std::unordered_map<Fp, AesKey, FpHash> keyInA;
  for (size_t i = 0; i < a.fileRecipe.entries.size(); ++i)
    keyInA[a.fileRecipe.entries[i].plainFp] = a.keyRecipe.keys[i];
  size_t rekeyed = 0;
  size_t sameKey = 0;
  for (size_t i = 0; i < b.fileRecipe.entries.size(); ++i) {
    const auto it = keyInA.find(b.fileRecipe.entries[i].plainFp);
    if (it == keyInA.end()) continue;
    ++(it->second == b.keyRecipe.keys[i] ? sameKey : rekeyed);
  }
  EXPECT_GT(rekeyed, 0u);
  EXPECT_EQ(hits, sameKey);
}

// The loop seals, stores and remembers each chunk before it reaches the
// next, so a chunk that repeats inside one MinHash segment is served from
// the memo on its second occurrence even on a fresh client. Recipes stay
// those of the one-shot reference and the object restores byte-identically.
TEST(DedupClientSealMemo, RepeatInsideOneSegmentHitsTheMemo) {
  KeyManager km(toBytes("one-segment-secret"));
  FixedChunker chunker(1024);
  const BackupOptions options =
      smallSegmentOptions(EncryptionScheme::kMinHashScrambled);
  // Chunks 0 and 1 are equal; a segment holds at least 8 chunks.
  const ByteVec repeated = randomContent(641, 1024);
  ByteVec content = repeated;
  content.insert(content.end(), repeated.begin(), repeated.end());
  const ByteVec rest = randomContent(642, 62 * 1024);
  content.insert(content.end(), rest.begin(), rest.end());

  TempStore store;
  DedupClient client(store, km, chunker, options);
  const obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
  const BackupOutcome outcome = backupObject(client, "obj", content);
  const uint64_t hits = sealMemoHitsSince(before);

  ASSERT_GE(outcome.fileRecipe.entries.size(), 2u);
  EXPECT_EQ(outcome.keyRecipe.keys[0], outcome.keyRecipe.keys[1])
      << "both copies must fall into the first segment";
  EXPECT_EQ(outcome.fileRecipe.entries[0], outcome.fileRecipe.entries[1]);
  EXPECT_EQ(outcome.duplicateChunks, 1u);
  EXPECT_EQ(hits, 1u);

  TempStore oracle;
  const BackupOutcome expected =
      legacy::oneShotBackup(oracle, km, chunker, options, "obj", content);
  EXPECT_EQ(outcome.fileRecipe, expected.fileRecipe);
  EXPECT_EQ(outcome.keyRecipe, expected.keyRecipe);
  EXPECT_EQ(outcome.newChunks, expected.newChunks);
  EXPECT_EQ(outcome.duplicateChunks, expected.duplicateChunks);
  EXPECT_EQ(client.beginRestore(outcome.fileRecipe, outcome.keyRecipe).readAll(),
            content);
}

// Four sessions of one client back the same object up at once, so each
// chunk is looked up, sealed and stored by sessions racing one another. Each
// session's recipes must equal a serial run on a fresh client, the store
// must hold each chunk once, and every copy must restore.
TEST(DedupClientSealMemo, ConcurrentSessionsOfOneObjectMatchASerialRun) {
  constexpr size_t kSessions = 4;
  KeyManager km(toBytes("same-object-secret"));
  CdcChunker chunker(smallCdc());
  // Repeated blocks, so chunks also recur within each session.
  const ByteVec block = randomContent(621, 48 * 1024);
  ByteVec content = randomContent(622, 16 * 1024);
  for (int i = 0; i < 3; ++i)
    content.insert(content.end(), block.begin(), block.end());

  for (const BackupOptions& options :
       {smallSegmentOptions(EncryptionScheme::kMle),
        smallSegmentOptions(EncryptionScheme::kMinHashScrambled)}) {
    TempStore serialStore;
    DedupClient serial(serialStore, km, chunker, options);
    const BackupOutcome expected = backupObject(serial, "obj", content);

    TempStore store;
    DedupClient client(store, km, chunker, options);
    std::vector<BackupOutcome> outcomes(kSessions);
    std::barrier sync(kSessions);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kSessions; ++i) {
      threads.emplace_back([&, i] {
        sync.arrive_and_wait();
        outcomes[i] = backupObject(client, "obj" + std::to_string(i), content);
      });
    }
    for (auto& t : threads) t.join();

    size_t stored = 0;
    for (size_t i = 0; i < kSessions; ++i) {
      EXPECT_EQ(outcomes[i].fileRecipe.entries, expected.fileRecipe.entries)
          << i;
      EXPECT_EQ(outcomes[i].keyRecipe, expected.keyRecipe) << i;
      EXPECT_EQ(client.beginRestore(outcomes[i].fileRecipe,
                                    outcomes[i].keyRecipe)
                    .readAll(),
                content)
          << i;
      stored += outcomes[i].newChunks;
    }
    EXPECT_EQ(stored, expected.newChunks);
    EXPECT_EQ(store.stats().uniqueChunks, serialStore.stats().uniqueChunks);
    EXPECT_TRUE(store.verify().ok());
  }
}

// More distinct chunks than the memo holds: entries are evicted, evicted
// chunks are sealed again, and everything still restores. The most recently
// sealed chunks are still remembered.
TEST(DedupClientSealMemo, MoreChunksThanTheMemoHoldsStillRestore) {
  constexpr uint32_t kChunkBytes = 64;
  constexpr size_t kChunks = DedupClient::kSealMemoEntries + 4096;
  constexpr size_t kTailChunks = 1000;
  TempStore store;
  KeyManager km(toBytes("capacity-secret"));
  FixedChunker chunker(kChunkBytes);
  DedupClient client(store, km, chunker);
  const ByteVec content = randomContent(631, kChunks * kChunkBytes);
  const ByteVec tail(content.end() - kTailChunks * kChunkBytes, content.end());

  const BackupOutcome first = backupObject(client, "first", content);
  ASSERT_EQ(first.chunkCount, kChunks);
  EXPECT_EQ(first.newChunks, kChunks);
  const BackupOutcome again = backupObject(client, "again", content);
  EXPECT_EQ(again.newChunks, 0u);
  EXPECT_EQ(again.fileRecipe.entries, first.fileRecipe.entries);
  EXPECT_EQ(again.keyRecipe, first.keyRecipe);

  const obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
  const BackupOutcome recent = backupObject(client, "tail", tail);
  EXPECT_EQ(recent.newChunks, 0u);
  EXPECT_EQ(sealMemoHitsSince(before), kTailChunks);

  // `again` has the recipes of `first`, so restoring it covers both.
  EXPECT_EQ(client.beginRestore(again.fileRecipe, again.keyRecipe).readAll(),
            content);
  EXPECT_EQ(client.beginRestore(recent.fileRecipe, recent.keyRecipe).readAll(),
            tail);
  EXPECT_TRUE(store.verify().ok());
}

}  // namespace
}  // namespace freqdedup
