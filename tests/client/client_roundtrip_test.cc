// Whole-object round trips through DedupClient: backup -> restore across
// every EncryptionScheme, commit/restore by name with sealed recipes,
// tamper detection (substituted ciphertext, wrong key), delete + GC safety,
// pooled-vs-serial client bit-identity for single objects and whole backup
// chains, tiny objects, the per-chunk MLE keys and MinHash's per-segment
// keys (Algorithm 4).
#include "client/dedup_client.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "chunking/cdc_chunker.h"
#include "chunking/fixed_chunker.h"
#include "common/rng.h"
#include "crypto/mle.h"
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

BackupOptions minhashOptions(EncryptionScheme scheme) {
  BackupOptions options;
  options.scheme = scheme;
  options.segmentParams.minBytes = 8 * 1024;
  options.segmentParams.avgBytes = 16 * 1024;
  options.segmentParams.maxBytes = 32 * 1024;
  options.segmentParams.avgChunkBytes = 1024;
  return options;
}

/// Backs up one in-memory object in a single append.
BackupOutcome backupAll(DedupClient& client, const std::string& name,
                        ByteView content) {
  BackupSession session = client.beginBackup(name);
  session.append(content);
  return session.finish();
}

ByteVec restoreAll(DedupClient& client, const BackupOutcome& outcome) {
  return client.beginRestore(outcome.fileRecipe, outcome.keyRecipe).readAll();
}

class ClientRoundtripSchemes
    : public ::testing::TestWithParam<EncryptionScheme> {};

TEST_P(ClientRoundtripSchemes, BackupRestoreRoundtrip) {
  TempStore store;
  KeyManager km(toBytes("secret"));
  CdcChunker chunker(smallCdc());
  DedupClient client(store, km, chunker, minhashOptions(GetParam()));

  const ByteVec content = randomContent(1, 300 * 1024);
  const BackupOutcome outcome = backupAll(client, "file.bin", content);
  EXPECT_EQ(outcome.chunkCount,
            outcome.newChunks + outcome.duplicateChunks);
  EXPECT_EQ(restoreAll(client, outcome), content);
}

TEST_P(ClientRoundtripSchemes, SecondIdenticalBackupFullyDeduplicates) {
  TempStore store;
  KeyManager km(toBytes("secret"));
  CdcChunker chunker(smallCdc());
  DedupClient client(store, km, chunker, minhashOptions(GetParam()));

  const ByteVec content = randomContent(2, 200 * 1024);
  (void)backupAll(client, "v1", content);
  const BackupOutcome second = backupAll(client, "v2", content);
  EXPECT_EQ(second.newChunks, 0u)
      << "identical content must deduplicate fully under " \
         "deterministic schemes";
  EXPECT_EQ(restoreAll(client, second), content);
}

TEST_P(ClientRoundtripSchemes, ModifiedBackupMostlyDeduplicates) {
  TempStore store;
  KeyManager km(toBytes("secret"));
  CdcChunker chunker(smallCdc());
  DedupClient client(store, km, chunker, minhashOptions(GetParam()));

  ByteVec content = randomContent(3, 400 * 1024);
  (void)backupAll(client, "v1", content);
  // Clustered 2 % modification.
  for (size_t i = 100'000; i < 108'000; ++i) content[i] ^= 0xFF;
  const BackupOutcome second = backupAll(client, "v2", content);
  EXPECT_LT(second.newChunks, second.chunkCount / 3);
  EXPECT_EQ(restoreAll(client, second), content);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ClientRoundtripSchemes,
    ::testing::Values(EncryptionScheme::kMle, EncryptionScheme::kMinHash,
                      EncryptionScheme::kMinHashScrambled));

TEST(ClientRoundtrip, RecipePreservesOriginalOrderUnderScrambling) {
  TempStore store;
  KeyManager km(toBytes("secret"));
  CdcChunker chunker(smallCdc());
  DedupClient client(store, km, chunker,
                     minhashOptions(EncryptionScheme::kMinHashScrambled));

  const ByteVec content = randomContent(4, 150 * 1024);
  const BackupOutcome outcome = backupAll(client, "f", content);
  // Restoring via the recipe must reproduce the exact byte order even though
  // chunks were uploaded in scrambled order (Section 6.2).
  EXPECT_EQ(restoreAll(client, outcome), content);
  // Recipe sizes must sum to the file size in order.
  uint64_t total = 0;
  for (const auto& e : outcome.fileRecipe.entries) total += e.size;
  EXPECT_EQ(total, content.size());
}

TEST(ClientRoundtrip, StoreAndRestoreByNameWithSealedRecipes) {
  TempStore store;
  KeyManager km(toBytes("secret"));
  CdcChunker chunker(smallCdc());
  DedupClient client(store, km, chunker);

  AesKey userKey{};
  userKey.fill(0x55);
  Rng rng(5);
  const ByteVec content = randomContent(6, 100 * 1024);
  const BackupOutcome outcome = backupAll(client, "docs/thesis.tex", content);
  client.commitBackup("docs/thesis.tex", outcome, userKey, rng);
  EXPECT_EQ(client.beginRestore("docs/thesis.tex", userKey).readAll(),
            content);
}

TEST(ClientRoundtrip, RestoreByNameMissingThrows) {
  TempStore store;
  KeyManager km(toBytes("secret"));
  CdcChunker chunker(smallCdc());
  DedupClient client(store, km, chunker);
  AesKey userKey{};
  EXPECT_THROW((void)client.beginRestore("ghost", userKey).readAll(),
               std::runtime_error);
}

TEST(ClientRoundtrip, WrongUserKeyFailsRecipeParsing) {
  TempStore store;
  KeyManager km(toBytes("secret"));
  CdcChunker chunker(smallCdc());
  DedupClient client(store, km, chunker);
  AesKey rightKey{}, wrongKey{};
  rightKey.fill(1);
  wrongKey.fill(2);
  Rng rng(7);
  const BackupOutcome outcome =
      backupAll(client, "f", randomContent(8, 50 * 1024));
  client.commitBackup("f", outcome, rightKey, rng);
  EXPECT_THROW((void)client.beginRestore("f", wrongKey).readAll(),
               std::runtime_error);
}

TEST(ClientRoundtrip, MleAndMinHashProduceDifferentCiphertexts) {
  KeyManager km(toBytes("secret"));
  CdcChunker chunker(smallCdc());
  const ByteVec content = randomContent(9, 100 * 1024);

  TempStore storeA;
  DedupClient mleClient(storeA, km, chunker);
  const auto mleOutcome = backupAll(mleClient, "f", content);

  TempStore storeB;
  DedupClient mhClient(storeB, km, chunker,
                       minhashOptions(EncryptionScheme::kMinHash));
  const auto mhOutcome = backupAll(mhClient, "f", content);

  size_t differing = 0;
  ASSERT_EQ(mleOutcome.fileRecipe.entries.size(),
            mhOutcome.fileRecipe.entries.size());
  for (size_t i = 0; i < mleOutcome.fileRecipe.entries.size(); ++i) {
    differing += mleOutcome.fileRecipe.entries[i].cipherFp !=
                 mhOutcome.fileRecipe.entries[i].cipherFp;
  }
  EXPECT_EQ(differing, mleOutcome.fileRecipe.entries.size());
}

// Algorithm 4 on real bytes: every chunk of a segment is encrypted under
// the key of the segment's minimum plaintext fingerprint. The client's
// segments are recomputed from the recipe's (plain fp, size) records.
TEST(ClientRoundtrip, MinHashKeysEachSegmentByItsMinimumFingerprint) {
  KeyManager km(toBytes("secret"));
  CdcChunker chunker(smallCdc());
  for (const EncryptionScheme scheme :
       {EncryptionScheme::kMinHash, EncryptionScheme::kMinHashScrambled}) {
    TempStore store;
    const BackupOptions options = minhashOptions(scheme);
    DedupClient client(store, km, chunker, options);
    const BackupOutcome outcome =
        backupAll(client, "f", randomContent(12, 200 * 1024));

    std::vector<ChunkRecord> records;
    for (const RecipeEntry& e : outcome.fileRecipe.entries)
      records.push_back({e.plainFp, e.size});
    const std::vector<Segment> segments =
        segmentRecords(records, options.segmentParams);
    ASSERT_GE(segments.size(), 2u);
    for (const Segment& seg : segments) {
      const AesKey expected =
          km.deriveSegmentKey(segmentMinFingerprint(records, seg));
      for (size_t i = seg.begin; i < seg.end; ++i)
        EXPECT_EQ(outcome.keyRecipe.keys[i], expected) << "chunk " << i;
    }
  }
}

// The frequency-disturbing effect of Algorithm 4: one plaintext chunk in
// two single-segment objects with different minima encrypts differently,
// so the store holds it twice, and both objects still restore.
TEST(ClientRoundtrip, MinHashStoresAChunkUnderTwoMinimaTwice) {
  TempStore store;
  KeyManager km(toBytes("secret"));
  FixedChunker chunker(1024);
  DedupClient client(store, km, chunker,
                     minhashOptions(EncryptionScheme::kMinHash));
  // Four 1 KiB chunks each, below the 8 KiB minimum segment: one segment
  // per object. Chunk 2 is shared.
  const ByteVec shared = randomContent(13, 1024);
  ByteVec a = randomContent(14, 2 * 1024);
  ByteVec b = randomContent(15, 2 * 1024);
  a.insert(a.end(), shared.begin(), shared.end());
  b.insert(b.end(), shared.begin(), shared.end());
  const ByteVec tailA = randomContent(16, 1024);
  const ByteVec tailB = randomContent(17, 1024);
  a.insert(a.end(), tailA.begin(), tailA.end());
  b.insert(b.end(), tailB.begin(), tailB.end());

  const BackupOutcome first = backupAll(client, "a", a);
  const BackupOutcome second = backupAll(client, "b", b);
  ASSERT_EQ(first.chunkCount, 4u);
  ASSERT_EQ(second.chunkCount, 4u);
  ASSERT_EQ(first.fileRecipe.entries[2].plainFp,
            second.fileRecipe.entries[2].plainFp);
  // Different chunk sets almost surely have different minima.
  ASSERT_NE(first.keyRecipe.keys[2], second.keyRecipe.keys[2]);
  EXPECT_NE(first.fileRecipe.entries[2].cipherFp,
            second.fileRecipe.entries[2].cipherFp);
  EXPECT_EQ(second.newChunks, 4u);
  EXPECT_EQ(second.duplicateChunks, 0u);
  EXPECT_EQ(restoreAll(client, first), a);
  EXPECT_EQ(restoreAll(client, second), b);
}

/// The `size`-byte chunk `index` of `content` under a FixedChunker.
ByteView fixedChunk(const ByteVec& content, size_t index, size_t size) {
  const size_t begin = index * size;
  return ByteView(content.data() + begin,
                  std::min(size, content.size() - begin));
}

// Server-aided MLE: each chunk's key is the key manager's chunk key of its
// plaintext fingerprint.
TEST(ClientRoundtrip, MleKeysEachChunkByItsFingerprint) {
  TempStore store;
  KeyManager km(toBytes("secret"));
  FixedChunker chunker(1024);
  DedupClient client(store, km, chunker);
  const ByteVec content = randomContent(18, 16 * 1024 + 100);
  const BackupOutcome outcome = backupAll(client, "f", content);
  ASSERT_EQ(outcome.chunkCount, 17u);
  for (size_t i = 0; i < outcome.chunkCount; ++i) {
    const Fp plainFp = fpOfContent(fixedChunk(content, i, 1024));
    EXPECT_EQ(outcome.fileRecipe.entries[i].plainFp, plainFp) << i;
    EXPECT_EQ(outcome.keyRecipe.keys[i], km.deriveChunkKey(plainFp)) << i;
  }
}

// Under every scheme a recipe's ciphertext fingerprint is the fingerprint
// of the chunk encrypted under the key the key recipe records for it.
TEST(ClientRoundtrip, CipherFpIsFingerprintOfKeyedCiphertext) {
  KeyManager km(toBytes("secret"));
  FixedChunker chunker(1024);
  const ByteVec content = randomContent(19, 40 * 1024);
  for (const EncryptionScheme scheme :
       {EncryptionScheme::kMle, EncryptionScheme::kMinHash,
        EncryptionScheme::kMinHashScrambled}) {
    TempStore store;
    DedupClient client(store, km, chunker, minhashOptions(scheme));
    const BackupOutcome outcome = backupAll(client, "f", content);
    ASSERT_EQ(outcome.chunkCount, 40u);
    for (size_t i = 0; i < outcome.chunkCount; ++i) {
      const ByteVec cipher = MleScheme::encryptWithKey(
          outcome.keyRecipe.keys[i], fixedChunk(content, i, 1024));
      EXPECT_EQ(outcome.fileRecipe.entries[i].cipherFp, fpOfContent(cipher))
          << "chunk " << i;
    }
  }
}

// A segment's key depends on its chunk set, not on the chunks' order: the
// same chunks reordered share the minimum and deduplicate completely.
TEST(ClientRoundtrip, MinHashReorderedChunkSetFullyDeduplicates) {
  TempStore store;
  KeyManager km(toBytes("secret"));
  FixedChunker chunker(1024);
  DedupClient client(store, km, chunker,
                     minhashOptions(EncryptionScheme::kMinHash));
  // Four 1 KiB chunks, below the 8 KiB minimum segment: one segment.
  const ByteVec a = randomContent(20, 4 * 1024);
  ByteVec b;
  for (size_t i = 4; i-- > 0;) {
    const ByteView chunk = fixedChunk(a, i, 1024);
    b.insert(b.end(), chunk.begin(), chunk.end());
  }
  const BackupOutcome first = backupAll(client, "a", a);
  const BackupOutcome second = backupAll(client, "b", b);
  ASSERT_EQ(second.chunkCount, 4u);
  EXPECT_EQ(first.newChunks, 4u);
  EXPECT_EQ(second.newChunks, 0u);
  EXPECT_EQ(second.duplicateChunks, 4u);
  EXPECT_EQ(restoreAll(client, second), b);
}

/// A client with `restoreThreads` restore workers (1: no pool).
RestoreOptions restoreThreads(uint32_t threads) {
  RestoreOptions options;
  options.parallelism = threads;
  return options;
}

class ClientRoundtripParallelism
    : public ::testing::TestWithParam<EncryptionScheme> {};

// The client's worker pool serves restores only: a client that owns one
// must back up exactly as a client without one, and its pooled restore
// must return the bytes a serial restore returns.
TEST_P(ClientRoundtripParallelism, PooledClientMatchesSerialClient) {
  const ByteVec content = randomContent(9, 400 * 1024);

  const auto runBackup = [&](uint32_t threads) {
    TempStore store;
    KeyManager km(toBytes("secret"));
    CdcChunker chunker(smallCdc());
    DedupClient client(store, km, chunker, minhashOptions(GetParam()),
                       restoreThreads(threads));
    BackupOutcome outcome = backupAll(client, "file.bin", content);
    EXPECT_EQ(restoreAll(client, outcome), content);
    DedupClient serialReader(store, restoreThreads(1));
    EXPECT_EQ(restoreAll(serialReader, outcome), content);
    return outcome;
  };

  const BackupOutcome serial = runBackup(1);
  const BackupOutcome pooled = runBackup(4);
  EXPECT_EQ(pooled.newChunks, serial.newChunks);
  EXPECT_EQ(pooled.duplicateChunks, serial.duplicateChunks);
  EXPECT_EQ(serializeFileRecipe(pooled.fileRecipe),
            serializeFileRecipe(serial.fileRecipe));
  EXPECT_EQ(serializeKeyRecipe(pooled.keyRecipe),
            serializeKeyRecipe(serial.keyRecipe));
}

INSTANTIATE_TEST_SUITE_P(Schemes, ClientRoundtripParallelism,
                         ::testing::Values(EncryptionScheme::kMle,
                                           EncryptionScheme::kMinHash,
                                           EncryptionScheme::kMinHashScrambled));

/// A backup chain with churn: each version rewrites a few scattered ranges
/// of the previous one, so later backups mostly deduplicate.
std::vector<ByteVec> churnChain(uint64_t seed, size_t versions, size_t bytes) {
  Rng rng(seed);
  std::vector<ByteVec> chain = {randomContent(seed, bytes)};
  for (size_t v = 1; v < versions; ++v) {
    ByteVec next = chain.back();
    for (int edit = 0; edit < 4; ++edit) {
      const size_t at = rng.pickIndex(next.size() - 2048);
      for (size_t i = at; i < at + 2048; ++i)
        next[i] = static_cast<uint8_t>(rng.next());
    }
    chain.push_back(std::move(next));
  }
  return chain;
}

class ClientChainParallelism : public ::testing::TestWithParam<uint32_t> {};

// The whole chain through one store: every backup's dedup counters and
// recipes, and the store's final unique-chunk accounting, are exact for
// any client restore parallelism, and every version restores bit-identically
// through the pool.
TEST_P(ClientChainParallelism, ChainMatchesSerialDedupResults) {
  const std::vector<ByteVec> chain = churnChain(5, 4, 256 * 1024);

  struct ChainRun {
    std::vector<BackupOutcome> outcomes;
    BackupStoreStats stats;
  };
  const auto runChain = [&](uint32_t threads) {
    TempStore store({.containerBytes = 64 * 1024});
    KeyManager km(toBytes("secret"));
    CdcChunker chunker(smallCdc());
    DedupClient client(store, km, chunker,
                       minhashOptions(EncryptionScheme::kMinHash),
                       restoreThreads(threads));
    ChainRun run;
    for (size_t v = 0; v < chain.size(); ++v)
      run.outcomes.push_back(
          backupAll(client, "v" + std::to_string(v), chain[v]));
    for (size_t v = 0; v < chain.size(); ++v)
      EXPECT_EQ(restoreAll(client, run.outcomes[v]), chain[v])
          << "version " << v;
    store.flush();
    run.stats = store.stats();
    return run;
  };

  const ChainRun serial = runChain(1);
  const ChainRun pooled = runChain(GetParam());
  ASSERT_EQ(pooled.outcomes.size(), serial.outcomes.size());
  for (size_t v = 0; v < serial.outcomes.size(); ++v) {
    const BackupOutcome& p = pooled.outcomes[v];
    const BackupOutcome& s = serial.outcomes[v];
    EXPECT_EQ(p.chunkCount, s.chunkCount) << "version " << v;
    EXPECT_EQ(p.newChunks, s.newChunks) << "version " << v;
    EXPECT_EQ(p.duplicateChunks, s.duplicateChunks) << "version " << v;
    EXPECT_EQ(serializeFileRecipe(p.fileRecipe),
              serializeFileRecipe(s.fileRecipe))
        << "version " << v;
    EXPECT_EQ(serializeKeyRecipe(p.keyRecipe), serializeKeyRecipe(s.keyRecipe))
        << "version " << v;
  }
  EXPECT_GT(serial.outcomes.back().duplicateChunks, 0u);
  EXPECT_EQ(pooled.stats.uniqueChunks, serial.stats.uniqueChunks);
  EXPECT_EQ(pooled.stats.storedBytes, serial.stats.storedBytes);
  EXPECT_EQ(pooled.stats.logicalBytes, serial.stats.logicalBytes);
}

INSTANTIATE_TEST_SUITE_P(Threads, ClientChainParallelism,
                         ::testing::Values(2u, 4u, 8u));

TEST(ClientRoundtrip, TinyObjectsRoundTrip) {
  TempStore store;
  KeyManager km(toBytes("secret"));
  CdcChunker chunker(smallCdc());
  DedupClient client(store, km, chunker,
                     minhashOptions(EncryptionScheme::kMinHashScrambled));
  // Empty, one byte, and sizes around the chunker's minimum chunk: a
  // segment of zero or one chunk must not drop bytes.
  for (const size_t size : {size_t{0}, size_t{1}, size_t{255}, size_t{256},
                            size_t{257}, size_t{4096}}) {
    const ByteVec content = randomContent(100 + size, size);
    const BackupOutcome outcome =
        backupAll(client, "tiny" + std::to_string(size), content);
    EXPECT_EQ(outcome.chunkCount, outcome.newChunks + outcome.duplicateChunks)
        << size << " bytes";
    EXPECT_EQ(restoreAll(client, outcome), content) << size << " bytes";
  }
}

TEST(ClientRoundtrip, RecipesCarryPlaintextFingerprints) {
  TempStore store;
  KeyManager km(toBytes("secret"));
  CdcChunker chunker(smallCdc());
  DedupClient client(store, km, chunker);
  const BackupOutcome outcome =
      backupAll(client, "f", randomContent(11, 100 * 1024));
  for (const RecipeEntry& e : outcome.fileRecipe.entries)
    EXPECT_NE(e.plainFp, 0u);
}

TEST(ClientRoundtrip, RestoreDetectsSubstitutedCiphertext) {
  KeyManager km(toBytes("secret"));
  CdcChunker chunker(smallCdc());
  const ByteVec content = randomContent(12, 60 * 1024);

  TempStore honest;
  DedupClient client(honest, km, chunker);
  const BackupOutcome outcome = backupAll(client, "f", content);

  // A tampering store that hands back garbage under the recipe's first
  // ciphertext fingerprint.
  const Fp victim = outcome.fileRecipe.entries[0].cipherFp;
  TempStore swapped;
  DedupClient swappedClient(swapped, km, chunker);
  for (const RecipeEntry& e : outcome.fileRecipe.entries) {
    if (e.cipherFp == victim) {
      swapped.putChunk(e.cipherFp, ByteVec(e.size, 0xEE));
    } else {
      swapped.putChunk(e.cipherFp, honest.getChunk(e.cipherFp));
    }
  }
  EXPECT_THROW(restoreAll(swappedClient, outcome), std::runtime_error);
}

TEST(ClientRoundtrip, RestoreDetectsWrongDecryptionKey) {
  TempStore store;
  KeyManager km(toBytes("secret"));
  CdcChunker chunker(smallCdc());
  DedupClient client(store, km, chunker);
  const ByteVec content = randomContent(13, 60 * 1024);
  const BackupOutcome outcome = backupAll(client, "f", content);

  KeyRecipe tampered = outcome.keyRecipe;
  tampered.keys[0][0] ^= 0x01;
  // The ciphertext is authentic, but decryption under the wrong key yields
  // a plaintext whose fingerprint no longer matches the recipe.
  EXPECT_THROW(
      (void)client.beginRestore(outcome.fileRecipe, tampered).readAll(),
      std::runtime_error);
}

TEST(ClientRoundtrip, DeleteBackupReleasesReferencesAndRecipes) {
  TempStore store;
  KeyManager km(toBytes("secret"));
  CdcChunker chunker(smallCdc());
  DedupClient client(store, km, chunker);
  AesKey userKey{};
  userKey.fill(0x11);
  Rng rng(14);

  const ByteVec content = randomContent(15, 80 * 1024);
  const BackupOutcome outcome = backupAll(client, "doomed", content);
  client.commitBackup("doomed", outcome, userKey, rng);
  ASSERT_EQ(client.listBackups(), std::vector<std::string>{"doomed"});

  EXPECT_TRUE(client.deleteBackup("doomed"));
  EXPECT_FALSE(client.deleteBackup("doomed"));
  EXPECT_TRUE(client.listBackups().empty());
  EXPECT_THROW((void)client.beginRestore("doomed", userKey).readAll(),
               std::runtime_error);

  const GcStats gc = store.collectGarbage();
  EXPECT_GT(gc.chunksReclaimed, 0u);
  EXPECT_EQ(store.stats().uniqueChunks, 0u) << "all chunks were unreferenced";
  EXPECT_TRUE(store.verify().ok());
}

TEST(ClientRoundtrip, RecommittingANameStaysRestorableAndGcSafe) {
  TempStore store;
  KeyManager km(toBytes("secret"));
  CdcChunker chunker(smallCdc());
  DedupClient client(store, km, chunker);
  AesKey userKey{};
  userKey.fill(0x33);
  Rng rng(18);

  ByteVec content = randomContent(19, 150 * 1024);
  client.commitBackup("x", backupAll(client, "x", content), userKey, rng);
  for (size_t i = 10'000; i < 14'000; ++i) content[i] ^= 0xAA;
  client.commitBackup("x", backupAll(client, "x", content), userKey, rng);

  const GcStats gc = store.collectGarbage();
  EXPECT_GT(gc.chunksReclaimed, 0u) << "v1-only chunks become unreferenced";
  EXPECT_EQ(client.beginRestore("x", userKey).readAll(), content);
  EXPECT_EQ(client.listBackups(), std::vector<std::string>{"x"});
  EXPECT_TRUE(store.verify().ok());
}

TEST(ClientRoundtrip, DeleteOneOfTwoSharingBackupsKeepsSharedChunks) {
  TempStore store;
  KeyManager km(toBytes("secret"));
  CdcChunker chunker(smallCdc());
  DedupClient client(store, km, chunker);
  AesKey userKey{};
  userKey.fill(0x22);
  Rng rng(16);

  ByteVec content = randomContent(17, 200 * 1024);
  const BackupOutcome first = backupAll(client, "v1", content);
  client.commitBackup("v1", first, userKey, rng);
  for (size_t i = 50'000; i < 54'000; ++i) content[i] ^= 0xFF;
  const BackupOutcome second = backupAll(client, "v2", content);
  client.commitBackup("v2", second, userKey, rng);

  EXPECT_TRUE(client.deleteBackup("v1"));
  store.collectGarbage();
  EXPECT_EQ(client.beginRestore("v2", userKey).readAll(), content)
      << "shared chunks must survive deleting the other backup";
  EXPECT_TRUE(store.verify().ok());
}

}  // namespace
}  // namespace freqdedup
