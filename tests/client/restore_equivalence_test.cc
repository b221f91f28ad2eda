// Batched-vs-chunk-at-a-time restore equivalence matrix: the pipelined
// restore engine must reproduce the frozen pre-PR5 path across schemes
// {MLE, MinHash, Scrambled} x chunkers {CDC, fixed} x restore threads
// {1, 2, 8} x block-cache byte budgets {0, ~one container, unbounded}:
//  - restored bytes bit-identical (and equal to the original content);
//  - verification behavior identical (same checks, same error messages, on
//    tampered recipes/keys both paths fail the same way);
//  - store read counts pinned: the batched path never loads more containers
//    than the legacy path, and with an unbounded cache it loads each
//    container exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "chunking/cdc_chunker.h"
#include "chunking/fixed_chunker.h"
#include "client/dedup_client.h"
#include "common/rng.h"
#include "legacy_restore_reference.h"
#include "storage/file_backup_store.h"
#include "temp_store.h"

namespace freqdedup {
namespace {

enum class ChunkerKind { kCdc, kFixed };

// (scheme, chunker, restore threads, block-cache byte budget)
using MatrixParam =
    std::tuple<EncryptionScheme, ChunkerKind, uint32_t, uint64_t>;

constexpr uint64_t kContainerBytes = 64 * 1024;
// A bounded budget that retains roughly one full container (payload plus
// the per-chunk charge overhead) at a time.
constexpr uint64_t kOneContainerBudget = 2 * kContainerBytes;

ByteVec testContent() {
  // 192 KiB random + a repeat of the first 64 KiB: duplicate chunks point
  // back into earlier containers, so locality batches are not purely
  // sequential and the planner's container grouping is exercised.
  Rng rng(55);
  ByteVec data(192 * 1024);
  for (auto& b : data) b = static_cast<uint8_t>(rng.next());
  data.insert(data.end(), data.begin(), data.begin() + 64 * 1024);
  return data;
}

CdcParams smallCdc() {
  CdcParams p;
  p.minSize = 256;
  p.avgSize = 1024;
  p.maxSize = 4096;
  return p;
}

BackupOptions backupOptionsFor(EncryptionScheme scheme) {
  BackupOptions o;
  o.scheme = scheme;
  o.segmentParams.minBytes = 8 * 1024;
  o.segmentParams.avgBytes = 16 * 1024;
  o.segmentParams.maxBytes = 32 * 1024;
  o.segmentParams.avgChunkBytes = 1024;
  o.scrambleSeed = 7;
  return o;
}

RestoreOptions restoreOptionsFor(uint32_t threads) {
  RestoreOptions o;
  o.parallelism = threads;
  o.readAheadBatches = 2;
  o.batchBytes = 32 * 1024;  // several batches, several containers each
  o.maxBatchContainers = 4;
  return o;
}

class RestoreEquivalence : public ::testing::TestWithParam<MatrixParam> {
 protected:
  [[nodiscard]] EncryptionScheme scheme() const {
    return std::get<0>(GetParam());
  }
  [[nodiscard]] uint32_t threads() const { return std::get<2>(GetParam()); }
  [[nodiscard]] uint64_t cacheBudget() const { return std::get<3>(GetParam()); }

  [[nodiscard]] std::unique_ptr<Chunker> makeChunker() const {
    if (std::get<1>(GetParam()) == ChunkerKind::kCdc)
      return std::make_unique<CdcChunker>(smallCdc());
    return std::make_unique<FixedChunker>(1024);
  }

  const TempDir tmp_;
  const std::string dir_ = tmp_.path();
};

TEST_P(RestoreEquivalence, BatchedPathMatchesChunkAtATimeBitIdentically) {
  const ByteVec content = testContent();
  const std::unique_ptr<Chunker> chunker = makeChunker();
  KeyManager km(toBytes("restore-equivalence-secret"));

  // Backup once; both restore passes then read the same on-disk store.
  BackupOutcome outcome;
  {
    FileBackupStore store(dir_, {.containerBytes = kContainerBytes});
    DedupClient client(store, km, *chunker, backupOptionsFor(scheme()));
    BackupSession session = client.beginBackup("obj");
    session.append(content);
    outcome = session.finish();
    store.flush();
  }

  // Oracle: the frozen chunk-at-a-time loop on a freshly opened (cold) store.
  ByteVec legacyBytes;
  StoreReadStats legacyReads;
  size_t containerCount = 0;
  {
    FileBackupStore store(dir_, {.containerBytes = kContainerBytes,
                                 .blockCacheBytes = cacheBudget()});
    const uint64_t n = legacy::chunkAtATimeRestore(
        store, outcome.fileRecipe, outcome.keyRecipe,
        [&](ByteView b) { appendBytes(legacyBytes, b); });
    EXPECT_EQ(n, content.size());
    legacyReads = store.readStats();
    containerCount = store.containerCount();
  }

  // Under test: the batched engine on an equally fresh store.
  ByteVec batchedBytes;
  StoreReadStats batchedReads;
  {
    FileBackupStore store(dir_, {.containerBytes = kContainerBytes,
                                 .blockCacheBytes = cacheBudget()});
    DedupClient client(store, restoreOptionsFor(threads()));
    RestoreSession session =
        client.beginRestore(outcome.fileRecipe, outcome.keyRecipe);
    const uint64_t n =
        session.streamTo([&](ByteView b) { appendBytes(batchedBytes, b); });
    EXPECT_EQ(n, content.size());
    batchedReads = store.readStats();
  }

  // Bytes: bit-identical to the legacy path and to the original content.
  EXPECT_EQ(batchedBytes, legacyBytes);
  EXPECT_EQ(batchedBytes, content);

  ASSERT_GT(containerCount, 2u) << "matrix needs a multi-container store";
  // Both paths read every recipe entry exactly once...
  const uint64_t entryCount = outcome.fileRecipe.entries.size();
  EXPECT_EQ(legacyReads.chunkReads, entryCount);
  EXPECT_EQ(batchedReads.chunkReads, entryCount);
  EXPECT_GT(batchedReads.batchReads, 0u);
  // ...but the batched path fetches far fewer containers when the cache is
  // disabled (one getChunk = one container fetch vs. one fetch per distinct
  // container per batch), and with a bounded cache it pays at most one
  // boundary re-load per batch over the sequential legacy scan.
  if (cacheBudget() == 0) {
    EXPECT_EQ(legacyReads.containerLoads, legacyReads.chunkReads);
    EXPECT_LT(batchedReads.containerLoads, legacyReads.containerLoads);
  } else {
    EXPECT_LE(batchedReads.containerLoads,
              legacyReads.containerLoads + batchedReads.batchReads);
  }
  // With an unbounded cache nothing is ever evicted or re-read: each live
  // container is parsed from disk exactly once.
  if (cacheBudget() == kUnboundedBlockCacheBytes) {
    EXPECT_EQ(batchedReads.containerLoads, containerCount);
    EXPECT_EQ(legacyReads.containerLoads, containerCount);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, RestoreEquivalence,
    ::testing::Combine(
        ::testing::Values(EncryptionScheme::kMle, EncryptionScheme::kMinHash,
                          EncryptionScheme::kMinHashScrambled),
        ::testing::Values(ChunkerKind::kCdc, ChunkerKind::kFixed),
        ::testing::Values(1u, 2u, 8u),
        ::testing::Values(uint64_t{0}, kOneContainerBudget,
                          kUnboundedBlockCacheBytes)),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      std::string name;
      switch (std::get<0>(info.param)) {
        case EncryptionScheme::kMle: name = "Mle"; break;
        case EncryptionScheme::kMinHash: name = "MinHash"; break;
        case EncryptionScheme::kMinHashScrambled: name = "Scrambled"; break;
      }
      name += std::get<1>(info.param) == ChunkerKind::kCdc ? "_Cdc" : "_Fixed";
      name += "_t" + std::to_string(std::get<2>(info.param));
      const uint64_t cache = std::get<3>(info.param);
      name += cache == kUnboundedBlockCacheBytes
                  ? "_cacheUnbounded"
                  : "_cache" + std::to_string(cache);
      return name;
    });

// --- Verification-behavior equivalence: tampered inputs must fail both
// paths with the same exception type and message. ---

class RestoreVerificationBehavior : public ::testing::Test {
 protected:
  RestoreVerificationBehavior()
      : store_({.containerBytes = kContainerBytes}),
        km_(toBytes("behavior-secret")),
        chunker_(smallCdc()),
        content_(testContent()) {
    DedupClient client(store_, km_, chunker_,
                       backupOptionsFor(EncryptionScheme::kMle));
    BackupSession session = client.beginBackup("obj");
    session.append(content_);
    outcome_ = session.finish();
  }

  /// Error message the legacy path produces for the given recipes ("" when
  /// it succeeds).
  std::string legacyError(const FileRecipe& file, const KeyRecipe& keys) {
    try {
      legacy::chunkAtATimeRestore(store_, file, keys, [](ByteView) {});
      return "";
    } catch (const std::exception& e) {
      return e.what();
    }
  }

  /// Same, through the batched engine at the given thread count.
  std::string batchedError(const FileRecipe& file, const KeyRecipe& keys,
                           uint32_t threads) {
    DedupClient client(store_, restoreOptionsFor(threads));
    try {
      client.beginRestore(file, keys).streamTo([](ByteView) {});
      return "";
    } catch (const std::exception& e) {
      return e.what();
    }
  }

  void expectSameBehavior(const FileRecipe& file, const KeyRecipe& keys) {
    const std::string expected = legacyError(file, keys);
    EXPECT_FALSE(expected.empty()) << "tampering must fail the legacy path";
    EXPECT_EQ(batchedError(file, keys, 1), expected);
    EXPECT_EQ(batchedError(file, keys, 4), expected);
  }

  TempStore store_;
  KeyManager km_;
  CdcChunker chunker_;
  ByteVec content_;
  BackupOutcome outcome_;
};

TEST_F(RestoreVerificationBehavior, UnknownCipherFpFailsIdentically) {
  FileRecipe file = outcome_.fileRecipe;
  file.entries[file.entries.size() / 2].cipherFp ^= 0xDEAD;
  expectSameBehavior(file, outcome_.keyRecipe);
}

TEST_F(RestoreVerificationBehavior, WrongPlainFpFailsIdentically) {
  FileRecipe file = outcome_.fileRecipe;
  file.entries[file.entries.size() / 2].plainFp ^= 0xBEEF;
  expectSameBehavior(file, outcome_.keyRecipe);
}

TEST_F(RestoreVerificationBehavior, WrongKeyFailsIdentically) {
  KeyRecipe keys = outcome_.keyRecipe;
  keys.keys[keys.keys.size() / 2][0] ^= 0x01;
  expectSameBehavior(outcome_.fileRecipe, keys);
}

TEST_F(RestoreVerificationBehavior, WrongFileSizeFailsIdentically) {
  FileRecipe file = outcome_.fileRecipe;
  file.fileSize += 1;
  expectSameBehavior(file, outcome_.keyRecipe);
}

TEST_F(RestoreVerificationBehavior, UntamperedInputSucceedsOnBothPaths) {
  EXPECT_EQ(legacyError(outcome_.fileRecipe, outcome_.keyRecipe), "");
  EXPECT_EQ(batchedError(outcome_.fileRecipe, outcome_.keyRecipe, 1), "");
  EXPECT_EQ(batchedError(outcome_.fileRecipe, outcome_.keyRecipe, 8), "");
}

// --- streamRange: every slice must be byte-identical to the same slice of
// the full object, at arbitrary offsets and in arbitrary call order. ---

using RestoreRangeSlices = RestoreVerificationBehavior;

TEST_F(RestoreRangeSlices, StreamRangeMatchesContentSlices) {
  DedupClient client(store_, restoreOptionsFor(2));
  RestoreSession session =
      client.beginRestore(outcome_.fileRecipe, outcome_.keyRecipe);
  const uint64_t size = content_.size();
  ASSERT_EQ(session.size(), size);

  const auto expectRange = [&](uint64_t offset, uint64_t length) {
    ByteVec got;
    const uint64_t n = session.streamRange(
        offset, length, [&](ByteView b) { appendBytes(got, b); });
    const uint64_t want =
        offset >= size ? 0 : std::min<uint64_t>(length, size - offset);
    EXPECT_EQ(n, want) << "offset=" << offset << " length=" << length;
    ASSERT_EQ(got.size(), want) << "offset=" << offset;
    if (want > 0)
      EXPECT_EQ(got,
                ByteVec(content_.begin() + static_cast<ptrdiff_t>(offset),
                        content_.begin() + static_cast<ptrdiff_t>(offset +
                                                                  want)))
          << "offset=" << offset << " length=" << length;
  };

  // Degenerate and clamped edges.
  expectRange(0, 0);
  expectRange(0, 1);
  expectRange(size - 1, 1);
  expectRange(size - 7, 1000);  // clamped at the end
  expectRange(size, 10);        // at EOF: empty
  expectRange(size + 5, 1);     // past EOF: empty
  expectRange(0, size);         // the whole object as one range
  expectRange(12345, 70000);    // unaligned mid-object slice

  // Chunk-boundary offsets (exactly at, and straddling, entry edges).
  uint64_t at = 0;
  size_t probed = 0;
  for (const RecipeEntry& e : outcome_.fileRecipe.entries) {
    at += e.size;
    if (at >= size || ++probed > 8) break;
    expectRange(at, 1);
    expectRange(at - 1, 2);
    expectRange(at, e.size);
  }

  // Random slices, deliberately out of order; the session is reusable.
  Rng rng(77);
  for (int i = 0; i < 16; ++i) {
    const uint64_t offset = rng.next() % (size + 100);
    const uint64_t length = 1 + rng.next() % (size / 3);
    expectRange(offset, length);
  }
  // A full pass still works after arbitrary range calls.
  expectRange(0, size);
}

// Regression for the mid-recipe window-anchoring bug class (PR 9 fixed it
// in streamRange; this pins the shared path): a restore whose first served
// entry is NOT entry 0 must anchor its locality windows at that entry, so
// every suffix restore — including one long enough to span many batches —
// is byte-identical to the corresponding slice of the object.
TEST_F(RestoreRangeSlices, RestoreBeginningAtNonZeroEntryIsExact) {
  DedupClient client(store_, restoreOptionsFor(4));
  RestoreSession session =
      client.beginRestore(outcome_.fileRecipe, outcome_.keyRecipe);
  const uint64_t size = content_.size();
  ASSERT_EQ(session.size(), size);
  ASSERT_GT(outcome_.fileRecipe.entries.size(), 16u);

  // Suffix restores starting exactly at a selection of entry boundaries
  // (first, early, middle, deep, last): offset != 0 while the batch planner
  // starts from a mid-recipe entry index.
  std::vector<size_t> starts = {1, 2, outcome_.fileRecipe.entries.size() / 2,
                                outcome_.fileRecipe.entries.size() - 2,
                                outcome_.fileRecipe.entries.size() - 1};
  std::vector<uint64_t> entryOffsets;
  {
    uint64_t at = 0;
    for (const RecipeEntry& e : outcome_.fileRecipe.entries) {
      entryOffsets.push_back(at);
      at += e.size;
    }
  }
  for (const size_t start : starts) {
    const uint64_t offset = entryOffsets[start];
    ByteVec got;
    const uint64_t n = session.streamRange(
        offset, size - offset, [&](ByteView b) { appendBytes(got, b); });
    ASSERT_EQ(n, size - offset) << "start entry " << start;
    EXPECT_EQ(got,
              ByteVec(content_.begin() + static_cast<ptrdiff_t>(offset),
                      content_.end()))
        << "suffix restore from entry " << start << " diverged";
  }
}

}  // namespace
}  // namespace freqdedup
