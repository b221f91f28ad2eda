// Streaming-vs-one-shot equivalence matrix: append granularities
// {1 B, 1 KiB, whole} x schemes {MLE, MinHash, MinHashScrambled} x chunkers
// {CDC, fixed} x client restore parallelism {1, 4} — the session path must
// reproduce the frozen pre-PR4 one-shot path bit-identically: same file
// recipe, same key recipe, same dedup counters, and byte-identical container
// files on disk (chunk contents AND store order, which is what the paper's
// adversary observes). A client whose restore pool exists must back up
// exactly as one without it, and restore the object byte for byte.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <tuple>

#include "chunking/cdc_chunker.h"
#include "chunking/fixed_chunker.h"
#include "client/dedup_client.h"
#include "common/rng.h"
#include "legacy_backup_reference.h"
#include "obs/metrics.h"
#include "storage/file_backup_store.h"
#include "temp_store.h"

namespace freqdedup {
namespace {

enum class ChunkerKind { kCdc, kFixed };

// (append granularity in bytes; 0 = whole buffer, scheme, chunker,
//  restore threads)
using MatrixParam =
    std::tuple<size_t, EncryptionScheme, ChunkerKind, uint32_t>;

ByteVec testContent() {
  // 64 KiB random + a repeat of the first 32 KiB, so the object itself
  // contains duplicate chunks and the new/duplicate counters are exercised.
  Rng rng(77);
  ByteVec data(64 * 1024);
  for (auto& b : data) b = static_cast<uint8_t>(rng.next());
  data.insert(data.end(), data.begin(), data.begin() + 32 * 1024);
  return data;
}

CdcParams smallCdc() {
  CdcParams p;
  p.minSize = 256;
  p.avgSize = 1024;
  p.maxSize = 4096;
  return p;
}

BackupOptions optionsFor(EncryptionScheme scheme) {
  BackupOptions o;
  o.scheme = scheme;
  o.segmentParams.minBytes = 8 * 1024;
  o.segmentParams.avgBytes = 16 * 1024;
  o.segmentParams.maxBytes = 32 * 1024;
  o.segmentParams.avgChunkBytes = 1024;
  o.scrambleSeed = 99;
  return o;
}

/// Sorted (name, bytes) of every container file in a store directory.
std::map<std::string, ByteVec> containerFiles(const std::string& dir) {
  std::map<std::string, ByteVec> files;
  const auto containers = std::filesystem::path(dir) / "containers";
  if (!std::filesystem::exists(containers)) return files;
  for (const auto& entry : std::filesystem::directory_iterator(containers))
    files[entry.path().filename().string()] =
        readFile(entry.path().string());
  return files;
}

class SessionEquivalence : public ::testing::TestWithParam<MatrixParam> {
 protected:
  [[nodiscard]] size_t granularity() const { return std::get<0>(GetParam()); }
  [[nodiscard]] EncryptionScheme scheme() const {
    return std::get<1>(GetParam());
  }
  [[nodiscard]] uint32_t parallelism() const { return std::get<3>(GetParam()); }

  [[nodiscard]] std::unique_ptr<Chunker> makeChunker() const {
    if (std::get<2>(GetParam()) == ChunkerKind::kCdc)
      return std::make_unique<CdcChunker>(smallCdc());
    return std::make_unique<FixedChunker>(1024);
  }

  const TempDir tmp_;
  const std::string base_ = tmp_.path();
};

TEST_P(SessionEquivalence, StreamingMatchesOneShotBitIdentically) {
  const ByteVec content = testContent();
  const BackupOptions options = optionsFor(scheme());
  const std::unique_ptr<Chunker> chunker = makeChunker();
  KeyManager km(toBytes("equivalence-secret"));

  // Oracle: the frozen pre-PR4 one-shot path into its own store.
  const std::string legacyDir = base_ + "/legacy";
  const std::string sessionDir = base_ + "/session";
  BackupOutcome legacyOutcome;
  {
    FileBackupStore store(legacyDir, {.containerBytes = 64 * 1024});
    legacyOutcome = legacy::oneShotBackup(store, km, *chunker, options,
                                          "obj", content);
    store.flush();
  }

  // Under test: a streaming session fed `granularity()`-byte appends.
  BackupOutcome sessionOutcome;
  {
    FileBackupStore store(sessionDir, {.containerBytes = 64 * 1024});
    RestoreOptions restoreOptions;
    restoreOptions.parallelism = parallelism();
    DedupClient client(store, km, *chunker, options, restoreOptions);
    BackupSession session = client.beginBackup("obj");
    const size_t step = granularity() == 0 ? content.size() : granularity();
    for (size_t off = 0; off < content.size(); off += step) {
      const size_t n = std::min(step, content.size() - off);
      session.append(ByteView(content.data() + off, n));
    }
    EXPECT_EQ(session.bytesAppended(), content.size());
    sessionOutcome = session.finish();
    store.flush();
    EXPECT_EQ(client
                  .beginRestore(sessionOutcome.fileRecipe,
                                sessionOutcome.keyRecipe)
                  .readAll(),
              content);
  }

  // Recipes, keys and dedup accounting must match exactly.
  EXPECT_EQ(sessionOutcome.fileRecipe, legacyOutcome.fileRecipe);
  EXPECT_EQ(sessionOutcome.keyRecipe, legacyOutcome.keyRecipe);
  EXPECT_EQ(sessionOutcome.chunkCount, legacyOutcome.chunkCount);
  EXPECT_EQ(sessionOutcome.newChunks, legacyOutcome.newChunks);
  EXPECT_EQ(sessionOutcome.duplicateChunks, legacyOutcome.duplicateChunks);

  // The stores must hold byte-identical container files: same chunks packed
  // in the same upload order.
  const auto legacyFiles = containerFiles(legacyDir);
  const auto sessionFiles = containerFiles(sessionDir);
  ASSERT_FALSE(legacyFiles.empty());
  EXPECT_EQ(sessionFiles.size(), legacyFiles.size());
  for (const auto& [name, bytes] : legacyFiles) {
    const auto it = sessionFiles.find(name);
    ASSERT_NE(it, sessionFiles.end()) << "missing container " << name;
    EXPECT_EQ(it->second, bytes) << "container " << name << " differs";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SessionEquivalence,
    ::testing::Combine(
        ::testing::Values(size_t{1}, size_t{1024}, size_t{0}),
        ::testing::Values(EncryptionScheme::kMle, EncryptionScheme::kMinHash,
                          EncryptionScheme::kMinHashScrambled),
        ::testing::Values(ChunkerKind::kCdc, ChunkerKind::kFixed),
        ::testing::Values(1u, 4u)),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      const size_t gran = std::get<0>(info.param);
      std::string name = gran == 0 ? "whole" : std::to_string(gran) + "B";
      switch (std::get<1>(info.param)) {
        case EncryptionScheme::kMle: name += "_Mle"; break;
        case EncryptionScheme::kMinHash: name += "_MinHash"; break;
        case EncryptionScheme::kMinHashScrambled: name += "_Scrambled"; break;
      }
      name += std::get<2>(info.param) == ChunkerKind::kCdc ? "_Cdc" : "_Fixed";
      name += "_p" + std::to_string(std::get<3>(info.param));
      return name;
    });

// --- Held chunks: a session fingerprints chunks two per SHA-256 pass, so
// every odd chunk waits for its partner, and finish() hashes a last odd one
// alone. Objects of 0-3 chunks leave nothing, one held chunk, a pair, and a
// pair plus a held chunk for finish(); each must still back up exactly as
// the one-shot reference does. ---

using HeldChunkParam = std::tuple<size_t, EncryptionScheme>;

std::string schemeName(EncryptionScheme scheme) {
  switch (scheme) {
    case EncryptionScheme::kMle: return "Mle";
    case EncryptionScheme::kMinHash: return "MinHash";
    case EncryptionScheme::kMinHashScrambled: return "Scrambled";
  }
  return "";
}

class HeldChunks : public ::testing::TestWithParam<HeldChunkParam> {
 protected:
  const TempDir tmp_;
  const std::string base_ = tmp_.path();
};

TEST_P(HeldChunks, ObjectsOfZeroToThreeChunksMatchOneShot) {
  const auto [chunks, scheme] = GetParam();
  // 1 KiB fixed chunks; a third chunk is a short tail.
  const size_t sizes[] = {0, 700, 2048, 2500};
  ByteVec content = testContent();
  content.resize(sizes[chunks]);
  const BackupOptions options = optionsFor(scheme);
  const FixedChunker chunker(1024);
  KeyManager km(toBytes("held-chunk-secret"));

  BackupOutcome legacyOutcome;
  const std::string legacyDir = base_ + "/legacy";
  {
    FileBackupStore store(legacyDir, {.containerBytes = 64 * 1024});
    legacyOutcome = legacy::oneShotBackup(store, km, chunker, options, "obj",
                                          content);
    store.flush();
  }
  ASSERT_EQ(legacyOutcome.chunkCount, chunks);

  // Whole-object and byte-at-a-time appends: a held chunk outlives the
  // append that produced it.
  for (const size_t step : {content.size(), size_t{1}}) {
    const std::string dir = base_ + "/session" + std::to_string(step);
    BackupOutcome outcome;
    {
      FileBackupStore store(dir, {.containerBytes = 64 * 1024});
      DedupClient client(store, km, chunker, options);
      BackupSession session = client.beginBackup("obj");
      for (size_t off = 0; off < content.size(); off += step)
        session.append(ByteView(content.data() + off,
                                std::min(step, content.size() - off)));
      outcome = session.finish();
      store.flush();
      EXPECT_EQ(client.beginRestore(outcome.fileRecipe, outcome.keyRecipe)
                    .readAll(),
                content)
          << "step " << step;
    }
    EXPECT_EQ(outcome.fileRecipe, legacyOutcome.fileRecipe) << "step " << step;
    EXPECT_EQ(outcome.keyRecipe, legacyOutcome.keyRecipe) << "step " << step;
    EXPECT_EQ(outcome.chunkCount, chunks);
    EXPECT_EQ(outcome.newChunks, legacyOutcome.newChunks);
    EXPECT_EQ(outcome.duplicateChunks, legacyOutcome.duplicateChunks);
    EXPECT_EQ(containerFiles(dir), containerFiles(legacyDir))
        << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Chunks, HeldChunks,
    ::testing::Combine(::testing::Values(size_t{0}, size_t{1}, size_t{2},
                                         size_t{3}),
                       ::testing::Values(EncryptionScheme::kMle,
                                         EncryptionScheme::kMinHash,
                                         EncryptionScheme::kMinHashScrambled)),
    [](const ::testing::TestParamInfo<HeldChunkParam>& info) {
      return std::to_string(std::get<0>(info.param)) + "Chunks_" +
             schemeName(std::get<1>(info.param));
    });

// Two identical chunks are fingerprinted in one pass, but the first is
// stored (and remembered) before the second is looked up: the second comes
// from the seal memo and the store holds the chunk once.
class HeldChunkPair : public ::testing::TestWithParam<EncryptionScheme> {};

TEST_P(HeldChunkPair, IdenticalPairIsStoredOnceWithTheSecondFromTheMemo) {
  const EncryptionScheme scheme = GetParam();
  ByteVec content = testContent();
  content.resize(1024);
  content.insert(content.end(), content.begin(), content.end());
  const FixedChunker chunker(1024);
  KeyManager km(toBytes("held-chunk-secret"));
  TempStore store;
  DedupClient client(store, km, chunker, optionsFor(scheme));
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::global().snapshot();
  BackupSession session = client.beginBackup("obj");
  session.append(content);
  const BackupOutcome outcome = session.finish();
  EXPECT_EQ(obs::MetricsRegistry::global().snapshot().delta(before).counter(
                "backup.seal_memo_hits"),
            1u);
  EXPECT_EQ(outcome.chunkCount, 2u);
  EXPECT_EQ(outcome.newChunks, 1u);
  EXPECT_EQ(outcome.duplicateChunks, 1u);
  ASSERT_EQ(outcome.fileRecipe.entries.size(), 2u);
  EXPECT_EQ(outcome.fileRecipe.entries[0], outcome.fileRecipe.entries[1]);
  EXPECT_EQ(outcome.newChunkFps,
            std::vector<Fp>{outcome.fileRecipe.entries[0].cipherFp});
  EXPECT_EQ(client.beginRestore(outcome.fileRecipe, outcome.keyRecipe)
                .readAll(),
            content);
}

INSTANTIATE_TEST_SUITE_P(Schemes, HeldChunkPair,
                         ::testing::Values(EncryptionScheme::kMle,
                                           EncryptionScheme::kMinHash,
                                           EncryptionScheme::kMinHashScrambled),
                         [](const auto& info) { return schemeName(info.param); });

}  // namespace
}  // namespace freqdedup
