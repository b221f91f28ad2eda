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

}  // namespace
}  // namespace freqdedup
