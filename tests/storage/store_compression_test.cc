// Store-level compression: compressed containers round-trip through the
// file backend, MLE ciphertext is stored uncompressed (it is
// incompressible, so compression only ever helps before encryption),
// reopening with a *different* codec never rewrites or quarantines valid old
// containers (codec-mixed stores are first-class), and a crafted unknown
// codec byte is quarantined like any other corruption.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "common/bytes.h"
#include "common/crc32.h"
#include "crypto/key_manager.h"
#include "crypto/mle.h"
#include "obs/metrics.h"
#include "storage/backup_store.h"
#include "storage/container.h"
#include "storage/file_backup_store.h"
#include "temp_store.h"

namespace freqdedup {
namespace {

namespace fs = std::filesystem;

/// Compressible (plaintext-like) chunk: repeats a seed-dependent phrase, so
/// distinct seeds give distinct fingerprints but every chunk shrinks well.
ByteVec compressibleChunk(uint8_t seed, size_t n = 16 * 1024) {
  ByteVec bytes(n);
  for (size_t i = 0; i < n; ++i)
    bytes[i] = static_cast<uint8_t>("the quick brown fox "[i % 20] + seed);
  return bytes;
}

class StoreCompressionTest : public ::testing::Test {
 protected:
  StoreOptions withCodec(ContainerCodec codec) const {
    StoreOptions options;
    options.containerBytes = 64 * 1024;
    options.codec = codec;
    return options;
  }

  /// Snapshot of every container file's bytes, keyed by file name.
  std::map<std::string, ByteVec> containerFiles() const {
    std::map<std::string, ByteVec> files;
    for (const auto& entry : fs::directory_iterator(dir_ + "/containers"))
      if (entry.path().extension() == ".fdc")
        files[entry.path().filename().string()] =
            readFile(entry.path().string());
    return files;
  }

  TempDir tmp_;
  const std::string dir_ = tmp_.path();
};

TEST_F(StoreCompressionTest, CompressedChunksRoundTripAcrossReopen) {
  std::vector<std::pair<Fp, ByteVec>> chunks;
  {
    FileBackupStore store(dir_, withCodec(ContainerCodec::kDeflate));
    for (int i = 0; i < 24; ++i) {
      ByteVec bytes = compressibleChunk(static_cast<uint8_t>(i));
      const Fp fp = fpOfContent(bytes);
      store.putChunk(fp, bytes);
      chunks.emplace_back(fp, std::move(bytes));
    }
    store.flush();
    for (const auto& [fp, bytes] : chunks) EXPECT_EQ(store.getChunk(fp), bytes);
  }
  // Compression must actually have happened: frames on disk are codec
  // frames and physically smaller than the raw payload they carry.
  uint64_t physical = 0;
  size_t codecFrames = 0;
  for (const auto& [name, bytes] : containerFiles()) {
    physical += bytes.size();
    codecFrames += getU32(bytes, 0) == kContainerMagicV2;
  }
  EXPECT_GT(codecFrames, 0u);
  EXPECT_LT(physical, uint64_t{24} * 16 * 1024);

  FileBackupStore reopened(dir_, withCodec(ContainerCodec::kDeflate));
  EXPECT_EQ(reopened.recoveryStats().corruptContainers, 0u);
  EXPECT_EQ(reopened.recoveryStats().entriesDropped, 0u);
  for (const auto& [fp, bytes] : chunks)
    EXPECT_EQ(reopened.getChunk(fp), bytes);
  EXPECT_TRUE(reopened.verify().ok());
}

TEST_F(StoreCompressionTest, MleCiphertextKeepsLegacyFrames) {
  // The same compressible payloads, MLE-encrypted under their clients'
  // chunk keys: every frame must take the incompressible fallback to the
  // legacy (V1) format, so the store saves nothing over the raw ciphertext.
  const KeyManager keys(toBytes("compression-secret"));
  uint64_t raw = 0;
  {
    FileBackupStore store(dir_, withCodec(ContainerCodec::kDeflate));
    for (int i = 0; i < 24; ++i) {
      const ByteVec plain = compressibleChunk(static_cast<uint8_t>(i));
      const ByteVec cipher = MleScheme::encryptWithKey(
          keys.deriveChunkKey(fpOfContent(plain)), plain);
      ASSERT_TRUE(store.putChunk(fpOfContent(cipher), cipher));
      raw += cipher.size();
    }
    store.flush();
  }
  const auto files = containerFiles();
  ASSERT_FALSE(files.empty());
  uint64_t physical = 0;
  for (const auto& [name, bytes] : files) {
    physical += bytes.size();
    EXPECT_EQ(getU32(bytes, 0), kContainerMagic) << name;
  }
  EXPECT_GE(physical, raw);
}

// The satellite reopen matrix: a store written under codec A and reopened
// under codec B must (a) recover without rewriting or quarantining a single
// old container — their on-disk bytes stay bit-identical — and (b) serve
// every old chunk while writing new containers under B. Both directions.
class StoreCodecReopenMatrix
    : public StoreCompressionTest,
      public ::testing::WithParamInterface<
          std::pair<ContainerCodec, ContainerCodec>> {};

TEST_P(StoreCodecReopenMatrix, ReopenWithDifferentCodecLeavesOldFramesAlone) {
  const auto [writeCodec, reopenCodec] = GetParam();
  std::vector<std::pair<Fp, ByteVec>> oldChunks;
  {
    FileBackupStore store(dir_, withCodec(writeCodec));
    for (int i = 0; i < 12; ++i) {
      ByteVec bytes = compressibleChunk(static_cast<uint8_t>(i));
      const Fp fp = fpOfContent(bytes);
      store.putChunk(fp, bytes);
      oldChunks.emplace_back(fp, std::move(bytes));
    }
    store.flush();
  }
  const auto before = containerFiles();
  ASSERT_FALSE(before.empty());

  FileBackupStore reopened(dir_, withCodec(reopenCodec));
  EXPECT_EQ(reopened.recoveryStats().corruptContainers, 0u)
      << "valid old containers must never be quarantined on codec change";
  EXPECT_EQ(reopened.recoveryStats().entriesDropped, 0u);
  EXPECT_EQ(reopened.recoveryStats().orphanContainersRemoved, 0u);
  for (const auto& [fp, bytes] : oldChunks)
    EXPECT_EQ(reopened.getChunk(fp), bytes);

  // Recovery is read-only for valid frames: byte-identical files.
  const auto after = containerFiles();
  EXPECT_EQ(after, before) << "reopen must not rewrite old container frames";

  // New writes pick up the reopen codec; old and new frames then coexist.
  std::vector<std::pair<Fp, ByteVec>> newChunks;
  for (int i = 100; i < 112; ++i) {
    ByteVec bytes = compressibleChunk(static_cast<uint8_t>(i));
    const Fp fp = fpOfContent(bytes);
    reopened.putChunk(fp, bytes);
    newChunks.emplace_back(fp, std::move(bytes));
  }
  reopened.flush();
  bool sawLegacy = false, sawCodec = false;
  for (const auto& [name, bytes] : containerFiles()) {
    sawLegacy |= getU32(bytes, 0) == kContainerMagic;
    sawCodec |= getU32(bytes, 0) == kContainerMagicV2;
  }
  EXPECT_TRUE(sawLegacy && sawCodec) << "store should now mix both frames";
  for (const auto& [fp, bytes] : newChunks)
    EXPECT_EQ(reopened.getChunk(fp), bytes);
  EXPECT_TRUE(reopened.verify().ok());

  // And a third open (original codec again) reads the mixed store whole.
  FileBackupStore third(dir_, withCodec(writeCodec));
  EXPECT_EQ(third.recoveryStats().corruptContainers, 0u);
  EXPECT_EQ(third.recoveryStats().entriesDropped, 0u);
  for (const auto& [fp, bytes] : oldChunks) EXPECT_EQ(third.getChunk(fp), bytes);
  for (const auto& [fp, bytes] : newChunks) EXPECT_EQ(third.getChunk(fp), bytes);
  EXPECT_TRUE(third.verify().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Directions, StoreCodecReopenMatrix,
    ::testing::Values(
        std::make_pair(ContainerCodec::kNone, ContainerCodec::kDeflate),
        std::make_pair(ContainerCodec::kDeflate, ContainerCodec::kNone)),
    [](const auto& info) {
      return std::string(codecName(info.param.first)) + "_to_" +
             codecName(info.param.second);
    });

TEST_F(StoreCompressionTest, RecoveryQuarantinesCraftedCodecByte) {
  const ByteVec bytes = compressibleChunk(1);
  const Fp fp = fpOfContent(bytes);
  std::string containerFile;
  {
    FileBackupStore store(dir_, withCodec(ContainerCodec::kDeflate));
    store.putChunk(fp, bytes);
    store.recordBackup("b", std::vector<Fp>{fp});
  }
  for (const auto& entry : fs::directory_iterator(dir_ + "/containers"))
    if (entry.path().extension() == ".fdc")
      containerFile = entry.path().string();
  ASSERT_FALSE(containerFile.empty());
  ByteVec raw = readFile(containerFile);
  ASSERT_EQ(getU32(raw, 0), kContainerMagicV2);
  // Overwrite the codec byte with a value no build understands and restamp
  // the trailer CRC, so recovery's rejection comes from codec validation.
  raw[8] = 0x7E;
  const uint32_t crc = crc32c(ByteView(raw).subspan(0, raw.size() - 4));
  raw[raw.size() - 4] = static_cast<uint8_t>(crc);
  raw[raw.size() - 3] = static_cast<uint8_t>(crc >> 8);
  raw[raw.size() - 2] = static_cast<uint8_t>(crc >> 16);
  raw[raw.size() - 1] = static_cast<uint8_t>(crc >> 24);
  writeFile(containerFile, raw);

  FileBackupStore reopened(dir_, withCodec(ContainerCodec::kDeflate));
  EXPECT_EQ(reopened.recoveryStats().corruptContainers, 1u);
  EXPECT_EQ(reopened.recoveryStats().entriesDropped, 1u);
  EXPECT_FALSE(reopened.hasChunk(fp));
  EXPECT_TRUE(fs::exists(containerFile + ".corrupt"))
      << "unknown codec must quarantine, not delete";
  EXPECT_FALSE(reopened.verify().ok()) << "manifest now dangles";
}

TEST_F(StoreCompressionTest, CompressionMetricsCountFrames) {
  FileBackupStore store(dir_, withCodec(ContainerCodec::kDeflate));
  for (int i = 0; i < 24; ++i) {
    const ByteVec bytes = compressibleChunk(static_cast<uint8_t>(i));
    store.putChunk(fpOfContent(bytes), bytes);
  }
  store.flush();
  const auto snapshot = store.metricsSnapshot();
  const auto counter = [&](const std::string& name) {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? uint64_t{0} : it->second;
  };
  EXPECT_GT(counter("store.compressed_containers"), 0u);
  EXPECT_GT(counter("store.container_raw_bytes"), 0u);
  EXPECT_LT(counter("store.container_physical_bytes"),
            counter("store.container_raw_bytes"));
}

}  // namespace
}  // namespace freqdedup
