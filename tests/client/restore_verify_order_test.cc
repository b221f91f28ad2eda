// Restore verifies each chunk's ciphertext and plaintext fingerprints in one
// two-message SHA-256 pass after decrypting it. The ciphertext check must
// still come first: a chunk the store corrupted fails as a ciphertext
// mismatch (its plaintext is wrong too), and only an intact ciphertext under
// a wrong key fails as a plaintext mismatch. Entries without a plaintext
// fingerprint (plainFp == 0) are checked on their ciphertext alone.
#include <gtest/gtest.h>

#include <string>

#include "chunking/cdc_chunker.h"
#include "client/dedup_client.h"
#include "common/rng.h"
#include "storage/failing_store.h"
#include "temp_store.h"

namespace freqdedup {
namespace {

ByteVec testContent() {
  Rng rng(91);
  ByteVec data(96 * 1024);
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

class RestoreVerifyOrder : public ::testing::TestWithParam<uint32_t> {
 protected:
  RestoreVerifyOrder()
      : failing_(store_),
        km_(toBytes("verify-order-secret")),
        chunker_(smallCdc()),
        content_(testContent()) {
    DedupClient client(failing_, km_, chunker_);
    BackupSession session = client.beginBackup("obj");
    session.append(content_);
    outcome_ = session.finish();
  }

  /// The restore's error message ("" when it succeeds); the restored bytes
  /// go to `restored`.
  std::string restoreError(const FileRecipe& file, const KeyRecipe& keys,
                           ByteVec* restored = nullptr) {
    RestoreOptions options;
    options.parallelism = GetParam();
    DedupClient client(failing_, options);
    try {
      client.beginRestore(file, keys).streamTo([&](ByteView b) {
        if (restored != nullptr) appendBytes(*restored, b);
      });
      return "";
    } catch (const std::exception& e) {
      return e.what();
    }
  }

  [[nodiscard]] Fp middleCipherFp() const {
    return outcome_.fileRecipe.entries[outcome_.fileRecipe.entries.size() / 2]
        .cipherFp;
  }

  TempStore store_;
  FailingStore failing_;
  KeyManager km_;
  CdcChunker chunker_;
  ByteVec content_;
  BackupOutcome outcome_;
};

TEST_P(RestoreVerifyOrder, StoreCorruptedCiphertextFailsAsCiphertextMismatch) {
  failing_.corruptReadOf(middleCipherFp());
  EXPECT_EQ(restoreError(outcome_.fileRecipe, outcome_.keyRecipe),
            "restore: ciphertext fingerprint mismatch for " +
                fpToHex(middleCipherFp()));
}

TEST_P(RestoreVerifyOrder, WrongKeyFailsAsPlaintextMismatch) {
  KeyRecipe keys = outcome_.keyRecipe;
  keys.keys[keys.keys.size() / 2][0] ^= 0x01;
  EXPECT_EQ(restoreError(outcome_.fileRecipe, keys),
            "restore: plaintext fingerprint mismatch for " +
                fpToHex(middleCipherFp()));
}

TEST_P(RestoreVerifyOrder, EntriesWithoutPlainFpRestoreAndCatchCorruption) {
  FileRecipe file = outcome_.fileRecipe;
  ASSERT_GT(file.entries.size(), 8u);
  for (RecipeEntry& entry : file.entries) entry.plainFp = 0;
  ByteVec restored;
  EXPECT_EQ(restoreError(file, outcome_.keyRecipe, &restored), "");
  EXPECT_EQ(restored, content_);

  failing_.corruptReadOf(middleCipherFp());
  EXPECT_EQ(restoreError(file, outcome_.keyRecipe),
            "restore: ciphertext fingerprint mismatch for " +
                fpToHex(middleCipherFp()));
}

INSTANTIATE_TEST_SUITE_P(Threads, RestoreVerifyOrder,
                         ::testing::Values(1u, 4u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return "t" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace freqdedup
