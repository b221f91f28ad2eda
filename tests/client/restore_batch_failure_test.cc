// A restore decrypts and verifies each locality batch in the prefetch stage,
// before the calling thread emits it. A chunk that fails verification in
// batch k must therefore leave the sink holding exactly the bytes of batches
// 0..k-1, with the same error message the serial path gives, at every
// parallelism and read-ahead. The batches fetched past the failing one are
// dropped unemitted, and they must leave the restore.prefetch_window gauge
// as an emitted batch does.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "chunking/cdc_chunker.h"
#include "client/dedup_client.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "storage/failing_store.h"
#include "temp_store.h"

namespace freqdedup {
namespace {

ByteVec testContent() {
  Rng rng(37);
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

int64_t prefetchWindow() {
  return obs::MetricsRegistry::global().gauge("restore.prefetch_window").value();
}

/// (parallelism, readAheadBatches)
using Setting = std::tuple<uint32_t, uint32_t>;

class RestoreBatchFailure : public ::testing::TestWithParam<Setting> {
 protected:
  static constexpr uint64_t kBatchBytes = 16 * 1024;

  RestoreBatchFailure()
      : failing_(store_),
        km_(toBytes("batch-failure-secret")),
        chunker_(smallCdc()),
        content_(testContent()) {
    DedupClient client(failing_, km_, chunker_);
    BackupSession session = client.beginBackup("obj");
    session.append(content_);
    outcome_ = session.finish();
  }

  /// First entry of each batch. With the container cap out of reach the
  /// planner cuts on ciphertext bytes alone: a batch ends before the entry
  /// that would take it past kBatchBytes.
  [[nodiscard]] std::vector<size_t> batchStarts() const {
    std::vector<size_t> starts{0};
    uint64_t bytes = 0;
    const auto& entries = outcome_.fileRecipe.entries;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (bytes > 0 && bytes + entries[i].size > kBatchBytes) {
        starts.push_back(i);
        bytes = 0;
      }
      bytes += entries[i].size;
    }
    return starts;
  }

  /// Plaintext bytes of entries [0, entry).
  [[nodiscard]] uint64_t bytesBefore(size_t entry) const {
    uint64_t bytes = 0;
    for (size_t i = 0; i < entry; ++i)
      bytes += outcome_.fileRecipe.entries[i].size;
    return bytes;
  }

  /// The restore's error message ("" when it succeeds); the emitted bytes
  /// go to `restored`.
  std::string restoreError(const KeyRecipe& keys, ByteVec& restored) {
    RestoreOptions options;
    options.parallelism = std::get<0>(GetParam());
    options.readAheadBatches = std::get<1>(GetParam());
    options.batchBytes = kBatchBytes;
    options.maxBatchContainers = 1u << 20;
    DedupClient client(failing_, options);
    restored.clear();
    try {
      client.beginRestore(outcome_.fileRecipe, keys)
          .streamTo([&](ByteView b) { appendBytes(restored, b); });
      return "";
    } catch (const std::exception& e) {
      return e.what();
    }
  }

  TempStore store_;
  FailingStore failing_;
  KeyManager km_;
  CdcChunker chunker_;
  ByteVec content_;
  BackupOutcome outcome_;
};

TEST_P(RestoreBatchFailure, CorruptChunkLeavesPrefixOfEarlierBatches) {
  const std::vector<size_t> starts = batchStarts();
  ASSERT_GE(starts.size(), 4u);
  for (const size_t k : {size_t{1}, starts.size() / 2, starts.size() - 1}) {
    const size_t end = k + 1 < starts.size()
                           ? starts[k + 1]
                           : outcome_.fileRecipe.entries.size();
    const size_t victim = (starts[k] + end) / 2;
    const Fp fp = outcome_.fileRecipe.entries[victim].cipherFp;
    failing_.resetInjection();
    failing_.corruptReadOf(fp);
    const int64_t windowBefore = prefetchWindow();
    ByteVec restored;
    EXPECT_EQ(restoreError(outcome_.keyRecipe, restored),
              "restore: ciphertext fingerprint mismatch for " + fpToHex(fp))
        << "batch " << k;
    const ByteVec prefix(content_.begin(),
                         content_.begin() + bytesBefore(starts[k]));
    EXPECT_EQ(restored, prefix) << "batch " << k;
    EXPECT_EQ(prefetchWindow(), windowBefore) << "batch " << k;
  }
}

TEST_P(RestoreBatchFailure, WrongKeyLeavesPrefixOfEarlierBatches) {
  const std::vector<size_t> starts = batchStarts();
  ASSERT_GE(starts.size(), 4u);
  const size_t k = starts.size() / 2;
  const size_t victim = starts[k];
  KeyRecipe keys = outcome_.keyRecipe;
  keys.keys[victim][0] ^= 0x01;
  ByteVec restored;
  EXPECT_EQ(restoreError(keys, restored),
            "restore: plaintext fingerprint mismatch for " +
                fpToHex(outcome_.fileRecipe.entries[victim].cipherFp));
  const ByteVec prefix(content_.begin(),
                       content_.begin() + bytesBefore(starts[k]));
  EXPECT_EQ(restored, prefix);
}

TEST_P(RestoreBatchFailure, IntactObjectRestoresWhole) {
  ByteVec restored;
  EXPECT_EQ(restoreError(outcome_.keyRecipe, restored), "");
  EXPECT_EQ(restored, content_);
}

INSTANTIATE_TEST_SUITE_P(
    Settings, RestoreBatchFailure,
    ::testing::Combine(::testing::Values(1u, 4u), ::testing::Values(0u, 2u)),
    [](const ::testing::TestParamInfo<Setting>& info) {
      return "t" + std::to_string(std::get<0>(info.param)) + "_ahead" +
             std::to_string(std::get<1>(info.param));
    });

// Batches fetched ahead of a failing batch are dropped without being
// emitted; each must still leave the prefetch-window gauge, or a daemon that
// served one failed restore reports a window that never settles to 0.
TEST(RestorePrefetchWindow, SettlesToZeroAfterFailedRestore) {
  TempStore store;
  FailingStore failing(store);
  KeyManager km(toBytes("window-secret"));
  CdcChunker chunker(smallCdc());
  const ByteVec content = testContent();
  BackupOutcome outcome;
  {
    DedupClient client(failing, km, chunker);
    BackupSession session = client.beginBackup("obj");
    session.append(content);
    outcome = session.finish();
  }
  const auto& entries = outcome.fileRecipe.entries;
  failing.corruptReadOf(entries[entries.size() / 2].cipherFp);

  RestoreOptions options;
  options.parallelism = 4;
  options.readAheadBatches = 2;
  options.batchBytes = 4096;
  DedupClient client(failing, options);
  const int64_t before = prefetchWindow();
  EXPECT_THROW(client.beginRestore(outcome.fileRecipe, outcome.keyRecipe)
                   .streamTo([](ByteView) {}),
               std::runtime_error);
  EXPECT_EQ(prefetchWindow(), before);
}

}  // namespace
}  // namespace freqdedup
