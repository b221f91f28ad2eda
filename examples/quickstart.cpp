// Quickstart: the full encrypted-deduplication pipeline via the session
// client.
//
//   DedupClient --beginBackup()--> BackupSession: append streamed content ->
//   content-defined chunking -> server-aided MLE -> deduplicated chunk store
//   -> file/key recipes -> commit; then beginRestore() streams it back out.
//
// The store lives in a fresh directory under the system temp dir, removed
// at exit. Exits 0 when the restore is bit-exact (ctest: examples.quickstart).
//
// Build and run:  ./build/examples/quickstart
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "chunking/cdc_chunker.h"
#include "client/dedup_client.h"
#include "common/rng.h"
#include "storage/file_backup_store.h"

using namespace freqdedup;

namespace {

ByteVec makeDocument(uint64_t seed, size_t bytes) {
  Rng rng(seed);
  ByteVec data(bytes);
  for (auto& b : data) b = static_cast<uint8_t>(rng.next());
  return data;
}

/// Removes the quickstart's store directory when main returns.
struct ScratchDir {
  std::string path = (std::filesystem::temp_directory_path() /
                      ("fdd-quickstart-" + std::to_string(::getpid())))
                         .string();
  ScratchDir() { std::filesystem::remove_all(path); }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

}  // namespace

int main() {
  // 1. A persistent chunk store (containers + index log under one
  //    directory) and a DupLESS-style key manager holding the global secret.
  const ScratchDir dir;
  FileBackupStore store(dir.path);
  KeyManager keyManager(toBytes("quickstart-global-secret"));

  // 2. Content-defined chunking with 8 KB average chunks.
  CdcChunker chunker;

  // 3. The shared client; it vends one cheap session per in-flight object.
  //    Sessions stream: append() any number of times, in any granularity —
  //    the object never needs to fit in memory at once.
  DedupClient client(store, keyManager, chunker, {});

  // Back up version 1 of a 4 MB document, streamed in 64 KB appends.
  ByteVec document = makeDocument(1, 4 << 20);
  BackupSession v1Session = client.beginBackup("report-v1");
  for (size_t off = 0; off < document.size(); off += 64 << 10)
    v1Session.append(ByteView(document.data() + off,
                              std::min<size_t>(64 << 10,
                                               document.size() - off)));
  const BackupOutcome v1 = v1Session.finish();
  printf("v1: %zu chunks, %zu new, %zu duplicate\n", v1.chunkCount,
         v1.newChunks, v1.duplicateChunks);

  // Edit 1%% of the document in one clustered region and back up again:
  // deduplication removes everything outside the edited region.
  for (size_t i = 1 << 20; i < (1 << 20) + (4 << 20) / 100; ++i)
    document[i] ^= 0xA5;
  BackupSession v2Session = client.beginBackup("report-v2");
  v2Session.append(document);  // whole-buffer appends work too
  const BackupOutcome v2 = v2Session.finish();
  printf("v2: %zu chunks, %zu new, %zu duplicate (%.1f%% deduplicated)\n",
         v2.chunkCount, v2.newChunks, v2.duplicateChunks,
         100.0 * static_cast<double>(v2.duplicateChunks) /
             static_cast<double>(v2.chunkCount));

  // Recipes are sealed under the user's own key before storage.
  const AesKey userKey = userKeyFromPassphrase("quickstart-pass");
  Rng rng(7);
  client.commitBackup("report-v2", v2, userKey, rng);

  // Restore as a stream: chunks are verified end-to-end and handed to the
  // sink in order (here re-assembled just to byte-compare).
  ByteVec restored;
  restored.reserve(document.size());
  client.beginRestore("report-v2", userKey)
      .streamTo([&restored](ByteView bytes) { appendBytes(restored, bytes); });
  printf("restore: %s (%zu bytes)\n",
         restored == document ? "OK, bit-exact" : "MISMATCH",
         restored.size());

  printf("store: %llu unique chunks, %.2f MB stored for %.2f MB logical "
         "(dedup ratio %.2fx)\n",
         static_cast<unsigned long long>(store.stats().uniqueChunks),
         store.stats().storedBytes / 1e6, store.stats().logicalBytes / 1e6,
         store.stats().dedupRatio());
  return restored == document ? 0 : 1;
}
