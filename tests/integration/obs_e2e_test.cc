// End-to-end metrics assertions: after backup -> restore -> delete -> gc,
// the registry snapshots must tell the same story the operations do —
// session counters in the global registry, store/cache/GC counters in the
// store's own registry. All value assertions are interval deltas (this test
// shares the global registry with everything else in the binary).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "chunking/cdc_chunker.h"
#include "client/dedup_client.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "storage/file_backup_store.h"

namespace freqdedup {
namespace {

ByteVec makeObject(uint64_t seed, size_t bytes) {
  Rng rng(seed);
  ByteVec data(bytes);
  for (auto& b : data) b = static_cast<uint8_t>(rng.next());
  return data;
}

TEST(ObsEndToEnd, BackupRestoreDeleteGcCounters) {
  const auto dir = std::filesystem::temp_directory_path() / "fdd_obs_e2e";
  std::filesystem::remove_all(dir);

  FileBackupStore store(dir.string());
  KeyManager km(toBytes("obs-e2e-secret"));
  CdcChunker chunker;
  BackupOptions options;
  options.scheme = EncryptionScheme::kMinHashScrambled;
  DedupClient client(store, km, chunker, options);
  const AesKey userKey = userKeyFromPassphrase("obs-e2e");
  Rng rng(7);

  const obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
  const ByteVec objectA = makeObject(1, 1 << 20);
  const ByteVec objectB = makeObject(2, 1 << 20);

  // Backup two objects (the second twice-appended bytes are distinct).
  for (const auto& [name, object] :
       {std::pair{"a.bin", &objectA}, std::pair{"b.bin", &objectB}}) {
    BackupSession session = client.beginBackup(name);
    session.append(*object);
    client.commitBackup(name, session.finish(), userKey, rng);
  }
  store.flush();

  const obs::MetricsSnapshot afterBackup =
      obs::MetricsRegistry::global().snapshot().delta(before);
  EXPECT_EQ(afterBackup.counter("backup.sessions_opened"), 2u);
  EXPECT_EQ(afterBackup.counter("backup.bytes_appended"), 2u << 20);
  EXPECT_GT(afterBackup.counter("chunk.chunks_produced"), 0u);
  EXPECT_EQ(afterBackup.counter("chunk.bytes_total"), 2u << 20);
  EXPECT_GT(afterBackup.counter("chunk.segments_closed"), 0u);
  EXPECT_EQ(afterBackup.counter("backup.chunks_new") +
                afterBackup.counter("backup.chunks_duplicate"),
            afterBackup.counter("chunk.chunks_produced"));
  EXPECT_GT(afterBackup.histogram("backup.append_us").count, 0u);
  EXPECT_EQ(afterBackup.histogram("chunk.size_bytes").sum, 2u << 20);

  const obs::MetricsSnapshot storeAfterBackup = store.metricsSnapshot();
  EXPECT_EQ(storeAfterBackup.counter("store.put_chunks"),
            afterBackup.counter("chunk.chunks_produced"));
  EXPECT_EQ(storeAfterBackup.counter("store.backups_recorded"), 2u);
  EXPECT_GT(storeAfterBackup.gauge("store.unique_chunks"), 0);

  // Restore both and byte-compare.
  for (const auto& [name, object] :
       {std::pair{"a.bin", &objectA}, std::pair{"b.bin", &objectB}}) {
    RestoreSession session = client.beginRestore(name, userKey);
    EXPECT_EQ(session.readAll(), *object);
  }
  const obs::MetricsSnapshot afterRestore =
      obs::MetricsRegistry::global().snapshot().delta(before);
  EXPECT_EQ(afterRestore.counter("restore.sessions_opened"), 2u);
  EXPECT_EQ(afterRestore.counter("restore.bytes_streamed"), 2u << 20);
  EXPECT_EQ(afterRestore.counter("restore.chunks_streamed"),
            afterBackup.counter("chunk.chunks_produced"));
  EXPECT_GT(afterRestore.counter("restore.batches_planned"), 0u);
  EXPECT_EQ(afterRestore.gauge("restore.prefetch_window"), 0);
  EXPECT_EQ(afterRestore.histogram("restore.batch_bytes").sum, 2u << 20);

  const obs::MetricsSnapshot storeAfterRestore = store.metricsSnapshot();
  EXPECT_EQ(storeAfterRestore.counter("store.chunk_reads"),
            afterRestore.counter("restore.chunks_streamed"));
  EXPECT_GT(storeAfterRestore.counter("store.batch_reads"), 0u);
  EXPECT_GT(storeAfterRestore.counter("store.container_loads") +
                storeAfterRestore.counter("store.read_cache_hits"),
            0u);

  // Delete one backup and collect garbage; the store registry must record
  // the GC pass and the gauges must shrink accordingly.
  const int64_t uniqueBefore = storeAfterRestore.gauge("store.unique_chunks");
  ASSERT_TRUE(client.deleteBackup("a.bin"));
  const GcStats gc = store.collectGarbage();
  EXPECT_GT(gc.chunksReclaimed, 0u);

  const obs::MetricsSnapshot storeAfterGc = store.metricsSnapshot();
  EXPECT_EQ(storeAfterGc.counter("store.backups_released"), 1u);
  EXPECT_EQ(storeAfterGc.counter("store.gc_runs"), 1u);
  EXPECT_EQ(storeAfterGc.counter("store.gc_reclaimed_chunks"),
            gc.chunksReclaimed);
  EXPECT_EQ(storeAfterGc.counter("store.gc_reclaimed_bytes"),
            gc.bytesReclaimed);
  EXPECT_EQ(storeAfterGc.counter("store.gc_relocated_chunks"),
            gc.chunksRelocated);
  EXPECT_EQ(storeAfterGc.gauge("store.unique_chunks"),
            uniqueBefore - static_cast<int64_t>(gc.chunksReclaimed));
  EXPECT_EQ(storeAfterGc.histogram("store.gc_us").count, 1u);

  // The survivor still restores after GC.
  RestoreSession session = client.beginRestore("b.bin", userKey);
  EXPECT_EQ(session.readAll(), objectB);

  // A second backup of the same object is served by the seal memo: its
  // chunks are stored as duplicates without being encrypted again, and the
  // store still sees one put per chunk.
  const obs::MetricsSnapshot beforeAgain =
      obs::MetricsRegistry::global().snapshot();
  const uint64_t putsBeforeAgain =
      store.metricsSnapshot().counter("store.put_chunks");
  {
    BackupSession again = client.beginBackup("b-again.bin");
    again.append(objectB);
    EXPECT_EQ(again.finish().newChunks, 0u);
  }
  const obs::MetricsSnapshot afterAgain =
      obs::MetricsRegistry::global().snapshot().delta(beforeAgain);
  EXPECT_GT(afterAgain.counter("backup.seal_memo_hits"), 0u);
  EXPECT_LE(afterAgain.counter("backup.seal_memo_hits"),
            afterAgain.counter("backup.chunks_duplicate"));
  EXPECT_EQ(store.metricsSnapshot().counter("store.put_chunks") -
                putsBeforeAgain,
            afterAgain.counter("chunk.chunks_produced"));

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace freqdedup
