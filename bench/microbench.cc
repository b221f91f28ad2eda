// google-benchmark microbenchmarks for the building blocks: hashing (one
// message or two per pass), CRC-32C, Rabin rolling hash, content-defined
// chunking (one-shot and streamed),
// AES-CTR / MLE encryption, the persistent key-value store, the DDFS dedup
// engine, the attack-analysis engine's index builds, the client's backup
// path with and without seal memo hits, and its parallel restore path.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/attack_engine.h"
#include "chunking/cdc_chunker.h"
#include "chunking/fixed_chunker.h"
#include "client/dedup_client.h"
#include "chunking/rabin.h"
#include "common/crc32.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/defense.h"
#include "crypto/mle.h"
#include "datagen/fsl_gen.h"
#include "kvstore/logkv.h"
#include "storage/file_backup_store.h"
#include "storage/dedup_engine.h"

namespace freqdedup {
namespace {

ByteVec randomBytes(uint64_t seed, size_t n) {
  Rng rng(seed);
  ByteVec data(n);
  for (auto& b : data) b = static_cast<uint8_t>(rng.next());
  return data;
}

void BM_Sha256(benchmark::State& state) {
  const ByteVec data = randomBytes(1, static_cast<size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(sha256(data));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(32)->Arg(4096)->Arg(8192)->Arg(65536);

// Two messages of the argument's size per call (bytes count both): the
// restore path's ciphertext + plaintext check and the backup path's chunk
// pairs. Two SHA-NI lanes where the CPU has them.
void BM_Sha256Pair(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const ByteVec a = randomBytes(1, n);
  const ByteVec b = randomBytes(2, n);
  for (auto _ : state) benchmark::DoNotOptimize(sha256Pair(a, b));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          state.range(0));
}
BENCHMARK(BM_Sha256Pair)->Arg(4096)->Arg(8192);

// BM_Sha256Pair on the fallback (two sha256() calls), which sha256Pair runs
// on CPUs without SHA-NI.
void BM_Sha256PairPortable(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const ByteVec a = randomBytes(1, n);
  const ByteVec b = randomBytes(2, n);
  for (auto _ : state)
    benchmark::DoNotOptimize(detail::sha256PairPortable(a, b));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          state.range(0));
}
BENCHMARK(BM_Sha256PairPortable)->Arg(4096)->Arg(8192);

// The checksum on every container frame, cached chunk, WAL record and wire
// frame (SSE4.2 where the CPU has it).
void BM_Crc32c(benchmark::State& state) {
  const ByteVec data = randomBytes(6, static_cast<size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(crc32c(data));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(4 << 10)->Arg(64 << 10)->Arg(4 << 20);

// The byte-at-a-time RabinWindow reference; no chunking path runs it, its
// cost is the baseline for the CDC scan kernel below.
void BM_RabinSlide(benchmark::State& state) {
  const ByteVec data = randomBytes(2, 1 << 16);
  RabinWindow window;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(window.slide(data[i++ & 0xFFFF]));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RabinSlide);

void BM_CdcChunking(benchmark::State& state) {
  const ByteVec data = randomBytes(3, 4 << 20);
  const CdcChunker chunker;
  for (auto _ : state) benchmark::DoNotOptimize(chunker.split(data));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_CdcChunking);

// BM_CdcChunking on the portable search (the serial Rabin roll), which
// CdcChunker runs on CPUs without AVX-512BW and GFNI.
void BM_CdcChunkingPortable(benchmark::State& state) {
  const ByteVec data = randomBytes(3, 4 << 20);
  const CdcChunker chunker = detail::portableCdcChunker(CdcParams{});
  for (auto _ : state) benchmark::DoNotOptimize(chunker.split(data));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_CdcChunkingPortable);

// The streaming form of BM_CdcChunking: the same 4 MiB in 1 MiB pushes, so
// chunks straddling a push resume from the carried partial chunk.
void BM_CdcStream(benchmark::State& state) {
  const ByteVec data = randomBytes(3, 4 << 20);
  const CdcChunker chunker;
  size_t chunks = 0;
  const auto stream = chunker.makeStream([&chunks](ByteView) { ++chunks; });
  const ByteView view(data);
  for (auto _ : state) {
    for (size_t off = 0; off < view.size(); off += 1 << 20)
      stream->push(view.subspan(off, 1 << 20));
    stream->flush();
    benchmark::DoNotOptimize(chunks);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_CdcStream);

/// Convergent encryption of one chunk: a SHA-256 key of the content, then
/// deterministic AES-256-CTR under it.
void BM_MleEncrypt(benchmark::State& state) {
  const ByteVec chunk = randomBytes(4, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    const Digest d = sha256(chunk);
    AesKey key{};
    std::copy(d.bytes.begin(), d.bytes.begin() + kAesKeyBytes, key.begin());
    benchmark::DoNotOptimize(MleScheme::encryptWithKey(key, chunk));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MleEncrypt)->Arg(4096)->Arg(8192);

void BM_ServerAidedKeyDerivation(benchmark::State& state) {
  const KeyManager km(toBytes("bench-secret"));
  Fp fp = 0;
  for (auto _ : state) benchmark::DoNotOptimize(km.deriveChunkKey(fp++));
}
BENCHMARK(BM_ServerAidedKeyDerivation);

void BM_LogKvPut(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "bench_logkv.log").string();
  std::filesystem::remove(path);
  LogKv kv(path);
  const ByteVec value = randomBytes(5, 24);
  uint64_t key = 0;
  for (auto _ : state) kv.put(kvKeyFromU64(key++), value);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  std::filesystem::remove(path);
}
BENCHMARK(BM_LogKvPut);

void BM_DedupEngineIngest(benchmark::State& state) {
  Rng rng(6);
  std::vector<ChunkRecord> records(100'000);
  for (auto& r : records) r = {rng.uniformInt(0, 30'000), 8192};
  DedupEngineParams params;
  params.cacheBytes = 8192 * kFpMetadataBytes;
  params.expectedFingerprints = 200'000;
  for (auto _ : state) {
    DedupEngine engine(params);
    engine.ingestBackup(records);
    benchmark::DoNotOptimize(engine.stats());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(records.size()));
}
BENCHMARK(BM_DedupEngineIngest)->Unit(benchmark::kMillisecond);

void BM_RankByFrequency(benchmark::State& state) {
  // The basic attack's ranking on attack-sweep's data at scale 1: the last
  // of five FSL-like backups as the target and the one before it as the
  // auxiliary stream, both ranked to k = the smaller unique count.
  FslGenParams params;
  params.backups = 5;
  const Dataset dataset = generateFslDataset(params);
  const auto target =
      analysis::ChunkStreamIndex::build(dataset.backups[4].records);
  const auto aux =
      analysis::ChunkStreamIndex::build(dataset.backups[3].records);
  const auto targetFreq = analysis::FrequencyIndex::build(target);
  const auto auxFreq = analysis::FrequencyIndex::build(aux);
  const size_t k = std::min(target.uniqueCount(), aux.uniqueCount());
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::rankByFrequency(targetFreq, target, k));
    benchmark::DoNotOptimize(analysis::rankByFrequency(auxFreq, aux, k));
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(target.uniqueCount() + aux.uniqueCount()));
}
BENCHMARK(BM_RankByFrequency)->Unit(benchmark::kMillisecond);

void BM_RankBySizeClass(benchmark::State& state) {
  // attack-sweep's target at scale 1: the last of five FSL-like backups,
  // ranked for the top u = 1 of each size class, as the locality attack's
  // ciphertext-only initialization does.
  FslGenParams params;
  params.backups = 5;
  const Dataset dataset = generateFslDataset(params);
  const auto stream =
      analysis::ChunkStreamIndex::build(dataset.backups.back().records);
  const auto freq = analysis::FrequencyIndex::build(stream);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::rankBySizeClass(freq, stream, 1));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(stream.uniqueCount()));
}
BENCHMARK(BM_RankBySizeClass)->Unit(benchmark::kMillisecond);

void BM_EngineBuilds(benchmark::State& state) {
  // Every index the attacks read, on attack-sweep's data at scale 1 (the
  // last of five FSL-like backups as the target, the one before it as the
  // auxiliary stream): the two frequency builds and then the four neighbor
  // builds, side by side on an engine of Arg() threads. Timed by the wall
  // clock, since the builds run on the pool's workers. The engine starts its
  // pool on the first build, so the 4-thread time includes starting its 4
  // workers each iteration; the 1-thread engine starts no pool.
  FslGenParams params;
  params.backups = 5;
  const Dataset dataset = generateFslDataset(params);
  const auto target =
      analysis::ChunkStreamIndex::build(dataset.backups[4].records);
  const auto aux =
      analysis::ChunkStreamIndex::build(dataset.backups[3].records);
  const auto threads = static_cast<uint32_t>(state.range(0));
  std::optional<analysis::AttackEngine> engine;
  for (auto _ : state) {
    state.PauseTiming();
    engine.emplace(target, aux, analysis::AnalysisOptions{.threads = threads});
    state.ResumeTiming();
    engine->buildFrequencies();
    engine->buildNeighbors();
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(target.recordCount() + aux.recordCount()));
}
BENCHMARK(BM_EngineBuilds)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_LocalityAttack(benchmark::State& state) {
  // Two synthetic backups with realistic churn for a small attack kernel.
  Rng rng(8);
  std::vector<ChunkRecord> aux(20'000);
  for (auto& r : aux) r = {rng.next(), 8192};
  std::vector<ChunkRecord> targetPlain = aux;
  for (int i = 0; i < 400; ++i)
    targetPlain[rng.pickIndex(targetPlain.size())] = {rng.next(), 8192};
  const EncryptedTrace target = mleEncryptTrace(targetPlain);
  AttackConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::AttackEngine::fromRecords(target.records, aux)
            .localityAttack(config));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(targetPlain.size()));
}
BENCHMARK(BM_LocalityAttack)->Unit(benchmark::kMillisecond);

void BM_MinHashEncryptTrace(benchmark::State& state) {
  Rng rng(9);
  std::vector<ChunkRecord> records(50'000);
  for (auto& r : records) r = {rng.next(), 8192};
  DefenseConfig defense;
  defense.scramble = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(minHashEncryptTrace(records, defense));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(records.size()));
}
BENCHMARK(BM_MinHashEncryptTrace)->Unit(benchmark::kMillisecond);

/// Backs `data` up as one object through `client`, in 1 MiB appends.
BackupOutcome backupObject(DedupClient& client, ByteView data,
                           const std::string& name = "object") {
  BackupSession session = client.beginBackup(name);
  for (size_t off = 0; off < data.size(); off += 1 << 20)
    session.append(data.subspan(off, std::min<size_t>(1 << 20,
                                                      data.size() - off)));
  return session.finish();
}

/// A FileBackupStore directory under the system temp dir, unique to this
/// process and removed when the benchmark ends.
struct BenchStoreDir {
  std::string path;
  explicit BenchStoreDir(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("fdd-" + name + "-" + std::to_string(::getpid())))
                 .string()) {
    std::filesystem::remove_all(path);
  }
  ~BenchStoreDir() { std::filesystem::remove_all(path); }
};

// The client's serial MLE backup path into a file store, at the two ends of
// the seal memo (8 MiB, default CDC). Repeat: a warm client backs the same
// object up again, so every chunk is a duplicate the memo knows. Unique: a
// new store and client each iteration, so every chunk is new, misses the
// memo and adds an entry (the memo does not fill); the timing includes
// writing the containers and the closing flush, not removing the directory.
void BM_ClientBackupRepeat(benchmark::State& state) {
  const ByteVec data = randomBytes(10, 8 << 20);
  const KeyManager keys(toBytes("bench-secret"));
  const CdcChunker chunker;
  const BenchStoreDir dir("bm-backup-repeat");
  FileBackupStore store(dir.path);
  DedupClient client(store, keys, chunker);
  backupObject(client, data);
  for (auto _ : state) benchmark::DoNotOptimize(backupObject(client, data));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_ClientBackupRepeat)->Unit(benchmark::kMillisecond);

void BM_ClientBackupUnique(benchmark::State& state) {
  const ByteVec data = randomBytes(10, 8 << 20);
  const KeyManager keys(toBytes("bench-secret"));
  const CdcChunker chunker;
  const BenchStoreDir dir("bm-backup-unique");
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir.path);
    state.ResumeTiming();
    FileBackupStore store(dir.path);
    DedupClient client(store, keys, chunker);
    benchmark::DoNotOptimize(backupObject(client, data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_ClientBackupUnique)->Unit(benchmark::kMillisecond);

// The seal memo's worst case: an object of 1.25x as many distinct chunks as
// the memo holds (fixed 512-byte chunks), backed up again in the same order.
// Every chunk is a store duplicate, but its entry was evicted before it
// recurs, so every chunk misses the memo and its insert evicts the entry
// due next. Small chunks make the memo's per-chunk cost a larger share of
// the work than at the default chunk size.
void BM_ClientBackupOverMemo(benchmark::State& state) {
  const ByteVec data = randomBytes(
      11, DedupClient::kSealMemoEntries / 4 * 5 * 512);
  const KeyManager keys(toBytes("bench-secret"));
  const FixedChunker chunker(512);
  const BenchStoreDir dir("bm-backup-over-memo");
  FileBackupStore store(dir.path);
  DedupClient client(store, keys, chunker);
  backupObject(client, data);
  for (auto _ : state) benchmark::DoNotOptimize(backupObject(client, data));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_ClientBackupOverMemo)->Unit(benchmark::kMillisecond);

// Shared-writer probe: 4 threads back up warm 8 MiB objects (each its own,
// default CDC) through one DedupClient over one FileBackupStore, and commit
// after each object. Every chunk is a duplicate the memo knows, so the time
// is the writers' puts and commits queueing on the client's and the store's
// locks. Each iteration is one object per thread, timed on the wall clock.
void BM_SharedClientWarmBackup(benchmark::State& state) {
  constexpr int kWriters = 4;
  constexpr size_t kObjectBytes = 8 << 20;
  std::vector<ByteVec> objects;
  for (int t = 0; t < kWriters; ++t)
    objects.push_back(randomBytes(20 + t, kObjectBytes));
  const KeyManager keys(toBytes("bench-secret"));
  const CdcChunker chunker;
  const BenchStoreDir dir("bm-shared-client");
  FileBackupStore store(dir.path);
  DedupClient client(store, keys, chunker);
  AesKey userKey{};
  userKey.fill(0x42);
  const auto backupAndCommit = [&](int t, Rng& rng) {
    const std::string name = "writer-" + std::to_string(t);
    client.commitBackup(name, backupObject(client, objects[t], name), userKey,
                        rng);
  };
  std::vector<Rng> rngs;
  for (int t = 0; t < kWriters; ++t) rngs.emplace_back(30 + t);
  for (int t = 0; t < kWriters; ++t) backupAndCommit(t, rngs[t]);
  for (auto _ : state) {
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int t = 0; t < kWriters; ++t)
      writers.emplace_back(backupAndCommit, t, std::ref(rngs[t]));
    for (std::thread& writer : writers) writer.join();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          kWriters * static_cast<int64_t>(kObjectBytes));
}
BENCHMARK(BM_SharedClientWarmBackup)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The restore read path on all cores: one FileBackupStore holding an 8 MiB
// MinHash + scrambled object (default CDC), restored again each iteration
// with parallelism 4 and the default block cache. The first restore warms
// the cache, so the time is chunk lookups, batch planning, prefetch from
// the cache, and decrypt plus the two fingerprint checks per chunk.
void BM_RestoreParallel(benchmark::State& state) {
  const ByteVec data = randomBytes(40, 8 << 20);
  const KeyManager keys(toBytes("bench-secret"));
  const CdcChunker chunker;
  const BenchStoreDir dir("bm-restore-parallel");
  FileBackupStore store(dir.path);
  BackupOptions backup;
  backup.scheme = EncryptionScheme::kMinHashScrambled;
  RestoreOptions restore;
  restore.parallelism = 4;
  DedupClient client(store, keys, chunker, backup, restore);
  AesKey userKey{};
  userKey.fill(0x42);
  Rng rng(41);
  client.commitBackup("object", backupObject(client, data), userKey, rng);
  store.flush();
  ByteVec restored;
  restored.reserve(data.size());
  const auto restoreOnce = [&] {
    restored.clear();
    client.beginRestore("object", userKey).streamTo([&](ByteView b) {
      restored.insert(restored.end(), b.begin(), b.end());
    });
  };
  restoreOnce();
  if (restored != data) {
    state.SkipWithError("restored bytes differ");
    return;
  }
  for (auto _ : state) {
    restoreOnce();
    benchmark::DoNotOptimize(restored.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_RestoreParallel)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace freqdedup

BENCHMARK_MAIN();
