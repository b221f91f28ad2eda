// google-benchmark microbenchmarks for the building blocks: hashing, CRC-32C,
// Rabin rolling hash, content-defined chunking (one-shot and streamed),
// AES-CTR / MLE encryption, the persistent key-value store, the DDFS dedup
// engine, the attack-analysis engine's index builds, and the client's
// backup path with and without seal memo hits.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>

#include "analysis/attack_engine.h"
#include "chunking/cdc_chunker.h"
#include "chunking/fixed_chunker.h"
#include "client/dedup_client.h"
#include "chunking/rabin.h"
#include "common/crc32.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/attacks.h"
#include "core/defense.h"
#include "crypto/mle.h"
#include "kvstore/logkv.h"
#include "storage/container_backup_store.h"
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
BENCHMARK(BM_Sha256)->Arg(4096)->Arg(8192)->Arg(65536);

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

void BM_MleEncrypt(benchmark::State& state) {
  const ByteVec chunk = randomBytes(4, static_cast<size_t>(state.range(0)));
  const ConvergentEncryption mle;
  for (auto _ : state) benchmark::DoNotOptimize(mle.encrypt(chunk));
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

void BM_FrequencyIndexBuild(benchmark::State& state) {
  Rng rng(7);
  std::vector<ChunkRecord> records(50'000);
  for (auto& r : records) r = {rng.uniformInt(0, 20'000), 8192};
  const auto stream = analysis::ChunkStreamIndex::build(records);
  const auto threads = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    // Threshold 0 forces the parallel plan so Arg(4) measures it.
    benchmark::DoNotOptimize(
        analysis::FrequencyIndex::build(stream, threads,
                                        /*parallelThreshold=*/0));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(records.size()));
}
BENCHMARK(BM_FrequencyIndexBuild)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_NeighborIndexBuild(benchmark::State& state) {
  Rng rng(7);
  std::vector<ChunkRecord> records(50'000);
  for (auto& r : records) r = {rng.uniformInt(0, 20'000), 8192};
  const auto stream = analysis::ChunkStreamIndex::build(records);
  const auto threads = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::NeighborIndex::build(
        stream, analysis::NeighborIndex::Side::kLeft, threads));
    benchmark::DoNotOptimize(analysis::NeighborIndex::build(
        stream, analysis::NeighborIndex::Side::kRight, threads));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(records.size()));
}
BENCHMARK(BM_NeighborIndexBuild)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

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
    benchmark::DoNotOptimize(localityAttack(target.records, aux, config));
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
BackupOutcome backupObject(DedupClient& client, ByteView data) {
  BackupSession session = client.beginBackup("object");
  for (size_t off = 0; off < data.size(); off += 1 << 20)
    session.append(data.subspan(off, std::min<size_t>(1 << 20,
                                                      data.size() - off)));
  return session.finish();
}

// The client's serial MLE backup path into a memory store, at the two ends
// of the seal memo (8 MiB, default CDC). Repeat: a warm client backs the same
// object up again, so every chunk is a duplicate the memo knows. Unique: a
// new store and client each iteration, so every chunk is new, misses the
// memo and adds an entry (the memo does not fill).
void BM_ClientBackupRepeat(benchmark::State& state) {
  const ByteVec data = randomBytes(10, 8 << 20);
  const KeyManager keys(toBytes("bench-secret"));
  const CdcChunker chunker;
  MemBackupStore store;
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
  for (auto _ : state) {
    MemBackupStore store;
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
  MemBackupStore store;
  DedupClient client(store, keys, chunker);
  backupObject(client, data);
  for (auto _ : state) benchmark::DoNotOptimize(backupObject(client, data));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_ClientBackupOverMemo)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace freqdedup

BENCHMARK_MAIN();
