// restore-chain: set-up backs up one user's chain of snapshots with
// MinHash + scrambling, one session at a time so the container layout is
// deterministic. The timed phase repeats passes — reopen the store cold,
// restore every snapshot newest to oldest with RestoreOptions{parallelism =
// min(4, nproc)} — with a block cache of half the store's unique bytes, so
// the working set is larger than the cache. This is the read path only
// (chunkLocator/getChunks, cache misses and evictions, decrypt and verify):
// it skips chunking, so a chunker change must show no change here, and the
// scrambled layout is the restore cost of the paper's defence.
#include <algorithm>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "chunking/cdc_chunker.h"
#include "client/dedup_client.h"
#include "crypto/mle.h"
#include "fddbench.h"
#include "storage/file_backup_store.h"

namespace fddbench {
namespace {

using freqdedup::BackupStore;
using freqdedup::ChunkPlacement;
using freqdedup::DedupClient;
using freqdedup::Fp;

constexpr const char* kStoreDir = "restore-store";

ChainParams chainParams(bool quick) {
  if (quick) return {512u << 10, 8, 3, 32u << 10, 16u << 10};
  return {8ull << 20, 44, 8, 192u << 10, 64u << 10};
}

std::string snapshotName(size_t snapshot) {
  return "snap" + std::to_string(snapshot);
}

struct RestoreInput {
  std::vector<Digest> digests;  // per snapshot
  std::vector<uint64_t> sizes;
  std::vector<freqdedup::FileRecipe> files;  // for the traced replay
  std::vector<freqdedup::KeyRecipe> keys;
  uint64_t chainBytes = 0;   // logical bytes of one pass
  uint64_t uniqueBytes = 0;  // ciphertext bytes the chain stored
  uint64_t containerBytes = 0;
  uint64_t containers = 0;
};

RestoreInput setUp(const Options& options, const ChainParams& params) {
  std::filesystem::remove_all(kStoreDir);
  RestoreInput in;
  // The chain is the same for every seed: under MinHash a modified file
  // re-keys its whole segment, so the few files a seeded drift touches
  // would swing the store's size between seeds. The seed drives the
  // scrambling, and with it the container layout the restores read.
  const std::vector<Snapshot> chain = makeChains(params, 0, 1).front();
  freqdedup::FileBackupStore store(kStoreDir);
  const freqdedup::KeyManager keys(freqdedup::toBytes(kKeySecret));
  const freqdedup::CdcChunker chunker;
  freqdedup::BackupOptions backup;
  backup.scheme = freqdedup::EncryptionScheme::kMinHashScrambled;
  backup.scrambleSeed = subSeed(options.seed, 7);
  DedupClient client(store, keys, chunker, backup);
  freqdedup::Rng sealRng(subSeed(options.seed, 8));
  for (size_t s = 0; s < chain.size(); ++s) {
    freqdedup::BackupOutcome outcome =
        sessionBackup(client, snapshotName(s), chain[s]);
    client.commitBackup(snapshotName(s), outcome, userKey(0), sealRng);
    in.digests.push_back(digestOf(chain[s].pieces()));
    in.sizes.push_back(chain[s].bytes);
    in.chainBytes += chain[s].bytes;
    in.uniqueBytes += newCipherBytes(outcome);
    in.files.push_back(std::move(outcome.fileRecipe));
    in.keys.push_back(std::move(outcome.keyRecipe));
  }
  store.flush();
  in.containers = store.containerCount();
  in.containerBytes =
      directoryBytes(std::filesystem::path(kStoreDir) / "containers");
  return in;
}

std::string inputFingerprint(const RestoreInput& in) {
  std::string out;
  for (const Digest& d : in.digests) out += d.hex();
  return out + "/" + std::to_string(in.uniqueBytes) + "/" +
         std::to_string(in.containerBytes);
}

/// Forwards every call to the real store and times the read path the
/// restore engine drives (chunkLocator, getChunks).
class TracedStore final : public BackupStore {
 public:
  TracedStore(BackupStore& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  /// Parent span and request of the restore now running.
  void setContext(Tracer::Context context) {
    std::lock_guard lock(mu_);
    context_ = context;
  }

  std::vector<ByteVec> getChunks(std::span<const Fp> fps) override {
    Tracer::Span span(tracer_, Layer::kGet, context());
    return inner_.getChunks(fps);
  }

  [[nodiscard]] std::vector<std::optional<ChunkPlacement>> chunkLocator(
      std::span<const Fp> fps) const override {
    Tracer::Span span(tracer_, Layer::kLocate, context());
    return inner_.chunkLocator(fps);
  }

  [[nodiscard]] bool hasChunk(Fp fp) const override {
    return inner_.hasChunk(fp);
  }
  bool putChunk(Fp fp, ByteView bytes) override {
    return inner_.putChunk(fp, bytes);
  }
  ByteVec getChunk(Fp fp) override { return inner_.getChunk(fp); }
  [[nodiscard]] freqdedup::StoreReadStats readStats() const override {
    return inner_.readStats();
  }
  [[nodiscard]] uint32_t chunkRefCount(Fp fp) const override {
    return inner_.chunkRefCount(fp);
  }
  void putBlob(const std::string& name, ByteView bytes) override {
    inner_.putBlob(name, bytes);
  }
  std::optional<ByteVec> getBlob(const std::string& name) override {
    return inner_.getBlob(name);
  }
  bool eraseBlob(const std::string& name) override {
    return inner_.eraseBlob(name);
  }
  [[nodiscard]] std::vector<std::string> listBlobs() override {
    return inner_.listBlobs();
  }
  void recordBackup(const std::string& name,
                    std::span<const Fp> refs) override {
    inner_.recordBackup(name, refs);
  }
  void recordBackupDeferred(const std::string& name,
                            std::span<const Fp> refs) override {
    inner_.recordBackupDeferred(name, refs);
  }
  void syncMetadataAsync(std::function<void(bool)> done) override {
    inner_.syncMetadataAsync(std::move(done));
  }
  bool releaseBackup(const std::string& name) override {
    return inner_.releaseBackup(name);
  }
  [[nodiscard]] std::vector<std::string> listBackups() override {
    return inner_.listBackups();
  }
  std::optional<std::vector<Fp>> backupRefs(const std::string& name) override {
    return inner_.backupRefs(name);
  }
  freqdedup::GcStats collectGarbage() override {
    return inner_.collectGarbage();
  }
  freqdedup::StoreCheckReport verify() override { return inner_.verify(); }
  void flush() override { inner_.flush(); }
  [[nodiscard]] freqdedup::BackupStoreStats stats() const override {
    return inner_.stats();
  }
  [[nodiscard]] freqdedup::obs::MetricsSnapshot metricsSnapshot()
      const override {
    return inner_.metricsSnapshot();
  }
  [[nodiscard]] size_t containerCount() const override {
    return inner_.containerCount();
  }

 private:
  Tracer::Context context() const {
    std::lock_guard lock(mu_);
    return context_;
  }

  BackupStore& inner_;
  Tracer& tracer_;
  mutable std::mutex mu_;  // guards context_
  Tracer::Context context_;
};

using Ciphertexts = std::unordered_map<Fp, ByteVec>;

/// Every ciphertext the chain's recipes name, read once before the timed
/// phase of a traced run for the decrypt replay.
Ciphertexts readCiphertexts(const RestoreInput& input) {
  std::vector<Fp> fps;
  for (const freqdedup::FileRecipe& file : input.files)
    for (const freqdedup::RecipeEntry& entry : file.entries)
      fps.push_back(entry.cipherFp);
  std::sort(fps.begin(), fps.end());
  fps.erase(std::unique(fps.begin(), fps.end()), fps.end());
  freqdedup::FileBackupStore store(kStoreDir);
  std::vector<ByteVec> chunks = store.getChunks(fps);
  Ciphertexts out;
  for (size_t i = 0; i < fps.size(); ++i)
    out.emplace(fps[i], std::move(chunks[i]));
  return out;
}

/// The engine's decrypt+verify stage has no public entry point, so the
/// traced run replays it after each restore — fpOfContent on the
/// ciphertext, decryptWithKey, fpOfContent on the plaintext — over the
/// restored snapshot's chunks.
void replayDecrypt(const Ciphertexts& fetched,
                   const freqdedup::FileRecipe& file,
                   const freqdedup::KeyRecipe& keys, Tracer& tracer,
                   Report& report) {
  bool ok = true;
  for (size_t i = 0; i < file.entries.size(); ++i) {
    const freqdedup::RecipeEntry& entry = file.entries[i];
    const auto it = fetched.find(entry.cipherFp);
    if (it == fetched.end()) {
      ok = false;
      continue;
    }
    {
      Tracer::Span span(tracer, Layer::kFingerprint);
      ok &= freqdedup::fpOfContent(it->second) == entry.cipherFp;
    }
    ByteVec plain;
    {
      Tracer::Span span(tracer, Layer::kDecrypt);
      plain = freqdedup::MleScheme::decryptWithKey(keys.keys[i], it->second);
    }
    Tracer::Span span(tracer, Layer::kFingerprint);
    ok &= freqdedup::fpOfContent(plain) == entry.plainFp;
  }
  report.op(ok, file.fileName + ": replayed decryption disagrees with recipe");
}

struct Pass {
  bool traced = false;
  double seconds = 0;  // store open + restores, without the checks
  uint64_t bytes = 0;
  std::vector<double> restoreSeconds;
  uint64_t containerLoads = 0;
  uint64_t cacheHits = 0;
  uint64_t cacheEvictions = 0;
};

Pass runPass(const Options& options, const RestoreInput& input,
             uint64_t cacheBytes, const Ciphertexts& ciphertexts,
             Tracer& tracer, Report& report) {
  Pass pass;
  pass.traced = tracer.enabled();
  const double start = nowSeconds();
  freqdedup::StoreOptions storeOptions;
  storeOptions.blockCacheBytes = cacheBytes;
  freqdedup::FileBackupStore store(kStoreDir, storeOptions);
  std::optional<TracedStore> traced;
  if (tracer.enabled()) traced.emplace(store, tracer);
  freqdedup::RestoreOptions restore;
  restore.parallelism = options.threads;
  DedupClient client(traced ? static_cast<BackupStore&>(*traced)
                            : static_cast<BackupStore&>(store),
                     restore);
  pass.seconds = nowSeconds() - start;

  ByteVec buffer;
  for (size_t s = input.sizes.size(); s-- > 0;) {
    const std::string name = snapshotName(s);
    buffer.clear();
    buffer.reserve(input.sizes[s]);
    try {
      tracer.beginRequest(name);
      const double t0 = nowSeconds();
      {
        Tracer::Span span(tracer, Layer::kRestore);
        if (traced) traced->setContext(tracer.currentContext());
        client.beginRestore(name, userKey(0)).streamTo([&](ByteView b) {
          buffer.insert(buffer.end(), b.begin(), b.end());
        });
      }
      const double seconds = nowSeconds() - t0;
      pass.restoreSeconds.push_back(seconds);
      pass.seconds += seconds;
      pass.bytes += buffer.size();
      report.op(buffer.size() == input.sizes[s] &&
                    freqdedup::sha256(buffer) == input.digests[s],
                name + ": restored bytes differ from the snapshot");
      if (traced)
        replayDecrypt(ciphertexts, input.files[s], input.keys[s], tracer,
                      report);
    } catch (const std::exception& e) {
      report.op(false, name + ": " + e.what());
    }
  }
  const auto snap = store.metricsSnapshot();
  pass.containerLoads = snap.counter("store.container_loads");
  pass.cacheHits = snap.counter("store.read_cache_hits");
  pass.cacheEvictions = snap.counter("cache.evictions");
  return pass;
}

}  // namespace

void runRestoreChain(const Options& options, Report& report) {
  const ChainParams params = chainParams(options.quick);
  report.header("sizes.image_target_bytes",
                static_cast<double>(params.imageBytes));
  report.header("sizes.snapshots", params.snapshots);

  const RestoreInput input = timedSetup<RestoreInput>(
      options, report, [&] { return setUp(options, params); },
      inputFingerprint);
  // At most half the unique bytes, whole MiB: the working set outgrows it.
  const uint64_t cacheBytes =
      std::max<uint64_t>(1 << 20, (input.uniqueBytes / 2) >> 20 << 20);
  report.header("sizes.chain_logical_bytes",
                static_cast<double>(input.chainBytes));
  report.header("store.unique_bytes", static_cast<double>(input.uniqueBytes));
  report.header("store.block_cache_bytes", static_cast<double>(cacheBytes));
  report.header("store.containers", static_cast<double>(input.containers));
  report.header("store.container_bytes",
                static_cast<double>(input.containerBytes));

  const Ciphertexts ciphertexts =
      options.traced() ? readCiphertexts(input) : Ciphertexts{};
  PeakMemory peak;
  Tracers tracers(options.traced());
  const std::vector<Pass> passes =
      repeatTimed(options, tracers, peak, [&](Tracer& tracer) {
        return runPass(options, input, cacheBytes, ciphertexts, tracer,
                       report);
      });
  report.header("passes", static_cast<double>(passes.size()));

  if (!options.traced()) {
    std::vector<double> rates, latencies;
    for (const Pass& p : passes) {
      rates.push_back(static_cast<double>(p.bytes) / 1e6 / p.seconds);
      for (const double s : p.restoreSeconds) latencies.push_back(s * 1e3);
    }
    report.header("latency_samples", static_cast<double>(latencies.size()));
    report.metric("mb_per_s", median(rates), "MB/s");
    report.metric("p50_ms", percentile(latencies, 0.50), "ms");
    report.metric("p90_ms", percentile(latencies, 0.90), "ms");
    report.metric("stored_bytes_per_logical_byte",
                  static_cast<double>(input.uniqueBytes) /
                      static_cast<double>(input.chainBytes),
                  "ratio");
    peak.report(report);
    return;
  }

  Tracer& tracer = tracers.traced();
  reportLayerDefaults(report, tracer);
  uint64_t loads = 0, hits = 0, evictions = 0, bytes = 0;
  std::vector<double> seconds[2];  // [traced]
  for (const Pass& p : passes) {
    seconds[p.traced].push_back(p.seconds);
    if (!p.traced) continue;
    loads += p.containerLoads;
    hits += p.cacheHits;
    evictions += p.cacheEvictions;
    bytes += p.bytes;
  }
  report.metric("storage.container_loads", static_cast<double>(loads),
                "count");
  report.metric("storage.cache_hit_ratio",
                hits + loads == 0 ? 0.0
                                  : static_cast<double>(hits) /
                                        static_cast<double>(hits + loads),
                "ratio");
  report.metric("storage.cache_evictions", static_cast<double>(evictions),
                "count");
  // Container bytes loaded, at the store's mean container size.
  const double meanContainer =
      input.containers == 0 ? 0.0
                            : static_cast<double>(input.containerBytes) /
                                  static_cast<double>(input.containers);
  report.metric("storage.read_amplification",
                bytes == 0 ? 0.0
                           : static_cast<double>(loads) * meanContainer /
                                 static_cast<double>(bytes),
                "ratio");
  report.metric("trace.overhead_pct", overheadPct(seconds[0], seconds[1]),
                "%");
  tracer.writeChromeTrace(options.tracePath);
}

}  // namespace fddbench
