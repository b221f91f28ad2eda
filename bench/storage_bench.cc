// Compression x deduplication on the FSL- and VM-like corpora.
//
//   storage_bench [--json PATH] [--mb M]
//
// Replays each dataset's backup traces into a fresh persistent store with
// per-container compression enabled, twice per dataset:
//   plain  — chunk payloads are synthesized *plaintext* (text-like bytes,
//            deterministic per fingerprint), the only place compression can
//            win in an encrypted-dedup system (client-side, pre-encryption);
//   mle    — the same chunks convergently encrypted (key = SHA-256(chunk)),
//            demonstrating the paper-relevant negative: ciphertext is
//            incompressible, so the codec frames fall back to the legacy
//            format and the compression ratio stays ~1.0.
// Reported per row: logical MB, unique (post-dedup) MB, physical on-disk MB,
// and the dedup / compression / combined ratios. Physical bytes are measured
// from the container files themselves, so the numbers hold with metrics
// compiled out. --json writes BENCH_storage.json; --mb caps the logical
// bytes replayed per run (default 96 MB) to bound CI time.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/rng.h"
#include "crypto/mle.h"
#include "expcommon.h"
#include "obs/metrics.h"
#include "storage/file_backup_store.h"

namespace freqdedup {
namespace {

namespace fs = std::filesystem;
using exp::fmtDouble;
using exp::printRow;
using exp::printTitle;

constexpr uint64_t kDefaultLogicalCapBytes = 96ull * 1000 * 1000;

/// Deterministic plaintext-like content for a trace fingerprint: a short
/// fp-derived motif repeated with sparse mutations, giving the intra-chunk
/// redundancy real text and VM images have (compresses a few x) while
/// distinct fingerprints still produce distinct bytes.
ByteVec synthPlaintext(Fp fp, uint32_t size) {
  ByteVec bytes(size);
  Rng rng(fp ^ 0x5DEECE66Dull);
  uint8_t motif[64];
  for (auto& b : motif)
    b = static_cast<uint8_t>("etaoin shrdlu cmfwyp"[rng.next() % 20]);
  for (uint32_t i = 0; i < size; ++i) bytes[i] = motif[i % sizeof(motif)];
  // One mutation per ~256 bytes keeps the content from being a pure cycle.
  for (uint32_t at = 0; at < size; at += 256)
    bytes[at + rng.next() % std::min<uint32_t>(256, size - at)] =
        static_cast<uint8_t>(rng.next());
  return bytes;
}

struct RunResult {
  uint64_t logicalBytes = 0;
  uint64_t uniqueRawBytes = 0;
  uint64_t physicalBytes = 0;
  uint64_t compressedContainers = 0;
  uint64_t totalContainers = 0;

  [[nodiscard]] double dedupRatio() const {
    return uniqueRawBytes ? static_cast<double>(logicalBytes) / uniqueRawBytes
                          : 0.0;
  }
  [[nodiscard]] double compressionRatio() const {
    return physicalBytes ? static_cast<double>(uniqueRawBytes) / physicalBytes
                         : 0.0;
  }
  [[nodiscard]] double combinedRatio() const {
    return physicalBytes ? static_cast<double>(logicalBytes) / physicalBytes
                         : 0.0;
  }
};

uint64_t directoryBytes(const std::string& dir) {
  if (!fs::exists(dir)) return 0;
  uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.is_regular_file()) total += entry.file_size();
  return total;
}

/// Replays a dataset's traces into a fresh compressed store. `encrypt`
/// switches the payloads from synthesized plaintext to their convergent
/// (MLE) ciphertext.
RunResult replay(const Dataset& dataset, bool encrypt, uint64_t logicalCap) {
  const std::string dir =
      (fs::temp_directory_path() /
       ("fdd_storage_bench_" + dataset.name + (encrypt ? "_mle" : "_plain")))
          .string();
  fs::remove_all(dir);
  StoreOptions options;
  options.codec = ContainerCodec::kDeflate;
  ConvergentEncryption mle;

  RunResult result;
  {
    FileBackupStore store(dir, options);
    for (const BackupTrace& backup : dataset.backups) {
      for (const ChunkRecord& record : backup.records) {
        if (result.logicalBytes >= logicalCap) break;
        ByteVec bytes = synthPlaintext(record.fp, record.size);
        if (encrypt) bytes = mle.encrypt(bytes);
        result.logicalBytes += bytes.size();
        if (store.putChunk(record.fp, bytes))
          result.uniqueRawBytes += bytes.size();
      }
      if (result.logicalBytes >= logicalCap) break;
    }
    store.flush();
    if (obs::kObsEnabled) {
      const obs::MetricsSnapshot ms = store.metricsSnapshot();
      result.compressedContainers = ms.counter("store.compressed_containers");
    }
    result.totalContainers = store.containerCount();
  }
  result.physicalBytes = directoryBytes(dir + "/containers") +
                         directoryBytes(dir + "/cold");
  fs::remove_all(dir);
  return result;
}

void writeJson(const std::string& path,
               const std::vector<std::pair<std::string, RunResult>>& plain,
               const std::vector<std::pair<std::string, RunResult>>& mle) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const auto emit = [&](const RunResult& r) {
    fprintf(f,
            "{\"logical_mb\": %.2f, \"unique_mb\": %.2f, "
            "\"physical_mb\": %.2f, \"dedup_ratio\": %.3f, "
            "\"compression_ratio\": %.3f, \"combined_ratio\": %.3f, "
            "\"compressed_containers\": %llu, \"total_containers\": %llu}",
            r.logicalBytes / 1e6, r.uniqueRawBytes / 1e6,
            r.physicalBytes / 1e6, r.dedupRatio(), r.compressionRatio(),
            r.combinedRatio(),
            static_cast<unsigned long long>(r.compressedContainers),
            static_cast<unsigned long long>(r.totalContainers));
  };
  fprintf(f, "{\n  \"bench\": \"storage_compression_dedup\",\n");
  fprintf(f, "  \"codec\": \"%s\",\n", codecName(ContainerCodec::kDeflate));
  fprintf(f, "  \"datasets\": {\n");
  for (size_t i = 0; i < plain.size(); ++i) {
    fprintf(f, "    \"%s\": {\"plain\": ", plain[i].first.c_str());
    emit(plain[i].second);
    fprintf(f, ", \"mle\": ");
    emit(mle[i].second);
    fprintf(f, "}%s\n", i + 1 < plain.size() ? "," : "");
  }
  fprintf(f, "  },\n  \"obs_enabled\": %s\n}\n",
          obs::kObsEnabled ? "true" : "false");
  fclose(f);
  printf("wrote %s\n", path.c_str());
}

int run(int argc, char** argv) {
  const std::string jsonPath =
      exp::stringFlag(argc, argv, "json", "BENCH_storage.json");
  const uint64_t logicalCap = exp::bytesFlag(
      argc, argv, "mb", kDefaultLogicalCapBytes / 1'000'000) * 1'000'000;

  printTitle("storage", "compression x dedup, codec=" +
                            std::string(codecName(ContainerCodec::kDeflate)));
  printRow({"dataset", "payload", "logical MB", "unique MB", "physical MB",
            "dedup", "compress", "combined"});

  std::vector<std::pair<std::string, RunResult>> plainRuns, mleRuns;
  for (const Dataset* dataset : {&exp::fslDataset(), &exp::vmDataset()}) {
    for (const bool encrypt : {false, true}) {
      const RunResult r = replay(*dataset, encrypt, logicalCap);
      printRow({dataset->name, encrypt ? "mle" : "plain",
                fmtDouble(r.logicalBytes / 1e6, 1),
                fmtDouble(r.uniqueRawBytes / 1e6, 1),
                fmtDouble(r.physicalBytes / 1e6, 1),
                fmtDouble(r.dedupRatio()) + "x",
                fmtDouble(r.compressionRatio()) + "x",
                fmtDouble(r.combinedRatio()) + "x"});
      (encrypt ? mleRuns : plainRuns).emplace_back(dataset->name, r);
    }
  }

  // The bench's two headline claims, enforced so CI notices regressions:
  // plaintext payloads must compress, ciphertext payloads must not.
  for (const auto& [name, r] : plainRuns) {
    if (r.compressionRatio() < 1.2) {
      fprintf(stderr, "FAIL: %s plain compression ratio %.3f < 1.2\n",
              name.c_str(), r.compressionRatio());
      return 1;
    }
  }
  for (const auto& [name, r] : mleRuns) {
    if (r.compressionRatio() > 1.05) {
      fprintf(stderr,
              "FAIL: %s mle compression ratio %.3f > 1.05 "
              "(ciphertext should be incompressible)\n",
              name.c_str(), r.compressionRatio());
      return 1;
    }
  }

  if (!jsonPath.empty()) writeJson(jsonPath, plainRuns, mleRuns);
  return 0;
}

}  // namespace
}  // namespace freqdedup

int main(int argc, char** argv) { return freqdedup::run(argc, argv); }
