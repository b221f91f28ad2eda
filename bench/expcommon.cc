#include "expcommon.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "chunking/cdc_chunker.h"
#include "datagen/fsl_gen.h"
#include "datagen/snapshot_gen.h"
#include "datagen/vm_gen.h"
#include "pipeline/thread_pool.h"

namespace freqdedup::exp {

double benchScale() {
  static const double scale = [] {
    const char* env = std::getenv("FDD_BENCH_SCALE");
    if (env == nullptr) return kDefaultBenchScale;
    char* end = nullptr;
    const double parsed = std::strtod(env, &end);
    if (end == env || *end != '\0' || !(parsed >= 0.1) || parsed > 1000.0) {
      fprintf(stderr, "warning: invalid FDD_BENCH_SCALE '%s'; using %.1f\n",
              env, kDefaultBenchScale);
      return kDefaultBenchScale;
    }
    return parsed;
  }();
  return scale;
}

namespace {

size_t scaleCount(size_t base) {
  return static_cast<size_t>(std::llround(base * benchScale()));
}

Dataset makeFsl() {
  FslGenParams params;
  params.filesPerUser =
      static_cast<int>(scaleCount(static_cast<size_t>(params.filesPerUser)));
  params.sharedTemplateFiles = scaleCount(params.sharedTemplateFiles);
  return generateFslDataset(params);
}

Dataset makeVm() {
  VmGenParams params;
  params.baseImageChunks = scaleCount(params.baseImageChunks);
  return generateVmDataset(params);
}

Dataset makeSyn() {
  const CdcChunker chunker;  // 2 KB / 8 KB / 16 KB
  CorpusParams corpus;
  corpus.fileCount =
      static_cast<int>(scaleCount(static_cast<size_t>(corpus.fileCount)));
  corpus.targetBytes = static_cast<uint64_t>(
      std::llround(static_cast<double>(corpus.targetBytes) * benchScale()));
  return generateSyntheticDataset(corpus, SnapshotGenParams{}, chunker);
}

}  // namespace

size_t scaledW() { return scaleCount(2000); }
size_t scaledWKnownPlaintext() { return scaleCount(5000); }

const Dataset& fslDataset() {
  static const Dataset dataset = makeFsl();
  return dataset;
}

const Dataset& vmDataset() {
  static const Dataset dataset = makeVm();
  return dataset;
}

const Dataset& synDataset() {
  static const Dataset dataset = makeSyn();
  return dataset;
}

int fpBitsFor(const Dataset& dataset) {
  return dataset.name == "synthetic" ? kFullFpBits : kFslFpBits;
}

uint64_t avgChunkBytesFor(const Dataset& dataset) {
  return dataset.name == "vm-like" ? 4096 : 8192;
}

EncryptedTrace encryptTarget(const Dataset& dataset, size_t backupIndex) {
  return mleEncryptTrace(dataset.backups.at(backupIndex).records,
                         fpBitsFor(dataset), hardwareThreads());
}

analysis::AttackEngine attackEngine(const EncryptedTrace& target,
                                    const std::vector<ChunkRecord>& aux) {
  return analysis::AttackEngine::fromRecords(target.records, aux,
                                             {.threads = hardwareThreads()});
}

double ratePct(const AttackResult& result, const EncryptedTrace& target) {
  return 100.0 * inferenceRate(result, target);
}

AttackConfig ciphertextOnlyConfig(bool sizeAware) {
  AttackConfig config;
  config.u = 1;
  config.v = 15;
  config.w = scaledW();
  config.sizeAware = sizeAware;
  return config;
}

AttackConfig knownPlaintextConfig(bool sizeAware, const EncryptedTrace& target,
                                  double leakagePct, uint64_t seed) {
  AttackConfig config;
  config.mode = AttackMode::kKnownPlaintext;
  config.v = 15;
  config.w = scaledWKnownPlaintext();
  config.sizeAware = sizeAware;
  Rng rng(seed);
  config.leakedPairs = sampleLeakedPairs(target, leakagePct / 100.0, rng);
  return config;
}

void printTitle(const std::string& figure, const std::string& caption) {
  printf("\n=== %s — %s ===\n", figure.c_str(), caption.c_str());
}

void printRow(const std::vector<std::string>& cells) {
  for (const auto& cell : cells) printf("%-14s", cell.c_str());
  printf("\n");
}

std::string fmtPct(double pct) {
  char buf[32];
  if (pct != 0.0 && pct < 0.01) {
    snprintf(buf, sizeof(buf), "%.4f%%", pct);
  } else {
    snprintf(buf, sizeof(buf), "%.2f%%", pct);
  }
  return buf;
}

std::string fmtDouble(double v, int precision) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace freqdedup::exp
