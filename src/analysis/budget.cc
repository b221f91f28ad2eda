#include "analysis/budget.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "obs/metrics.h"

namespace freqdedup::analysis {

namespace {

/// Process-wide analysis-build metrics, resolved once.
struct AnalysisMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Counter& planSerial = reg.counter("analysis.plan_serial");
  obs::Counter& planParallel = reg.counter("analysis.plan_parallel");
  obs::Counter& planSpill = reg.counter("analysis.plan_spill");
  obs::Counter& spillBytes = reg.counter("analysis.spill_bytes");
  obs::Counter& spillFiles = reg.counter("analysis.spill_files");
  obs::Counter& shards = reg.counter("analysis.shards");
  obs::Histogram& peakTracked = reg.histogram("analysis.peak_tracked_bytes");

  static AnalysisMetrics& get() {
    static AnalysisMetrics m;
    return m;
  }
};

std::string errnoText() { return std::strerror(errno); }

// Cost-model constants. The parallel counting plan rescans the stream once
// per worker, so it only pays when the count column misses cache (large
// unique) and the stream is long enough to amortize dispatch; the parallel
// neighbor partition only pays when there are enough pairs to split.
constexpr size_t kMinParallelRecords = 2u << 20;
constexpr size_t kMinParallelUnique = 1u << 16;
constexpr size_t kMinUniquePerWorker = 1024;
constexpr size_t kMinParallelPairs = 1u << 20;
constexpr size_t kMaxShards = 512;
constexpr uint64_t kMinShardLoadBytes = 4096;
constexpr uint64_t kMinFlushBufBytes = 4096;
constexpr uint64_t kMaxFlushBufBytes = 64u << 10;

}  // namespace

uint32_t hardwareThreads() {
  static const uint32_t hw =
      std::max(1u, std::thread::hardware_concurrency());
  return hw;
}

FrequencyPlanChoice chooseFrequencyPlan(size_t records, size_t unique,
                                        uint32_t threads, uint32_t hwThreads,
                                        ComputePlan plan) {
  FrequencyPlanChoice choice;
  if (plan == ComputePlan::kSerial) return choice;
  if (plan == ComputePlan::kParallel) {
    choice.workers = std::max(threads, 2u);
    return choice;
  }
  const uint32_t workers = std::min(threads, std::max(1u, hwThreads));
  if (workers <= 1) return choice;
  // Sub-range counting allocates nothing, so the budget never forbids it;
  // it pays when the stream is long, the count column is big enough to miss
  // cache, and every worker owns a meaningful ID range.
  if (records < kMinParallelRecords || unique < kMinParallelUnique ||
      unique < static_cast<size_t>(workers) * kMinUniquePerWorker) {
    return choice;
  }
  choice.workers = workers;
  return choice;
}

uint64_t neighborInMemoryEstimate(size_t pairs, size_t unique) {
  // The counting-sort build holds one value column with a slot per pair
  // (4 B each) and one row-position column with a slot per unique ID plus
  // one (4 B each). The CSR offsets and entries are the build's output, not
  // intermediates, and are excluded (as is the input stream).
  return 4u * static_cast<uint64_t>(pairs) +
         4u * (static_cast<uint64_t>(unique) + 1);
}

NeighborPlanChoice chooseNeighborPlan(size_t pairs, size_t unique,
                                      uint32_t threads, uint32_t hwThreads,
                                      const AnalysisBudget& budget,
                                      ComputePlan plan, SpillPlan spill) {
  NeighborPlanChoice choice;
  const uint64_t pairsBytes = 8u * static_cast<uint64_t>(pairs);
  choice.spill = spill == SpillPlan::kForce ||
                 (budget.memoryBytes > 0 &&
                  neighborInMemoryEstimate(pairs, unique) > budget.memoryBytes);

  if (plan == ComputePlan::kSerial) {
    choice.workers = 1;
  } else if (plan == ComputePlan::kParallel) {
    choice.workers = std::clamp<uint32_t>(threads, 2, 64);
  } else {
    choice.workers = std::min({threads, std::max(1u, hwThreads), 64u});
    if (choice.workers > 1 && pairs < kMinParallelPairs) choice.workers = 1;
  }

  if (!choice.spill) {
    choice.shards = choice.workers;
    return choice;
  }

  // Spill plan: shard count follows from the per-shard sort load the budget
  // allows. A wave loads `workers` shards concurrently, so each load gets a
  // worker's share of a third of the budget (raw loads + RLE output +
  // slack), floored so tiny test budgets still shard instead of
  // degenerating to one pair per file.
  const uint64_t perLoad =
      budget.memoryBytes > 0
          ? budget.memoryBytes / (3 * std::max<uint64_t>(choice.workers, 1))
          : pairsBytes;
  choice.shardLoadBytes = std::max(perLoad, kMinShardLoadBytes);
  const uint64_t wanted =
      pairsBytes == 0 ? 1 : (pairsBytes + choice.shardLoadBytes - 1) /
                                choice.shardLoadBytes;
  choice.shards = std::clamp<uint64_t>(wanted, choice.workers, kMaxShards);

  // Partition write buffers: one per worker per shard, sized so the whole
  // buffer pool stays within a quarter of the budget.
  const uint64_t pool = budget.memoryBytes > 0
                            ? budget.memoryBytes / 4
                            : kMaxFlushBufBytes * choice.workers *
                                  choice.shards;
  choice.flushBufBytes = std::clamp(
      pool / (static_cast<uint64_t>(choice.workers) * choice.shards),
      kMinFlushBufBytes, kMaxFlushBufBytes);
  return choice;
}

SpillDir::SpillDir(const std::string& base) {
  namespace fs = std::filesystem;
  const fs::path baseDir =
      base.empty() ? fs::temp_directory_path() : fs::path(base);
  static std::atomic<uint64_t> seq{0};
  const std::string name =
      "fdd-analysis-spill-" + std::to_string(::getpid()) + "-" +
      std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
  std::error_code ec;
  const fs::path dir = baseDir / name;
  if (!fs::create_directories(dir, ec) || ec) {
    throw std::runtime_error("analysis spill: cannot create spill dir " +
                             dir.string() + ": " +
                             (ec ? ec.message() : "already exists"));
  }
  path_ = dir;
}

SpillDir::~SpillDir() {
  if (path_.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);  // best-effort cleanup
}

SpillFileWriter::SpillFileWriter(const std::filesystem::path& path)
    : path_(path) {
  f_ = std::fopen(path.c_str(), "wb");
  if (f_ == nullptr) {
    throw std::runtime_error("analysis spill: cannot create " +
                             path.string() + ": " + errnoText());
  }
}

SpillFileWriter::~SpillFileWriter() {
  if (f_ != nullptr) std::fclose(f_);
}

void SpillFileWriter::write(const void* data, size_t bytes) {
  if (std::fwrite(data, 1, bytes, f_) != bytes) {
    throw std::runtime_error("analysis spill: write failed on " +
                             path_.string() + ": " + errnoText());
  }
  bytes_ += bytes;
}

void SpillFileWriter::finish() {
  if (f_ == nullptr) return;
  const bool flushOk = std::fflush(f_) == 0;
  std::fclose(f_);
  f_ = nullptr;
  if (!flushOk) {
    throw std::runtime_error("analysis spill: flush failed on " +
                             path_.string() + ": " + errnoText());
  }
}

void readSpillFile(const std::filesystem::path& path,
                   std::vector<uint64_t>& out) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("analysis spill: cannot open " + path.string() +
                             ": " + errnoText());
  }
  std::error_code ec;
  const uint64_t size = std::filesystem::file_size(path, ec);
  if (ec || size % sizeof(uint64_t) != 0) {
    std::fclose(f);
    throw std::runtime_error("analysis spill: bad size for " + path.string());
  }
  out.resize(size / sizeof(uint64_t));
  const size_t read = std::fread(out.data(), sizeof(uint64_t), out.size(), f);
  std::fclose(f);
  if (read != out.size()) {
    throw std::runtime_error("analysis spill: short read on " +
                             path.string());
  }
}

void streamSpillFile(
    const std::filesystem::path& path, size_t chunkBytes,
    const std::function<void(const uint64_t*, size_t)>& consume) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("analysis spill: cannot open " + path.string() +
                             ": " + errnoText());
  }
  const size_t chunkWords =
      std::max<size_t>(1, chunkBytes / sizeof(uint64_t));
  std::vector<uint64_t> buf(chunkWords);
  for (;;) {
    const size_t read = std::fread(buf.data(), sizeof(uint64_t), buf.size(), f);
    if (read > 0) consume(buf.data(), read);
    if (read < buf.size()) {
      const bool err = std::ferror(f) != 0;
      std::fclose(f);
      if (err) {
        throw std::runtime_error("analysis spill: read failed on " +
                                 path.string());
      }
      return;
    }
  }
}

void reportBuildStats(const AnalysisBuildStats& stats) {
  AnalysisMetrics& m = AnalysisMetrics::get();
  const std::string_view plan = stats.plan;
  if (plan == "spill") {
    m.planSpill.add();
  } else if (plan == "parallel") {
    m.planParallel.add();
  } else {
    m.planSerial.add();
  }
  m.spillBytes.add(stats.spillBytes);
  m.spillFiles.add(stats.spillFiles);
  m.shards.add(stats.shards);
  m.peakTracked.record(stats.peakTrackedBytes);
}

}  // namespace freqdedup::analysis
