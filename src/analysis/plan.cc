#include "analysis/plan.h"

#include <algorithm>
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
  obs::Counter& shards = reg.counter("analysis.shards");

  static AnalysisMetrics& get() {
    static AnalysisMetrics m;
    return m;
  }
};

// Cost-model constants. The parallel counting plan rescans the stream once
// per worker, so it only pays when the count column misses cache (large
// unique) and the stream is long enough to amortize dispatch; the parallel
// neighbor build only pays when there are enough pairs to split.
constexpr size_t kMinParallelRecords = 2u << 20;
constexpr size_t kMinParallelUnique = 1u << 16;
constexpr size_t kMinUniquePerWorker = 1024;
constexpr size_t kMinParallelPairs = 1u << 20;

}  // namespace

uint32_t hardwareThreads() {
  static const uint32_t hw =
      std::max(1u, std::thread::hardware_concurrency());
  return hw;
}

PlanChoice chooseFrequencyPlan(size_t records, size_t unique, uint32_t threads,
                               uint32_t hwThreads, ComputePlan plan) {
  PlanChoice choice;
  if (plan == ComputePlan::kSerial) return choice;
  if (plan == ComputePlan::kParallel) {
    choice.workers = std::max(threads, 2u);
    return choice;
  }
  const uint32_t workers = std::min(threads, std::max(1u, hwThreads));
  if (workers <= 1) return choice;
  // Sub-range counting allocates nothing; it pays when the stream is long,
  // the count column is big enough to miss cache, and every worker owns a
  // meaningful ID range.
  if (records < kMinParallelRecords || unique < kMinParallelUnique ||
      unique < static_cast<size_t>(workers) * kMinUniquePerWorker) {
    return choice;
  }
  choice.workers = workers;
  return choice;
}

PlanChoice chooseNeighborPlan(size_t pairs, uint32_t threads,
                              uint32_t hwThreads, ComputePlan plan) {
  PlanChoice choice;
  if (plan == ComputePlan::kSerial) return choice;
  if (plan == ComputePlan::kParallel) {
    choice.workers = std::clamp<uint32_t>(threads, 2, 64);
    return choice;
  }
  const uint32_t workers = std::min({threads, std::max(1u, hwThreads), 64u});
  if (workers > 1 && pairs >= kMinParallelPairs) choice.workers = workers;
  return choice;
}

void reportBuildStats(const AnalysisBuildStats& stats) {
  AnalysisMetrics& m = AnalysisMetrics::get();
  if (std::string_view(stats.plan) == "parallel") {
    m.planParallel.add();
  } else {
    m.planSerial.add();
  }
  m.shards.add(stats.shards);
}

}  // namespace freqdedup::analysis
