// Cost-model plan selection for the attack-index builds.
//
// Plan selection is a small cost model instead of a fixed record-count
// threshold: serial vs parallel is chosen from the stream size, the unique
// count and the machine's real core count, so a thread count larger than
// the hardware falls back to the serial plan rather than paying parallel
// setup cost for nothing (on a 1-core machine the parallel plans only lose
// time). Tests force plans via the ComputePlan override so the parallel
// paths stay covered on any machine. Every plan yields bit-identical
// indexes, which is what tests/analysis/ pins.
//
// Every build reports analysis.* metrics through the obs registry: the plan
// chosen and its shard (worker) count.
#pragma once

#include <cstddef>
#include <cstdint>

namespace freqdedup::analysis {

/// Serial-vs-parallel override. kAuto lets the cost model decide from the
/// stream size, unique count and real core count; kSerial/kParallel force a
/// plan (tests pin parallel paths with kParallel on any machine).
enum class ComputePlan : uint8_t { kAuto, kSerial, kParallel };

/// What a build actually did, attached to the built index (available even
/// with obs compiled out) and mirrored into the analysis.* metrics.
struct AnalysisBuildStats {
  const char* plan = "serial";  // "serial" | "parallel"
  uint64_t shards = 1;
};

/// Cached std::thread::hardware_concurrency(), at least 1.
uint32_t hardwareThreads();

/// Chosen plan for an index build: how many workers split its key range.
struct PlanChoice {
  uint32_t workers = 1;
  [[nodiscard]] bool parallel() const { return workers > 1; }
};

/// FrequencyIndex build. The parallel plan is shard-private sub-range
/// counting: each worker owns a disjoint ID range of the one output column
/// and rescans the stream for it, so it allocates nothing.
PlanChoice chooseFrequencyPlan(size_t records, size_t unique, uint32_t threads,
                               uint32_t hwThreads, ComputePlan plan);

/// NeighborIndex build: each worker owns a key range of the counting-sort
/// CSR build.
PlanChoice chooseNeighborPlan(size_t pairs, uint32_t threads,
                              uint32_t hwThreads, ComputePlan plan);

/// Mirrors one build's stats into the global analysis.* metrics.
void reportBuildStats(const AnalysisBuildStats& stats);

}  // namespace freqdedup::analysis
