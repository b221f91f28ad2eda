// The index builds' cost model (analysis/plan.h): when the serial and
// parallel plans are chosen, how the forced plans override it, and that a
// build reports the plan it ran. The hardware thread count is a parameter
// of the choice functions, so every case is machine-independent.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/neighbor_index.h"
#include "analysis/plan.h"
#include "analysis/stream_index.h"
#include "obs/metrics.h"

namespace freqdedup::analysis {
namespace {

constexpr size_t kManyPairs = size_t{4} << 20;

TEST(ComputePlan, NeighborAutoStaysSerialOnShortStreams) {
  EXPECT_EQ(chooseNeighborPlan((1u << 20) - 1, 8, 8, ComputePlan::kAuto)
                .workers,
            1u);
  EXPECT_EQ(chooseNeighborPlan(1u << 20, 8, 8, ComputePlan::kAuto).workers,
            8u);
}

TEST(ComputePlan, NeighborAutoCapsWorkersAtHardwareThreads) {
  // An oversubscribed thread count falls back to the real cores, and a
  // single core means the serial plan.
  EXPECT_EQ(chooseNeighborPlan(kManyPairs, 8, 2, ComputePlan::kAuto).workers,
            2u);
  EXPECT_EQ(chooseNeighborPlan(kManyPairs, 8, 1, ComputePlan::kAuto).workers,
            1u);
  EXPECT_EQ(
      chooseNeighborPlan(kManyPairs, 128, 128, ComputePlan::kAuto).workers,
      64u);
}

TEST(ComputePlan, ForcedPlansOverrideTheCostModel) {
  EXPECT_EQ(
      chooseNeighborPlan(kManyPairs, 8, 8, ComputePlan::kSerial).workers, 1u);
  EXPECT_EQ(chooseNeighborPlan(2, 1, 1, ComputePlan::kParallel).workers, 2u);
  EXPECT_EQ(chooseNeighborPlan(2, 100, 1, ComputePlan::kParallel).workers,
            64u);
  EXPECT_EQ(chooseFrequencyPlan(kManyPairs, 1u << 20, 8, 8,
                                ComputePlan::kSerial)
                .workers,
            1u);
  EXPECT_EQ(chooseFrequencyPlan(2, 2, 1, 1, ComputePlan::kParallel).workers,
            2u);
}

TEST(ComputePlan, FrequencyAutoNeedsLongStreamAndWideColumn) {
  constexpr size_t kRecords = size_t{2} << 20;
  constexpr size_t kUnique = size_t{1} << 16;
  EXPECT_EQ(
      chooseFrequencyPlan(kRecords, kUnique, 4, 4, ComputePlan::kAuto).workers,
      4u);
  EXPECT_EQ(chooseFrequencyPlan(kRecords - 1, kUnique, 4, 4,
                                ComputePlan::kAuto)
                .workers,
            1u);
  EXPECT_EQ(chooseFrequencyPlan(kRecords, kUnique - 1, 4, 4,
                                ComputePlan::kAuto)
                .workers,
            1u);
  // Every worker must own at least 1024 IDs of the count column.
  EXPECT_EQ(chooseFrequencyPlan(kRecords, kUnique, 100, 100,
                                ComputePlan::kAuto)
                .workers,
            1u);
  EXPECT_EQ(
      chooseFrequencyPlan(kRecords, kUnique, 4, 1, ComputePlan::kAuto).workers,
      1u);
}

TEST(ComputePlan, ZeroThreadsBuildsSerially) {
  EXPECT_EQ(chooseNeighborPlan(kManyPairs, 0, 8, ComputePlan::kAuto).workers,
            1u);
  EXPECT_EQ(chooseFrequencyPlan(kManyPairs, 1u << 20, 0, 8,
                                ComputePlan::kAuto)
                .workers,
            1u);
  std::vector<ChunkRecord> records;
  for (const Fp fp : {1, 2, 1, 3, 1, 2}) records.push_back({fp, 100});
  const auto stream = ChunkStreamIndex::build(records);
  const NeighborIndex index =
      NeighborIndex::build(stream, NeighborIndex::Side::kRight, 0);
  EXPECT_STREQ(index.buildStats().plan, "serial");
  EXPECT_EQ(index.entryCount(), 4u);  // 1 -> {2, 3}, 2 -> {1}, 3 -> {1}
}

TEST(ComputePlan, BuildReportsItsPlanToMetrics) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "metrics disabled in this build";
  std::vector<ChunkRecord> records;
  for (Fp fp = 0; fp < 200; ++fp) records.push_back({fp % 37, 100});
  const auto stream = ChunkStreamIndex::build(records);
  NeighborBuildOptions options;
  options.threads = 4;
  options.plan = ComputePlan::kParallel;

  const obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
  const NeighborIndex index =
      NeighborIndex::build(stream, NeighborIndex::Side::kLeft, options);
  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::global().snapshot().delta(before);
  EXPECT_STREQ(index.buildStats().plan, "parallel");
  EXPECT_EQ(index.buildStats().shards, 4u);
  EXPECT_EQ(delta.counter("analysis.plan_parallel"), 1u);
  EXPECT_EQ(delta.counter("analysis.plan_serial"), 0u);
  EXPECT_EQ(delta.counter("analysis.shards"), 4u);
}

}  // namespace
}  // namespace freqdedup::analysis
