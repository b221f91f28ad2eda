// Registry/metric semantics: exact totals under concurrency, deterministic
// snapshot rendering, merge/delta arithmetic, and name/kind discipline.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

namespace freqdedup::obs {
namespace {

TEST(Counter, SingleThreadedTotal) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, AddSubGoesNegative) {
  Gauge g;
  g.add(5);
  g.sub(8);
  EXPECT_EQ(g.value(), -3);
  g.add(3);
  EXPECT_EQ(g.value(), 0);
}

TEST(Histogram, BucketScheme) {
  EXPECT_EQ(Histogram::bucketOf(0), 0u);
  EXPECT_EQ(Histogram::bucketOf(1), 1u);
  EXPECT_EQ(Histogram::bucketOf(2), 2u);
  EXPECT_EQ(Histogram::bucketOf(3), 2u);
  EXPECT_EQ(Histogram::bucketOf(4), 3u);
  EXPECT_EQ(Histogram::bucketOf(UINT64_MAX), 64u);
  EXPECT_EQ(Histogram::bucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::bucketLowerBound(1), 1u);
  EXPECT_EQ(Histogram::bucketLowerBound(5), 16u);
  // Every value lands in the bucket whose range contains it.
  for (uint64_t v : {1ull, 7ull, 1024ull, 123456789ull}) {
    const size_t b = Histogram::bucketOf(v);
    EXPECT_GE(v, Histogram::bucketLowerBound(b));
    EXPECT_LT(v, Histogram::bucketLowerBound(b + 1));
  }
}

TEST(Histogram, DataAggregation) {
  Histogram h;
  EXPECT_EQ(h.data().count, 0u);
  EXPECT_EQ(h.data().min, 0u);  // empty histogram reads 0, not the sentinel
  h.record(0);
  h.record(3);
  h.record(1000);
  const HistogramData d = h.data();
  EXPECT_EQ(d.count, 3u);
  EXPECT_EQ(d.sum, 1003u);
  EXPECT_EQ(d.min, 0u);
  EXPECT_EQ(d.max, 1000u);
  ASSERT_EQ(d.buckets.size(), 3u);  // zero, [2,4), [512,1024)
  EXPECT_EQ(d.buckets[0], (std::pair<uint64_t, uint64_t>{0, 1}));
  EXPECT_EQ(d.buckets[1], (std::pair<uint64_t, uint64_t>{2, 1}));
  EXPECT_EQ(d.buckets[2], (std::pair<uint64_t, uint64_t>{512, 1}));
  EXPECT_DOUBLE_EQ(d.mean(), 1003.0 / 3.0);
  EXPECT_EQ(d.quantile(0.0), 0u);
  EXPECT_EQ(d.quantile(1.0), 512u);
}

TEST(Registry, StableHandlesAndKindMismatch) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x.count");
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  EXPECT_THROW(reg.gauge("x.count"), std::logic_error);
  EXPECT_THROW(reg.histogram("x.count"), std::logic_error);
  reg.gauge("x.level");
  EXPECT_THROW(reg.counter("x.level"), std::logic_error);
}

TEST(Registry, ConcurrentExactTotals) {
  // N threads x M metrics, every thread hits every metric: totals must be
  // exact (wait-free sharded cells lose nothing), not merely approximate.
  constexpr int kThreads = 8;
  constexpr int kMetrics = 5;
  constexpr int kIters = 20000;
  MetricsRegistry reg;
  std::vector<Counter*> counters;
  std::vector<Gauge*> gauges;
  std::vector<Histogram*> hists;
  for (int m = 0; m < kMetrics; ++m) {
    counters.push_back(&reg.counter("c" + std::to_string(m)));
    gauges.push_back(&reg.gauge("g" + std::to_string(m)));
    hists.push_back(&reg.histogram("h" + std::to_string(m)));
  }
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        for (int m = 0; m < kMetrics; ++m) {
          counters[m]->add();
          gauges[m]->add(2);
          gauges[m]->sub(1);
          hists[m]->record(static_cast<uint64_t>(i));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int m = 0; m < kMetrics; ++m) {
    EXPECT_EQ(counters[m]->value(), uint64_t{kThreads} * kIters);
    EXPECT_EQ(gauges[m]->value(), int64_t{kThreads} * kIters);
    const HistogramData d = hists[m]->data();
    EXPECT_EQ(d.count, uint64_t{kThreads} * kIters);
    EXPECT_EQ(d.sum, uint64_t{kThreads} * kIters * (kIters - 1) / 2);
    EXPECT_EQ(d.min, 0u);
    EXPECT_EQ(d.max, uint64_t{kIters} - 1);
  }
}

TEST(Snapshot, DeterministicRendering) {
  MetricsRegistry reg;
  reg.counter("b.count").add(7);
  reg.counter("a.count").add(3);
  reg.gauge("q.depth").add(2);
  reg.histogram("l.us").record(100);
  reg.histogram("l.us").record(900);

  const MetricsSnapshot s1 = reg.snapshot();
  const MetricsSnapshot s2 = reg.snapshot();
  // Two snapshots of identical state render byte-identically in both
  // formats — the contract CI diffing and golden files rely on.
  EXPECT_EQ(s1.toText(), s2.toText());
  EXPECT_EQ(s1.toJson(), s2.toJson());
  EXPECT_EQ(s1.counter("a.count"), 3u);
  EXPECT_EQ(s1.counter("missing"), 0u);
  // Sorted keys: "a.count" renders before "b.count".
  const std::string json = s1.toJson();
  EXPECT_LT(json.find("a.count"), json.find("b.count"));
  EXPECT_EQ(json.find('\n'), std::string::npos);  // single line
}

TEST(Snapshot, MergeAndDelta) {
  MetricsRegistry regA;
  regA.counter("n").add(10);
  regA.gauge("g").add(5);
  regA.histogram("h").record(4);
  MetricsRegistry regB;
  regB.counter("n").add(1);
  regB.counter("only_b").add(2);
  regB.gauge("g").sub(1);
  regB.histogram("h").record(16);

  MetricsSnapshot merged = regA.snapshot();
  merged.merge(regB.snapshot());
  EXPECT_EQ(merged.counter("n"), 11u);
  EXPECT_EQ(merged.counter("only_b"), 2u);
  EXPECT_EQ(merged.gauge("g"), 4);
  EXPECT_EQ(merged.histogram("h").count, 2u);
  EXPECT_EQ(merged.histogram("h").sum, 20u);

  regA.counter("n").add(5);
  regA.histogram("h").record(4);
  const MetricsSnapshot later = regA.snapshot();
  const MetricsSnapshot diff = later.delta(regA.snapshot().delta({}));
  EXPECT_EQ(diff.counter("n"), 0u);  // identical snapshots cancel
  const MetricsSnapshot interval = later.delta(merged);
  // Saturating: only_b exists only in the earlier snapshot; no underflow.
  EXPECT_EQ(interval.counter("only_b"), 0u);
  EXPECT_EQ(interval.counter("n"), 4u);
}

}  // namespace
}  // namespace freqdedup::obs
