// Always-on, wait-free metrics registry — the system's one source of truth
// for operational counters (WiredTiger src/support statistics layer is the
// architectural exemplar: cheap unconditional increments on every hot path,
// aggregation deferred to snapshot-on-read).
//
// Three metric kinds, all safe for concurrent update from any thread:
//  - Counter:  monotonic uint64, sharded across cache-line-padded atomic
//    cells keyed by a per-thread slot, so concurrent increments never touch
//    the same cache line (wait-free, contention-free);
//  - Gauge:    signed level (queue depth, window occupancy) with the same
//    sharded add/sub cells — the value is the sum of the cells;
//  - Histogram: log2-bucketed distribution (latencies in microseconds,
//    sizes in bytes) with per-cell count/sum/min/max. Bucket b covers
//    [2^(b-1), 2^b) with bucket 0 reserved for zero, so the bucket scheme
//    is value-range independent and needs no configuration.
//
// A MetricsRegistry names metrics and hands out stable references; the hot
// path never sees the registry again (handles are resolved once). Snapshots
// aggregate the cells into plain maps ordered by name, so two snapshots of
// identical state render byte-identically (text and single-line JSON), and
// support merge (sum) and delta (saturating subtraction) for interval
// measurements.
//
// Scoping: MetricsRegistry::global() serves process-wide subsystems
// (chunking, sessions, pipeline, attack engine). Store instances own their
// own registry so a fresh open starts from zero — the per-connection vs
// per-session scoping split the upcoming server daemon needs.
//
// There is no build without the registry: every update always runs. Its
// cost is below what fddbench's run-to-run spread resolves (README,
// "Overhead").
//
// Naming convention: `subsystem.verb_noun` (e.g. store.container_loads,
// restore.batch_bytes); histograms end in a unit suffix (_us, _bytes).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace freqdedup::obs {

// Always true. Only bench/fddbench/main.cc reads it, for the `obs_enabled`
// field of its run header; it goes with that benchmark's next change
// (ROADMAP item 5).
inline constexpr bool kObsEnabled = true;

/// Small per-thread slot index used to spread updates across cells. Not a
/// thread id: slots recycle modulo the cell count, which only costs some
/// sharing when more threads than cells update one metric.
size_t threadSlot() noexcept;

/// Update cells per metric. Power of two; 8 cells x 64 B = one padded cell
/// per typical physical core on the machines this targets.
inline constexpr size_t kMetricCells = 8;

class Counter {
 public:
  void add(uint64_t n = 1) noexcept {
    cells_[threadSlot() & (kMetricCells - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Snapshot-on-read aggregation: the sum of all cells.
  [[nodiscard]] uint64_t value() const noexcept {
    uint64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  std::array<Cell, kMetricCells> cells_{};
};

class Gauge {
 public:
  void add(int64_t delta = 1) noexcept {
    cells_[threadSlot() & (kMetricCells - 1)].v.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void sub(int64_t delta = 1) noexcept { add(-delta); }

  [[nodiscard]] int64_t value() const noexcept {
    int64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<int64_t> v{0};
  };
  std::array<Cell, kMetricCells> cells_{};
};

/// Aggregated histogram state as a plain value (see Histogram).
struct HistogramData {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  // 0 when count == 0
  uint64_t max = 0;
  /// Non-empty buckets only, ascending (lowerBound, count). Lower bounds
  /// follow Histogram::bucketLowerBound.
  std::vector<std::pair<uint64_t, uint64_t>> buckets;

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Upper-bound estimate of the q-quantile (q in [0,1]) from the bucket
  /// scheme: the lower bound of the first bucket whose cumulative count
  /// reaches q * count. Deterministic integer math, no interpolation.
  [[nodiscard]] uint64_t quantile(double q) const;

  friend bool operator==(const HistogramData&,
                         const HistogramData&) = default;
};

/// Log2-scale histogram: bucket 0 holds zeros, bucket b >= 1 holds values in
/// [2^(b-1), 2^b). 65 buckets cover the full uint64 range.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;

  /// Bucket a value lands in: 0 for 0, else bit_width(value).
  static size_t bucketOf(uint64_t value) noexcept {
    return value == 0 ? 0 : static_cast<size_t>(std::bit_width(value));
  }
  /// Smallest value of bucket b (0, 1, 2, 4, 8, ...).
  static uint64_t bucketLowerBound(size_t b) noexcept {
    return b == 0 ? 0 : uint64_t{1} << (b - 1);
  }

  void record(uint64_t value) noexcept {
    Cell& cell = cells_[threadSlot() & (kHistCells - 1)];
    cell.buckets[bucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    cell.count.fetch_add(1, std::memory_order_relaxed);
    cell.sum.fetch_add(value, std::memory_order_relaxed);
    atomicMin(cell.min, value);
    atomicMax(cell.max, value);
  }

  /// Aggregates all cells into one consistent-enough view (counters are
  /// relaxed; concurrent recorders may be mid-update, as with Counter).
  [[nodiscard]] HistogramData data() const;

 private:
  /// Histogram cells are an order of magnitude bigger than counter cells,
  /// so fewer of them: latencies/sizes record at batch or chunk granularity,
  /// not per byte.
  static constexpr size_t kHistCells = 4;

  static void atomicMin(std::atomic<uint64_t>& a, uint64_t v) noexcept {
    uint64_t cur = a.load(std::memory_order_relaxed);
    while (v < cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void atomicMax(std::atomic<uint64_t>& a, uint64_t v) noexcept {
    uint64_t cur = a.load(std::memory_order_relaxed);
    while (v > cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  struct alignas(64) Cell {
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> min{UINT64_MAX};
    std::atomic<uint64_t> max{0};
  };
  std::array<Cell, kHistCells> cells_{};
};

/// A point-in-time aggregation of a registry: plain ordered maps, so
/// rendering is deterministic (two snapshots of identical state are
/// byte-identical) and arithmetic is value-semantic.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramData> histograms;

  [[nodiscard]] uint64_t counter(const std::string& name) const;
  [[nodiscard]] int64_t gauge(const std::string& name) const;
  [[nodiscard]] HistogramData histogram(const std::string& name) const;

  /// Sums `other` into this snapshot (counters/gauges add; histograms merge
  /// bucket-wise, min of mins, max of maxes). Merging disjoint scopes (the
  /// global registry + a store's registry) composes one unified dump.
  void merge(const MetricsSnapshot& other);

  /// Counters and histogram counts/sums/buckets subtract saturating at zero
  /// (reordered samples must not underflow); gauges subtract signed;
  /// histogram min/max keep this (later) snapshot's values, since interval
  /// extrema are not recoverable from two cumulative states.
  [[nodiscard]] MetricsSnapshot delta(const MetricsSnapshot& earlier) const;

  /// Human-readable dump: one `name value` line per metric, histograms as
  /// count/sum/min/mean/max/p50/p99, sorted by name.
  [[nodiscard]] std::string toText() const;

  /// Single-line JSON with sorted keys and integer-only values:
  /// {"counters":{...},"gauges":{...},"histograms":{"h":{"count":..,"sum":..,
  /// "min":..,"max":..,"buckets":[[lowerBound,count],...]}}}
  [[nodiscard]] std::string toJson() const;
};

/// Named metric directory. Registration (name -> handle) takes a lock and
/// may allocate; handles are stable for the registry's lifetime and their
/// updates never touch the registry again. Re-requesting a name returns the
/// same handle; requesting an existing name as a different kind throws
/// std::logic_error (one name, one meaning).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// The process-wide registry for long-lived subsystems. Instances with
  /// open/close lifecycles (stores) own their own registry instead, so
  /// reopening starts their counters from zero.
  static MetricsRegistry& global();

 private:
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };
  struct Slot {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Slot& slot(const std::string& name, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Slot> slots_;
};

}  // namespace freqdedup::obs
