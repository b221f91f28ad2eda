// Memory budgeting, spill-to-disk plumbing, and cost-model plan selection
// for the attack-index builds.
//
// The paper's frequency-analysis attacks need 10^7-10^8 unique chunks per
// stream; at that scale the index builds cannot materialize full-width
// intermediates in RAM. Every build in src/analysis/ therefore takes an
// AnalysisBudget: when the build's estimated intermediate footprint exceeds
// budget.memoryBytes, it switches to an external-memory pipeline that spills
// partitioned intermediates to files under budget.spillDir and streams them
// back shard by shard — the external-sort discipline production storage
// engines use for out-of-core index builds. Results are bit-identical to the
// in-memory build at every budget and thread count (sorting canonicalizes
// every intermediate order), which is what tests/analysis/ pins.
//
// Plan selection is a small cost model instead of a fixed record-count
// threshold: serial vs parallel is chosen from the stream size, the unique
// count, the budget, and the machine's real core count, so a thread budget
// larger than the hardware falls back to the serial plan rather than paying
// parallel setup cost for nothing (the regression BENCH_attack.json recorded
// on 1-core boxes). Tests force plans via ComputePlan/SpillPlan overrides so
// parallel and spill paths stay covered on any machine.
//
// Every build reports analysis.* metrics through the PR 6 obs registry:
// plan chosen, shard count, spill bytes/files, and peak tracked bytes.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

namespace freqdedup::analysis {

/// Memory budget for one index build. memoryBytes bounds the build's
/// *intermediate* state (partition buffers, per-shard sort loads); the input
/// stream and the final index are the caller's to account. 0 = unlimited.
struct AnalysisBudget {
  uint64_t memoryBytes = 0;
  /// Directory for spill files; a uniquely named subdirectory is created per
  /// build and removed when the build finishes (success or failure). Empty =
  /// the system temp directory.
  std::string spillDir;
};

/// Serial-vs-parallel override. kAuto lets the cost model decide from the
/// stream size, unique count, budget, and real core count; kSerial/kParallel
/// force a plan (tests pin parallel paths with kParallel on any machine).
enum class ComputePlan : uint8_t { kAuto, kSerial, kParallel };

/// Spill override. kAuto spills only when the budget demands it; kForce
/// always takes the external-memory path (tests exercise it on tiny streams).
enum class SpillPlan : uint8_t { kAuto, kForce };

/// What a build actually did, attached to the built index (available even
/// with obs compiled out) and mirrored into the analysis.* metrics.
struct AnalysisBuildStats {
  const char* plan = "serial";  // "serial" | "parallel" | "spill"
  uint64_t shards = 1;
  uint64_t spillBytes = 0;
  uint64_t spillFiles = 0;
  uint64_t peakTrackedBytes = 0;
};

/// Cached std::thread::hardware_concurrency(), at least 1.
uint32_t hardwareThreads();

/// Chosen plan for a FrequencyIndex build. The parallel plan is shard-private
/// sub-range counting: each worker owns a disjoint ID range of the one output
/// column and rescans the stream for it, so it allocates nothing.
struct FrequencyPlanChoice {
  uint32_t workers = 1;
  [[nodiscard]] bool parallel() const { return workers > 1; }
};
FrequencyPlanChoice chooseFrequencyPlan(size_t records, size_t unique,
                                        uint32_t threads, uint32_t hwThreads,
                                        ComputePlan plan);

/// Chosen plan for a NeighborIndex build.
struct NeighborPlanChoice {
  uint32_t workers = 1;
  bool spill = false;
  size_t shards = 1;
  /// Spill path: target bytes of one shard's raw pairs held in RAM for the
  /// sort pass (shard count is derived from it).
  uint64_t shardLoadBytes = 0;
  /// Spill path: per-worker-per-shard partition write buffer, in bytes.
  uint64_t flushBufBytes = 0;
};
NeighborPlanChoice chooseNeighborPlan(size_t pairs, size_t unique,
                                      uint32_t threads, uint32_t hwThreads,
                                      const AnalysisBudget& budget,
                                      ComputePlan plan, SpillPlan spill);

/// Intermediate footprint of the in-memory NeighborIndex build: its value
/// column (one slot per pair) and row-position column (one slot per unique
/// ID, plus one). Exposed so the cost-model tests pin the spill decision.
uint64_t neighborInMemoryEstimate(size_t pairs, size_t unique);

/// Tracks the build's live intermediate bytes and their high-water mark.
/// Thread-safe; updates are relaxed (the peak is a metric, not a limiter).
class MemoryTracker {
 public:
  void add(uint64_t bytes) noexcept {
    const uint64_t now =
        current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    uint64_t prev = peak_.load(std::memory_order_relaxed);
    while (now > prev &&
           !peak_.compare_exchange_weak(prev, now,
                                        std::memory_order_relaxed)) {
    }
  }
  void sub(uint64_t bytes) noexcept {
    current_.fetch_sub(bytes, std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t peak() const noexcept {
    return peak_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> current_{0};
  std::atomic<uint64_t> peak_{0};
};

/// RAII spill directory: creates a uniquely named subdirectory of `base`
/// (the system temp directory when empty) and removes it recursively on
/// destruction — spill files never outlive their build, success or failure.
/// Throws std::runtime_error when the directory cannot be created.
class SpillDir {
 public:
  explicit SpillDir(const std::string& base);
  ~SpillDir();
  SpillDir(const SpillDir&) = delete;
  SpillDir& operator=(const SpillDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }
  [[nodiscard]] std::filesystem::path file(const std::string& name) const {
    return path_ / name;
  }

 private:
  std::filesystem::path path_;
};

/// Buffered append-only spill file. Any I/O failure throws
/// std::runtime_error with the path and errno text (the build's SpillDir
/// then cleans up the partial files).
class SpillFileWriter {
 public:
  explicit SpillFileWriter(const std::filesystem::path& path);
  ~SpillFileWriter();
  SpillFileWriter(const SpillFileWriter&) = delete;
  SpillFileWriter& operator=(const SpillFileWriter&) = delete;

  void write(const void* data, size_t bytes);
  /// Flushes and closes; further writes are invalid. Throws on flush error.
  void finish();
  [[nodiscard]] uint64_t bytesWritten() const { return bytes_; }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
  FILE* f_ = nullptr;
  uint64_t bytes_ = 0;
};

/// Reads a whole spill file into `out` (resized to the file's element
/// count). Throws std::runtime_error on read failure or a size that is not
/// a multiple of the element size.
void readSpillFile(const std::filesystem::path& path,
                   std::vector<uint64_t>& out);

/// Streams a spill file in bounded chunks: calls consume(data, count) with
/// successive uint64_t runs. chunkBytes bounds the read buffer.
void streamSpillFile(
    const std::filesystem::path& path, size_t chunkBytes,
    const std::function<void(const uint64_t*, size_t)>& consume);

/// Mirrors one build's stats into the global analysis.* metrics.
void reportBuildStats(const AnalysisBuildStats& stats);

}  // namespace freqdedup::analysis
