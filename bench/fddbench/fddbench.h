// fddbench — the repository's end-to-end benchmark (see README.md).
//
// Shared harness: run options, the span tracer that measures each layer
// from outside (timing the bench's own calls into public functions), the
// report that collects metrics and correctness checks, and the snapshot
// chain generator two workloads share.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/hash.h"
#include "crypto/aes.h"

namespace freqdedup {
class DedupClient;
struct BackupOutcome;
}  // namespace freqdedup

namespace fddbench {

using freqdedup::ByteVec;
using freqdedup::ByteView;
using freqdedup::Digest;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed phase.
  double seconds = 10.0;
  /// Tiny inputs for the smoke test; numbers from a quick run mean nothing.
  bool quick = false;
  std::string outPath;
  /// Chrome trace output; non-empty selects a traced run.
  std::string tracePath;
  /// Scratch directory for stores and sockets (created and removed here).
  std::string workDir;
  std::string gitSha = "unknown";
  bool gitDirty = false;
  /// Load threads / connections: min(4, nproc).
  uint32_t threads = 1;

  [[nodiscard]] bool traced() const { return !tracePath.empty(); }
};

/// Seconds on the steady clock since an arbitrary epoch.
double nowSeconds();

/// Derives an independent 64-bit seed for one input stream of the run.
uint64_t subSeed(uint64_t seed, uint64_t stream);

/// Nearest-rank percentile (p in [0, 1]) of unsorted samples; 0 if empty.
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);

/// SHA-256 of a sequence of byte ranges, as if concatenated.
Digest digestOf(const std::vector<ByteView>& parts);

// ---------------------------------------------------------------------------
// Tracing

/// Layers a span can be attributed to. Names follow the src/ module that
/// owns the timed call.
enum class Layer : uint8_t {
  kSession,      // one whole backup (ingest) — parent of the layer calls
  kChunking,     // ChunkStream::push/flush, self time only
  kFingerprint,  // fpOfContent
  kKeyDerive,    // KeyManager::deriveChunkKey
  kEncrypt,      // MleScheme::encryptWithKey
  kPutWait,      // waiting for DedupClient's writer lock
  kPut,          // BackupStore::putChunk
  kCommit,       // DedupClient::commitBackup
  kRestore,      // one whole restore
  kLocate,       // BackupStore::chunkLocator
  kGet,          // BackupStore::getChunks
  kDecrypt,      // MleScheme::decryptWithKey
  kAttack,       // one whole attack
  kIntern,       // ChunkStreamIndex::build
  kCount,        // AttackEngine::buildFrequencies
  kNeighbor,     // AttackEngine::buildNeighbors
  kWalk,         // AttackEngine::localityAttack (indexes already built)
  kBasic,        // AttackEngine::basicAttack (frequencies already built)
  kStep,         // one daemon closed-loop step
  kOpen,         // RemoteDedupClient::openBackup
  kAppend,       // RemoteDedupClient::append
  kFinish,       // RemoteDedupClient::finishBackup (durable)
  kRemoteRestore,  // RemoteDedupClient::restore
  kLayerCount
};

/// In-memory span recorder. Every span adds its duration (and its self
/// time: duration minus same-thread child spans) to per-layer totals; the
/// first kMaxSpans spans are also kept and written as Chrome trace JSON
/// (~10 MB). A disabled tracer records nothing and costs one branch per
/// span.
class Tracer {
 public:
  static constexpr uint64_t kMaxSpans = 50000;

  explicit Tracer(bool enabled);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Names a request (a backup or restore); spans opened on this thread
  /// carry its id until the next call.
  void beginRequest(const std::string& name);

  /// Where a span opened on another thread (a restore prefetch worker)
  /// attaches: its logical parent span and request.
  struct Context {
    uint64_t parent = 0;
    uint32_t request = 0;
  };
  /// The innermost open span and the current request of this thread.
  [[nodiscard]] Context currentContext() const;

  class Span {
   public:
    Span(Tracer& tracer, Layer layer);
    /// A span whose parent lives on another thread; it does not count as
    /// that parent's child time.
    Span(Tracer& tracer, Layer layer, Context context);
    ~Span() { end(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    void end();

   private:
    friend class Tracer;
    Tracer* tracer_ = nullptr;  // null when disabled or ended
    Layer layer_;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    uint32_t request_ = 0;
    double start_ = 0;
  };

  [[nodiscard]] double busySeconds(Layer layer) const;
  [[nodiscard]] double selfSeconds(Layer layer) const;
  [[nodiscard]] uint64_t spanCount(Layer layer) const;

  /// Writes every kept span as Chrome trace_event JSON.
  void writeChromeTrace(const std::string& path) const;

 private:
  struct Record {
    uint64_t id;
    uint64_t parent;
    double start;
    double end;
    uint32_t request;
    Layer layer;
  };
  struct ThreadLog {
    uint32_t tid = 0;
    std::vector<Record> records;
    uint64_t dropped = 0;
  };

  ThreadLog& threadLog();
  void finish(const Span& span, double end, double childSeconds);

  bool enabled_;
  uint64_t generation_;
  double origin_;
  std::atomic<uint64_t> nextId_{1};
  std::atomic<uint64_t> kept_{0};
  std::array<std::atomic<uint64_t>, static_cast<size_t>(Layer::kLayerCount)>
      busyNanos_{};
  std::array<std::atomic<uint64_t>, static_cast<size_t>(Layer::kLayerCount)>
      selfNanos_{};
  std::array<std::atomic<uint64_t>, static_cast<size_t>(Layer::kLayerCount)>
      counts_{};
  mutable std::mutex mu_;  // guards logs_ and requests_
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  std::vector<std::string> requests_;
};

/// The tracers of a run. In a traced run the repetitions of the timed work
/// alternate between untraced and traced, so both kinds see the same
/// machine conditions and the same store state, and their medians give the
/// tracing overhead; an untraced run never traces.
class Tracers {
 public:
  explicit Tracers(bool traced) : on_(traced) {}

  /// The tracer of repetition `i` (counting from 0): odd ones are traced.
  Tracer& forRepetition(size_t i) {
    return on_.enabled() && i % 2 == 1 ? on_ : off_;
  }
  /// Whether a phase that has run `done` repetitions must run another:
  /// a traced run needs one of each kind.
  [[nodiscard]] bool needMore(size_t done) const {
    return done < (on_.enabled() ? 2u : 1u);
  }
  [[nodiscard]] Tracer& traced() { return on_; }

 private:
  Tracer off_{false};
  Tracer on_;
};

/// trace.overhead_pct: median traced repetition time over median untraced
/// repetition time, minus one, in percent.
double overheadPct(const std::vector<double>& untracedSeconds,
                   const std::vector<double>& tracedSeconds);

// ---------------------------------------------------------------------------
// Report

/// Metrics, counts of attempted and failed operations, and the run header.
/// Thread-safe.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records one operation or check; a failed one is also described.
  void op(bool ok, const std::string& what = {});
  void header(const std::string& key, const std::string& value);
  void header(const std::string& key, double value);

  /// Writes the run JSON: header, correctness, metrics.
  void write(const std::string& path, bool traced) const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  mutable std::mutex mu_;
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> header_;  // values already JSON-encoded
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// Snapshot chains (snapshot-ingest, restore-chain)

/// One snapshot image as its files in name order; files a snapshot did not
/// change share storage with the previous snapshot.
struct Snapshot {
  std::vector<std::shared_ptr<const ByteVec>> files;
  uint64_t bytes = 0;

  /// The image as append-sized pieces (at most kAppendBytes each, split at
  /// file boundaries) in stream order.
  [[nodiscard]] std::vector<ByteView> pieces() const;
};

inline constexpr size_t kAppendBytes = 1 << 20;

struct ChainParams {
  uint64_t imageBytes = 0;      // generateCorpus target size
  int fileCount = 0;
  int snapshots = 0;            // including the base image
  uint64_t newBytesPerSnapshot = 0;
  uint32_t newFileBytes = 0;
};

/// One base image from generateCorpus (the same for every seed), then per
/// user a chain of snapshots drifting apart through mutateSnapshot with the
/// user's own RNG, seeded from `driftSeed`.
std::vector<std::vector<Snapshot>> makeChains(const ChainParams& params,
                                              uint64_t driftSeed, int users);

/// Server-aided MLE secret of every store the bench writes.
inline constexpr const char* kKeySecret = "fddbench-key-manager-secret";

/// Recipe-sealing key of one bench user.
freqdedup::AesKey userKey(uint64_t user);

/// Backs a snapshot up through a real BackupSession, one append per piece.
freqdedup::BackupOutcome sessionBackup(freqdedup::DedupClient& client,
                                       const std::string& name,
                                       const Snapshot& snap);

/// SHA-256 over a backup's recipe entries, keys and size: equal digests
/// mean identical recipes.
Digest recipeDigest(const freqdedup::BackupOutcome& outcome);

/// Ciphertext bytes the backup newly stored (its newChunkFps, sized from
/// its recipe).
uint64_t newCipherBytes(const freqdedup::BackupOutcome& outcome);

/// Every per-layer metric, from the tracer's totals where a span measures
/// it and 0 otherwise; workloads then overwrite the ones they measure by
/// other means.
void reportLayerDefaults(Report& report, const Tracer& tracer);

/// Total bytes of the regular files under `dir` (recursively).
uint64_t directoryBytes(const std::string& dir);

// ---------------------------------------------------------------------------
// Workloads

/// Runs one workload: set-up (repeated for setup_s in untraced runs), then
/// the timed phase. Metrics and checks go to `report`.
using WorkloadFn = void (*)(const Options&, Report&);

void runSnapshotIngest(const Options& options, Report& report);
void runRestoreChain(const Options& options, Report& report);
void runDaemonMixed(const Options& options, Report& report);
void runAttackSweep(const Options& options, Report& report);

/// Times `setup` at least 3 times and until it has taken a second (at most
/// 9 times; once in quick and traced runs), keeping only the last result
/// alive, and reports the median as setup_s: a set-up of a few tens of
/// milliseconds needs more samples for a steady median. Checks that every
/// repeat produced the same fingerprint (set-up is a function of the seed).
template <typename T, typename Fn, typename FingerprintFn>
T timedSetup(const Options& options, Report& report, Fn&& setup,
             FingerprintFn&& fingerprint) {
  const bool once = options.quick || options.traced();
  std::vector<double> seconds;
  double total = 0;
  std::string first;
  T result{};
  do {
    result = T{};
    const double t0 = nowSeconds();
    result = setup();
    seconds.push_back(nowSeconds() - t0);
    total += seconds.back();
    const std::string fp = fingerprint(result);
    if (seconds.size() == 1) first = fp;
    else report.op(fp == first, "set-up is not deterministic for the seed");
  } while (!once && seconds.size() < 9 &&
           (seconds.size() < 3 || total < 1.0));
  report.header("setup_repeats", static_cast<double>(seconds.size()));
  // End-to-end numbers come only from untraced runs.
  if (options.traced()) report.header("setup_s", median(seconds));
  else report.metric("setup_s", median(seconds), "s");
  return result;
}

/// peak_mem_mb: how far RSS rises above its level at the end of set-up
/// (heap trimmed) during the first repetition of the timed work — a round,
/// a pass, a sweep, or the daemon's whole loop. Later repetitions mostly
/// add the allocator's fragmentation of memory the first one freed, which
/// varies from run to run.
class PeakMemory {
 public:
  /// Trims the heap and resets the high-water mark.
  PeakMemory();
  /// Records the peak so far; only the first call counts.
  void capture();
  void report(Report& report) const;

 private:
  uint64_t baseKb_;
  double peakMb_ = -1;  // < 0 until captured
};

/// Runs `once(tracer)` — one repetition of a workload's timed work —
/// until `options.seconds` have passed (in a traced run, until one of each
/// kind has run too), recording peak memory after the first, and returns
/// the repetitions' results in order.
template <typename Fn>
auto repeatTimed(const Options& options, Tracers& tracers, PeakMemory& peak,
                 Fn&& once) {
  std::vector<decltype(once(std::declval<Tracer&>()))> results;
  const double deadline = nowSeconds() + options.seconds;
  do {
    results.push_back(once(tracers.forRepetition(results.size())));
    peak.capture();
  } while (nowSeconds() < deadline || tracers.needMore(results.size()));
  return results;
}

}  // namespace fddbench
