// Shared setup for the figure-reproduction benches: standard datasets with
// fixed seeds (cached on disk so the suite does not regenerate them per
// binary), attack wrappers, and aligned table printing.
//
// Scaling note (see EXPERIMENTS.md): the seed datasets were sized to ~10^5
// unique chunks per backup. Now that the COUNT and neighbor-analysis phases
// run on the parallel analysis engine, the default bench scale is
// kDefaultBenchScale x that; override with the FDD_BENCH_SCALE environment
// variable (e.g. FDD_BENCH_SCALE=1 for the historical size, =20 to approach
// the paper's 10^7-unique-chunk backups on a big machine). The locality
// attack's w parameter scales by the same factor relative to the paper's
// parameters, as do the DDFS fingerprint-cache sizes. Attack index builds
// use FDD_ATTACK_THREADS workers (default: all hardware threads); results
// are bit-identical at every thread count.
#pragma once

#include <string>
#include <vector>

#include "core/attack_eval.h"
#include "core/attacks.h"
#include "core/defense.h"
#include "trace/backup_trace.h"

namespace freqdedup::exp {

/// Default multiplier on the seed dataset scale (~10^5 unique chunks).
inline constexpr double kDefaultBenchScale = 2.0;

/// Dataset scale factor: FDD_BENCH_SCALE or kDefaultBenchScale.
double benchScale();

/// Worker threads for attack index builds: FDD_ATTACK_THREADS or all
/// hardware threads.
uint32_t attackThreads();

/// Memory budget (bytes, K/M/G suffixes accepted) for attack index builds:
/// FDD_MEM_BUDGET or 0 (unlimited). Budget-exceeding builds spill to disk.
uint64_t memBudgetBytes();

/// Spill directory for budgeted attack index builds: FDD_SPILL_DIR or empty
/// (the system temp directory).
std::string spillDir();

/// The paper's default attack parameters (Section 5.3), with w scaled by the
/// dataset-size ratio (paper: 200k of ~30M unique chunks; here ~100k unique
/// at scale 1, times benchScale()).
size_t scaledW();
size_t scaledWKnownPlaintext();  // paper: 500k

/// FSL-like dataset (6 users, 5 monthly backups). Cached after first call.
const Dataset& fslDataset();

/// VM-like dataset (8 students, 13 weekly backups). Cached after first call.
const Dataset& vmDataset();

/// Synthetic content dataset (initial snapshot + 10 derived). Cached.
const Dataset& synDataset();

/// Fingerprint width used when encrypting a dataset's traces.
int fpBitsFor(const Dataset& dataset);

/// Average plaintext chunk size, for segmenting a dataset's streams.
uint64_t avgChunkBytesFor(const Dataset& dataset);

/// MLE-encrypts one backup of a dataset (deterministic baseline encryption).
EncryptedTrace encryptTarget(const Dataset& dataset, size_t backupIndex);

/// Runs the basic / locality / advanced attack and returns the inference
/// rate in percent.
double basicRatePct(const EncryptedTrace& target,
                    const std::vector<ChunkRecord>& aux);
double localityRatePct(const EncryptedTrace& target,
                       const std::vector<ChunkRecord>& aux,
                       const AttackConfig& config);

/// Standard ciphertext-only config (u=1, v=15, scaled w, parallel builds).
AttackConfig ciphertextOnlyConfig(bool sizeAware);

/// Standard known-plaintext config with freshly sampled leaked pairs.
AttackConfig knownPlaintextConfig(bool sizeAware, const EncryptedTrace& target,
                                  double leakagePct, uint64_t seed);

/// Table printing: fixed-width columns, pipe-separated.
void printTitle(const std::string& figure, const std::string& caption);
void printRow(const std::vector<std::string>& cells);
std::string fmtPct(double pct);
std::string fmtDouble(double v, int precision = 2);

// --- Command-line and timing helpers for the measurement benches ---

/// Parses `--threads N` from argv; returns `fallback` when absent. Ignores
/// unrelated arguments so benches can layer their own flags.
uint32_t threadsFlag(int argc, char** argv, uint32_t fallback = 1);

/// Parses `--<name> VALUE` from argv; returns `fallback` when absent.
std::string stringFlag(int argc, char** argv, const std::string& name,
                       const std::string& fallback);

/// Parses `--<name> BYTES` from argv (K/M/G suffixes accepted, e.g. "64M");
/// returns `fallback` when absent or invalid.
uint64_t bytesFlag(int argc, char** argv, const std::string& name,
                   uint64_t fallback);

/// Wall-clock stopwatch (steady clock).
class Stopwatch {
 public:
  Stopwatch();
  [[nodiscard]] double elapsedSeconds() const;

 private:
  uint64_t startNanos_;
};

}  // namespace freqdedup::exp
