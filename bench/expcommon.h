// Shared setup for paperrepro: standard datasets with fixed seeds (built
// once per process), the scaled attack parameters, an attack engine per
// (target, auxiliary) pair, and aligned table printing.
//
// Scaling note (see REPRODUCE.md): the seed datasets were sized to ~10^5
// unique chunks per backup. The default bench scale is kDefaultBenchScale x
// that; override with the FDD_BENCH_SCALE environment variable (e.g.
// FDD_BENCH_SCALE=0.5 for the scale ctest runs paperrepro at). The paper's
// ~10^7-unique-chunk backups correspond to a scale of about 100. The
// locality attack's w parameter scales by the same factor relative to the
// paper's parameters, and so do the DDFS fingerprint-cache sizes of
// paperrepro's fig13/fig14 rows. Attack engines use every hardware thread;
// results are bit-identical at every thread count.
#pragma once

#include <string>
#include <vector>

#include "analysis/attack_engine.h"
#include "core/attack_eval.h"
#include "core/defense.h"
#include "trace/backup_trace.h"

namespace freqdedup::exp {

/// Default multiplier on the seed dataset scale (~10^5 unique chunks).
inline constexpr double kDefaultBenchScale = 2.0;

/// Dataset scale factor: FDD_BENCH_SCALE or kDefaultBenchScale.
double benchScale();

/// The paper's default attack parameters (Section 5.3), with w scaled by the
/// dataset-size ratio (paper: 200k of ~30M unique chunks; here ~100k unique
/// at scale 1, times benchScale()).
size_t scaledW();
size_t scaledWKnownPlaintext();  // paper: 500k

/// FSL-like dataset (6 users, 5 monthly backups). Built on first call.
const Dataset& fslDataset();

/// VM-like dataset (8 students, 13 weekly backups). Built on first call.
const Dataset& vmDataset();

/// Synthetic content dataset (initial snapshot + 10 derived). Built on
/// first call.
const Dataset& synDataset();

/// Fingerprint width used when encrypting a dataset's traces.
int fpBitsFor(const Dataset& dataset);

/// Average plaintext chunk size, for segmenting a dataset's streams.
uint64_t avgChunkBytesFor(const Dataset& dataset);

/// MLE-encrypts one backup of a dataset (deterministic baseline encryption).
EncryptedTrace encryptTarget(const Dataset& dataset, size_t backupIndex);

/// An attack engine over a target and an auxiliary backup, using every
/// hardware thread. Run every attack on one pair through one engine: it
/// indexes both streams once.
analysis::AttackEngine attackEngine(const EncryptedTrace& target,
                                    const std::vector<ChunkRecord>& aux);

/// Inference rate of an attack result against its target, in percent.
double ratePct(const AttackResult& result, const EncryptedTrace& target);

/// Standard ciphertext-only config (u=1, v=15, scaled w).
AttackConfig ciphertextOnlyConfig(bool sizeAware);

/// Standard known-plaintext config with freshly sampled leaked pairs.
AttackConfig knownPlaintextConfig(bool sizeAware, const EncryptedTrace& target,
                                  double leakagePct, uint64_t seed);

/// Table printing: fixed-width columns, pipe-separated.
void printTitle(const std::string& figure, const std::string& caption);
void printRow(const std::vector<std::string>& cells);
std::string fmtPct(double pct);
std::string fmtDouble(double v, int precision = 2);

}  // namespace freqdedup::exp
