// paperrepro: the paper's trace-driven results as one checked reproduction.
//
//   paperrepro [ROW...]
//
// Each row of kRows reproduces one figure of the paper, or one ablation
// beyond it: it prints the figure's table, then checks the shape the paper
// reports, citing the section that shape defends. With no argument every
// row runs; row names select rows. The dataset scale comes from
// FDD_BENCH_SCALE (see expcommon.h); each dataset is built once per run.
//
// Exit status: 0 when every check of every selected row holds; 1 when one
// fails (each failure prints "FAIL paper.<row> [<cell>]: <claim> (<section>)");
// 2 for an unknown row name.
// ctest runs each row as paper.<row>, and REPRODUCE.md lists every row's
// command, scale and asserted shape.
//
// Thresholds were picked from the measured shapes at FDD_BENCH_SCALE=0.5 and
// 2 with a margin; a check that only holds on part of a sweep says which
// part, and why, where it is made.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "client/dedup_client.h"
#include "common/lru_cache.h"
#include "core/storage_saving.h"
#include "expcommon.h"
#include "storage/dedup_engine.h"

using namespace freqdedup;
using namespace freqdedup::exp;

namespace {

/// Inference rate a defended target may keep at nonzero leakage. Measured
/// at most 0.78% (scale 0.5) and 1.01% (scale 2); the paper reports the
/// combined scheme near zero (Section 7.2).
constexpr double kDefendedCeilingPct = 1.5;

/// Storage-saving points the combined scheme may lose against MLE after a
/// whole series. Measured at most 9.5 (scale 0.5) and 9.6 points (scale 2),
/// both on FSL.
constexpr double kSavingLossPts = 12.0;

/// One row's checks. A failed check prints the row, the cell, the claim
/// with its values, and the paper section the row defends.
class Checks {
 public:
  Checks(const char* row, const char* section) : row_(row), section_(section) {}

  void expect(bool ok, const std::string& cell, const std::string& claim) {
    ++count_;
    if (ok) return;
    ++failed_;
    printf("FAIL paper.%s [%s]: %s (%s)\n", row_, cell.c_str(), claim.c_str(),
           section_);
  }

  /// Expects percentage `a` > percentage `b`.
  void greater(const std::string& cell, const std::string& aName, double a,
               const std::string& bName, double b) {
    expect(a > b, cell,
           aName + " " + fmtPct(a) + " > " + bName + " " + fmtPct(b));
  }

  /// Expects percentage `value` <= `bound`.
  void atMost(const std::string& cell, const std::string& name, double value,
              double bound) {
    expect(value <= bound, cell,
           name + " " + fmtPct(value) + " <= " + fmtPct(bound));
  }

  /// Prints the row's verdict; returns whether every check held.
  bool report() const {
    if (failed_ == 0) {
      printf("paper.%s: all %d checks hold (%s)\n", row_, count_, section_);
    } else {
      printf("paper.%s: %d of %d checks FAILED (%s)\n", row_, failed_, count_,
             section_);
    }
    return failed_ == 0 && count_ > 0;
  }

 private:
  const char* row_;
  const char* section_;
  int count_ = 0;
  int failed_ = 0;
};

std::string cellOf(const Dataset& dataset, const std::string& what) {
  return dataset.name + " " + what;
}

double mean(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : std::accumulate(values.begin(), values.end(), 0.0) /
                              static_cast<double>(values.size());
}

// --- Figure 1: frequency distributions (Section 1) ---

void fig01Report(const Dataset& dataset, Checks& checks) {
  const auto points = frequencyCdf(dataset);
  printf("\n[%s] %zu backups, %zu unique chunks\n", dataset.name.c_str(),
         dataset.backupCount(), datasetFrequencies(dataset).size());
  printRow({"cdf", "frequency"});
  for (const double q :
       {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999, 0.9999, 1.0}) {
    const auto it = std::lower_bound(
        points.begin(), points.end(), q,
        [](const FrequencyCdfPoint& p, double value) { return p.cdf < value; });
    const FrequencyCdfPoint& p = it == points.end() ? points.back() : *it;
    printRow({fmtDouble(q, 4), std::to_string(p.frequency)});
  }

  const FrequencyMap freq = datasetFrequencies(dataset);
  uint64_t below100 = 0, above1k = 0, maxFreq = 0;
  for (const auto& [fp, count] : freq) {
    below100 += count < 100;
    above1k += count > 1000;
    maxFreq = std::max(maxFreq, count);
  }
  const double below100Pct = 100.0 * static_cast<double>(below100) /
                             static_cast<double>(freq.size());
  printf("skew: %.3f%% of chunks occur <100 times; %llu chunks occur >1000 "
         "times; max frequency %llu\n",
         below100Pct, static_cast<unsigned long long>(above1k),
         static_cast<unsigned long long>(maxFreq));

  // The skew the attacks feed on: almost every chunk is rare, a few are
  // very frequent (measured >= 99.41% below 100, max >= 3049).
  checks.expect(below100Pct >= 99.0, cellOf(dataset, "skew"),
                "share below frequency 100 " + fmtPct(below100Pct) +
                    " >= 99.00%");
  checks.expect(maxFreq >= 1000, cellOf(dataset, "skew"),
                "max frequency " + std::to_string(maxFreq) + " >= 1000");
}

void fig01(Checks& checks) {
  printTitle("Figure 1", "frequency distributions of duplicate chunks");
  fig01Report(fslDataset(), checks);
  fig01Report(vmDataset(), checks);
}

// --- Figure 4: parameters u, v, w of the locality attack (Section 5.3) ---

struct SweepScenario {
  const Dataset* dataset;
  size_t auxIndex;
  size_t targetIndex;
  const char* label;
};

void fig04Sweep(const SweepScenario& s, Checks& checks) {
  const EncryptedTrace target = encryptTarget(*s.dataset, s.targetIndex);
  analysis::AttackEngine engine =
      attackEngine(target, s.dataset->backups[s.auxIndex].records);
  const double basic = ratePct(engine.basicAttack(false), target);

  printf("\n[%s] aux=%s target=%s\n", s.label,
         s.dataset->backups[s.auxIndex].label.c_str(),
         s.dataset->backups[s.targetIndex].label.c_str());

  // Every setting of the sweep must beat the basic attack on the same pair.
  const auto run = [&](const char* param, size_t value, size_t u, size_t v,
                       size_t w) {
    AttackConfig config;
    config.u = u;
    config.v = v;
    config.w = w;
    const double rate = ratePct(engine.localityAttack(config), target);
    printRow({std::to_string(value), fmtPct(rate)});
    checks.greater(std::string(s.label) + " " + param + "=" +
                       std::to_string(value),
                   "locality", rate, "basic", basic);
  };
  printRow({"u", "inference"});
  for (const size_t u : {1u, 3u, 5u, 7u, 10u, 13u, 15u, 17u, 20u})
    run("u", u, u, 20, 1000);  // paper: w = 100k (scaled)
  printRow({"v", "inference"});
  for (const size_t v : {5u, 10u, 15u, 20u, 25u, 30u, 35u, 40u})
    run("v", v, 10, v, 1000);
  printRow({"w", "inference"});
  for (const size_t w : {500u, 1000u, 1500u, 2000u})  // paper: 50k..200k
    run("w", w, 10, 20, w);
}

void fig04(Checks& checks) {
  printTitle("Figure 4", "impact of u, v, w on the locality-based attack");
  fig04Sweep({&fslDataset(), 2, 4, "FSL"}, checks);
  fig04Sweep({&vmDataset(), 11, 12, "VM"}, checks);
}

// --- Figures 5-7: ciphertext-only mode (Section 5.3) ---

struct Rates {
  double basic = 0;
  double locality = 0;
  double advanced = 0;
};

/// The three ciphertext-only attacks on one (target, auxiliary) pair. For
/// fixed-size chunks (VM) the advanced attack equals the locality attack.
Rates ciphertextOnlyRates(const EncryptedTrace& target,
                          const std::vector<ChunkRecord>& aux,
                          bool fixedSizeChunks) {
  analysis::AttackEngine engine = attackEngine(target, aux);
  Rates rates;
  rates.basic = ratePct(engine.basicAttack(false), target);
  rates.locality =
      ratePct(engine.localityAttack(ciphertextOnlyConfig(false)), target);
  rates.advanced =
      fixedSizeChunks
          ? rates.locality
          : ratePct(engine.localityAttack(ciphertextOnlyConfig(true)), target);
  return rates;
}

void fig05Run(const Dataset& dataset, bool fixedSizeChunks, Checks& checks) {
  const size_t targetIndex = dataset.backupCount() - 1;
  const EncryptedTrace target = encryptTarget(dataset, targetIndex);
  printf("\n[%s] target=%s\n", dataset.name.c_str(),
         dataset.backups[targetIndex].label.c_str());
  printRow({"aux", "basic", "locality", "advanced"});
  std::vector<Rates> rows;
  for (size_t aux = 0; aux < targetIndex; ++aux) {
    rows.push_back(ciphertextOnlyRates(target, dataset.backups[aux].records,
                                       fixedSizeChunks));
    printRow({dataset.backups[aux].label, fmtPct(rows.back().basic),
              fmtPct(rows.back().locality), fmtPct(rows.back().advanced)});
  }

  // Locality beats basic for every auxiliary backup on FSL and synthetic.
  // On VM only the last four auxiliary backups (weeks 9-12) share enough
  // with week 13: from weeks 1-4 (through week 6 at scale 2) the walk
  // infers 0.01% or less, below basic.
  const size_t firstChecked = fixedSizeChunks ? targetIndex - 4 : 0;
  for (size_t aux = firstChecked; aux < targetIndex; ++aux) {
    checks.greater(cellOf(dataset, "aux=" + dataset.backups[aux].label),
                   "locality", rows[aux].locality, "basic", rows[aux].basic);
  }
  // The rate follows the auxiliary data's overlap with the target: the
  // latest auxiliary backup infers more than the earliest.
  checks.greater(cellOf(dataset, "advanced"), "latest aux",
                 rows.back().advanced, "earliest aux", rows.front().advanced);
}

void fig05(Checks& checks) {
  printTitle("Figure 5",
             "ciphertext-only inference rate, varying auxiliary backups");
  fig05Run(fslDataset(), false, checks);
  fig05Run(synDataset(), false, checks);
  fig05Run(vmDataset(), true, checks);
}

void fig06Run(const Dataset& dataset, bool fixedSizeChunks, Checks& checks) {
  const auto& aux = dataset.backups[0].records;
  printf("\n[%s] aux=%s\n", dataset.name.c_str(),
         dataset.backups[0].label.c_str());
  printRow({"target", "basic", "locality", "advanced"});
  std::vector<Rates> rows;
  for (size_t t = 1; t < dataset.backupCount(); ++t) {
    rows.push_back(
        ciphertextOnlyRates(encryptTarget(dataset, t), aux, fixedSizeChunks));
    printRow({dataset.backups[t].label, fmtPct(rows.back().basic),
              fmtPct(rows.back().locality), fmtPct(rows.back().advanced)});
  }

  // Locality beats basic for every target on FSL and synthetic. VM week 1
  // is too stale an auxiliary backup for the walk (it infers <= 1.5%), so
  // VM is held only to the staleness check below.
  if (!fixedSizeChunks) {
    for (size_t t = 1; t < dataset.backupCount(); ++t) {
      checks.greater(cellOf(dataset, "target=" + dataset.backups[t].label),
                     "locality", rows[t - 1].locality, "basic",
                     rows[t - 1].basic);
    }
  }
  // The auxiliary data goes stale: the nearest target leaks more than the
  // farthest.
  checks.greater(cellOf(dataset, "advanced"), "nearest target",
                 rows.front().advanced, "farthest target",
                 rows.back().advanced);
}

void fig06(Checks& checks) {
  printTitle("Figure 6",
             "ciphertext-only inference rate, varying target backups");
  fig06Run(fslDataset(), false, checks);
  fig06Run(synDataset(), false, checks);
  fig06Run(vmDataset(), true, checks);
}

void fig07Run(const Dataset& dataset, const std::vector<int>& shifts,
              bool fixedSizeChunks, Checks& checks) {
  printf("\n[%s]\n", dataset.name.c_str());
  std::vector<std::string> header{"aux"};
  for (const int s : shifts) {
    header.push_back("s=" + std::to_string(s));
    if (!fixedSizeChunks) header.push_back("s=" + std::to_string(s) + " adv");
  }
  printRow(header);
  std::vector<EncryptedTrace> targets;
  for (size_t t = 0; t < dataset.backupCount(); ++t)
    targets.push_back(encryptTarget(dataset, t));

  // Strongest attack's rate per shift, over every window that fits.
  std::vector<std::vector<double>> byShift(shifts.size());
  for (size_t t = 0; t + 1 < dataset.backupCount(); ++t) {
    std::vector<std::string> row{dataset.backups[t].label};
    for (size_t i = 0; i < shifts.size(); ++i) {
      const size_t targetIndex = t + static_cast<size_t>(shifts[i]);
      if (targetIndex >= dataset.backupCount()) {
        row.push_back("-");
        if (!fixedSizeChunks) row.push_back("-");
        continue;
      }
      const EncryptedTrace& target = targets[targetIndex];
      analysis::AttackEngine engine =
          attackEngine(target, dataset.backups[t].records);
      const double locality =
          ratePct(engine.localityAttack(ciphertextOnlyConfig(false)), target);
      row.push_back(fmtPct(locality));
      double strongest = locality;
      if (!fixedSizeChunks) {
        strongest =
            ratePct(engine.localityAttack(ciphertextOnlyConfig(true)), target);
        row.push_back(fmtPct(strongest));
      }
      byShift[i].push_back(strongest);
    }
    printRow(row);
  }

  // A one-backup window leaks more than a two-backup one, on average over
  // the windows (single VM windows cross: week 10 reads 28.00% at s=1 and
  // 30.41% at s=3 at scale 0.5).
  checks.greater(cellOf(dataset, "mean"), "s=1", mean(byShift[0]), "s=2",
                 mean(byShift[1]));
}

void fig07(Checks& checks) {
  printTitle("Figure 7", "inference rate over a sliding window");
  fig07Run(fslDataset(), {1, 2}, false, checks);
  fig07Run(synDataset(), {1, 2}, false, checks);
  fig07Run(vmDataset(), {1, 2, 3}, true, checks);
}

// --- Figures 8-9: known-plaintext mode (Section 5.3.3) ---

constexpr double kLeakagePcts[] = {0.0, 0.05, 0.10, 0.15, 0.20};

void fig08Run(const Dataset& dataset, size_t auxIndex, size_t targetIndex,
              bool fixedSizeChunks, Checks& checks) {
  const EncryptedTrace target = encryptTarget(dataset, targetIndex);
  analysis::AttackEngine engine =
      attackEngine(target, dataset.backups[auxIndex].records);
  printf("\n[%s] aux=%s target=%s\n", dataset.name.c_str(),
         dataset.backups[auxIndex].label.c_str(),
         dataset.backups[targetIndex].label.c_str());
  printRow({"leakage", "locality", "advanced"});
  const auto rate = [&](bool sizeAware, double leakPct) {
    return ratePct(
        engine.localityAttack(
            leakPct == 0.0
                ? ciphertextOnlyConfig(sizeAware)
                : knownPlaintextConfig(sizeAware, target, leakPct, 99)),
        target);
  };
  std::vector<std::pair<double, double>> rows;
  for (const double leakPct : kLeakagePcts) {
    const double locality = rate(false, leakPct);
    const double advanced = fixedSizeChunks ? locality : rate(true, leakPct);
    rows.emplace_back(locality, advanced);
    printRow({fmtDouble(leakPct, 2) + "%", fmtPct(locality),
              fmtPct(advanced)});
  }

  // Leaked pairs seed the walk: known-plaintext at 0.2% leakage beats
  // ciphertext-only.
  checks.greater(cellOf(dataset, "locality"), "0.20% leakage",
                 rows.back().first, "ciphertext-only", rows.front().first);
  checks.greater(cellOf(dataset, "advanced"), "0.20% leakage",
                 rows.back().second, "ciphertext-only", rows.front().second);
}

void fig08(Checks& checks) {
  printTitle("Figure 8", "known-plaintext inference rate vs leakage rate");
  fig08Run(fslDataset(), 2, 4, false, checks);
  fig08Run(synDataset(), 0, 5, false, checks);
  fig08Run(vmDataset(), 8, 12, true, checks);
}

void fig09Run(const Dataset& dataset, size_t targetIndex, size_t maxAux,
              bool fixedSizeChunks, Checks& checks) {
  const EncryptedTrace target = encryptTarget(dataset, targetIndex);
  printf("\n[%s] target=%s leakage=0.05%%\n", dataset.name.c_str(),
         dataset.backups[targetIndex].label.c_str());
  printRow({"aux", "locality", "advanced"});
  std::vector<std::pair<double, double>> rows;
  for (size_t aux = 0; aux < maxAux; ++aux) {
    analysis::AttackEngine engine =
        attackEngine(target, dataset.backups[aux].records);
    const double locality = ratePct(
        engine.localityAttack(knownPlaintextConfig(false, target, 0.05, 7)),
        target);
    const double advanced =
        fixedSizeChunks
            ? locality
            : ratePct(engine.localityAttack(
                          knownPlaintextConfig(true, target, 0.05, 7)),
                      target);
    rows.emplace_back(locality, advanced);
    printRow({dataset.backups[aux].label, fmtPct(locality),
              fmtPct(advanced)});
  }

  // Fresher auxiliary data infers more at the same leakage.
  checks.greater(cellOf(dataset, "locality"), "latest aux", rows.back().first,
                 "earliest aux", rows.front().first);
  checks.greater(cellOf(dataset, "advanced"), "latest aux",
                 rows.back().second, "earliest aux", rows.front().second);
}

void fig09(Checks& checks) {
  printTitle("Figure 9",
             "known-plaintext inference rate, varying auxiliary backups");
  fig09Run(fslDataset(), 4, 4, false, checks);
  fig09Run(synDataset(), 5, 5, false, checks);
  fig09Run(vmDataset(), 12, 12, true, checks);
}

// --- Figure 10: defense effectiveness (Section 7.2) ---

DefenseConfig defenseFor(const Dataset& dataset, bool scramble) {
  DefenseConfig defense;
  defense.scramble = scramble;
  defense.fpBits = fpBitsFor(dataset);
  defense.segment.avgChunkBytes = avgChunkBytesFor(dataset);
  return defense;
}

void fig10Run(const Dataset& dataset, size_t auxIndex, size_t targetIndex,
              bool fixedSizeChunks, Checks& checks) {
  const auto& aux = dataset.backups[auxIndex].records;
  printf("\n[%s] aux=%s target=%s\n", dataset.name.c_str(),
         dataset.backups[auxIndex].label.c_str(),
         dataset.backups[targetIndex].label.c_str());
  printRow({"leakage", "minhash", "combined"});

  // [0] = MinHash encryption alone, [1] = MinHash + scrambling.
  std::vector<EncryptedTrace> targets;
  std::vector<analysis::AttackEngine> engines;
  for (const bool scramble : {false, true}) {
    targets.push_back(minHashEncryptTrace(
        dataset.backups[targetIndex].records, defenseFor(dataset, scramble)));
    engines.push_back(attackEngine(targets.back(), aux));
  }
  for (const double leakPct : kLeakagePcts) {
    std::vector<std::string> row{fmtDouble(leakPct, 2) + "%"};
    std::array<double, 2> rates{};
    for (size_t i = 0; i < 2; ++i) {
      const AttackConfig config =
          leakPct == 0.0 ? ciphertextOnlyConfig(!fixedSizeChunks)
                         : knownPlaintextConfig(!fixedSizeChunks, targets[i],
                                                leakPct, 31);
      rates[i] = ratePct(engines[i].localityAttack(config), targets[i]);
      row.push_back(fmtPct(rates[i]));
    }
    printRow(row);

    // Scrambling removes the locality MinHash leaves: with any leakage the
    // combined scheme stays below MinHash alone, near zero.
    if (leakPct == 0.0) continue;
    const std::string cell =
        cellOf(dataset, "leakage=" + fmtDouble(leakPct, 2) + "%");
    checks.greater(cell, "minhash", rates[0], "combined", rates[1]);
    checks.atMost(cell, "combined", rates[1], kDefendedCeilingPct);
  }
}

void fig10(Checks& checks) {
  printTitle("Figure 10",
             "defense effectiveness: MinHash encryption and scrambling");
  fig10Run(fslDataset(), 2, 4, false, checks);
  fig10Run(synDataset(), 0, 5, false, checks);
  fig10Run(vmDataset(), 8, 12, true, checks);
}

// --- Figure 11: storage saving (Section 7.3) ---

void fig11Run(const Dataset& dataset, Checks& checks) {
  const DefenseConfig defense = defenseFor(dataset, true);

  printf("\n[%s]\n", dataset.name.c_str());
  printRow({"backup", "MLE", "combined", "MLE ratio", "comb ratio"});
  CumulativeDedup mle, combined;
  SavingPoint mlePoint, combinedPoint;
  for (const auto& backup : dataset.backups) {
    mlePoint = mle.addBackup(
        mleEncryptTrace(backup.records, fpBitsFor(dataset)).records,
        backup.label);
    combinedPoint = combined.addBackup(
        minHashEncryptTrace(backup.records, defense).records, backup.label);
    printRow({backup.label, fmtDouble(mlePoint.savingPct, 1) + "%",
              fmtDouble(combinedPoint.savingPct, 1) + "%",
              fmtDouble(mlePoint.dedupRatio, 1) + "x",
              fmtDouble(combinedPoint.dedupRatio, 1) + "x"});
  }

  // MinHash encrypts some duplicates under different keys, so the series
  // saves less than MLE, but only by a bounded number of points.
  const double loss = mlePoint.savingPct - combinedPoint.savingPct;
  const std::string cell = cellOf(dataset, "after " + mlePoint.label);
  checks.expect(loss > 0.0, cell,
                "combined saving " + fmtDouble(combinedPoint.savingPct, 1) +
                    "% < MLE saving " + fmtDouble(mlePoint.savingPct, 1) +
                    "%");
  checks.expect(loss <= kSavingLossPts, cell,
                "saving loss " + fmtDouble(loss, 1) + " pts <= " +
                    fmtDouble(kSavingLossPts, 1) + " pts");
}

void fig11(Checks& checks) {
  printTitle("Figure 11",
             "storage saving: MLE vs combined MinHash + scrambling");
  fig11Run(fslDataset(), checks);
  fig11Run(synDataset(), checks);
  fig11Run(vmDataset(), checks);
}

// --- Figures 13-14: DDFS metadata access (Section 7.4) ---
//
// Feeds the FSL dataset's backups, encrypted under MLE or under the combined
// MinHash + scrambling scheme, through the DDFS-like engine and reports the
// per-backup metadata access (update/index/loading) in MB.
//
// Cache scaling: what matters is the cache size relative to the *unique*
// fingerprint metadata. The paper's 512 MB cache holds ~1/4 of its dataset's
// unique fingerprints ("insufficient") and the 4 GB cache holds all of them
// ("sufficient"). The FSL dataset at scale 1 has ~111k unique fingerprints
// (~3.6 MB at 32 B each), so the two regimes are 0.9 MB and 7.2 MB at scale
// 1, and both follow FDD_BENCH_SCALE as the dataset does. Each row checks
// that its cache is in its regime against the unique chunks it stored.

/// Per-backup metadata access: [0] = MLE, [1] = combined.
using MetadataSeries = std::array<std::vector<MetadataAccessStats>, 2>;

struct MetadataRun {
  uint64_t cacheEntries = 0;
  MetadataSeries series;
  std::array<uint64_t, 2> uniqueChunks{};  // stored per scheme, as series
};

/// Runs both schemes with a fingerprint cache of `scaleOneCacheBytes` times
/// benchScale().
MetadataRun metadataExperiment(const char* figure, double scaleOneCacheBytes,
                               const char* regime) {
  const Dataset& fsl = fslDataset();
  const auto cacheBytes =
      static_cast<uint64_t>(scaleOneCacheBytes * benchScale());
  uint64_t logicalInstances = 0;
  for (const auto& backup : fsl.backups)
    logicalInstances += backup.chunkCount();

  printTitle(figure, std::string("DDFS metadata access, fingerprint cache ") +
                         regime);
  MetadataRun run;
  run.cacheEntries = cacheBytes / kFpMetadataBytes;
  printf("fingerprint cache: %.1f MB (%llu entries); total fingerprint "
         "instances: %llu (%.1f MB of metadata)\n",
         cacheBytes / 1e6, static_cast<unsigned long long>(run.cacheEntries),
         static_cast<unsigned long long>(logicalInstances),
         logicalInstances * kFpMetadataBytes / 1e6);

  for (const bool combinedScheme : {false, true}) {
    DedupEngineParams params;
    params.containerBytes = 4 * 1024 * 1024;
    params.cacheBytes = cacheBytes;
    params.expectedFingerprints = logicalInstances;
    params.bloomFpr = 0.01;
    DedupEngine engine(params);

    DefenseConfig defense;
    defense.scramble = true;
    defense.segment.avgChunkBytes = avgChunkBytesFor(fsl);

    printf("\n[%s]\n", combinedScheme ? "combined" : "MLE");
    printRow({"backup", "update MB", "index MB", "loading MB", "total MB"});
    MetadataAccessStats previous = engine.stats().metadata;
    for (const auto& backup : fsl.backups) {
      if (combinedScheme) {
        engine.ingestBackup(
            minHashEncryptTrace(backup.records, defense).records);
      } else {
        engine.ingestBackup(mleEncryptTrace(backup.records).records);
      }
      const MetadataAccessStats delta = engine.stats().metadata - previous;
      previous = engine.stats().metadata;
      run.series[combinedScheme].push_back(delta);
      printRow({backup.label, fmtDouble(delta.updateBytes / 1e6, 2),
                fmtDouble(delta.indexBytes / 1e6, 2),
                fmtDouble(delta.loadingBytes / 1e6, 2),
                fmtDouble(delta.totalBytes() / 1e6, 2)});
    }
    engine.flushOpenContainer();
    run.uniqueChunks[combinedScheme] = engine.stats().uniqueChunks;
    printf("stored %llu unique chunks in %zu containers; dedup ratio %.1fx\n",
           static_cast<unsigned long long>(engine.stats().uniqueChunks),
           engine.containerCount(), engine.stats().dedupRatio());
  }
  return run;
}

/// The combined scheme stores more unique chunks, so it touches more
/// metadata than MLE, but within a small factor (measured 1.2x-2.0x).
void checkMetadataOverhead(const MetadataSeries& series, Checks& checks) {
  const auto totalMb = [](const std::vector<MetadataAccessStats>& backups) {
    uint64_t bytes = 0;
    for (const MetadataAccessStats& b : backups) bytes += b.totalBytes();
    return static_cast<double>(bytes) / 1e6;
  };
  const double mle = totalMb(series[0]);
  const double combined = totalMb(series[1]);
  checks.expect(combined > mle && combined <= 3.0 * mle, "series total",
                "MLE " + fmtDouble(mle, 2) + " MB < combined " +
                    fmtDouble(combined, 2) + " MB <= 3x MLE");
}

double loadingMb(const MetadataAccessStats& stats) {
  return static_cast<double>(stats.loadingBytes) / 1e6;
}

void fig13(Checks& checks) {
  const MetadataRun run = metadataExperiment(
      "Figure 13", /*scaleOneCacheBytes=*/900'000,
      "insufficient (paper: 512 MB)");
  const MetadataSeries& series = run.series;
  // The regime: the cache cannot hold even MLE's unique fingerprints.
  checks.expect(run.cacheEntries < run.uniqueChunks[0], "regime",
                "cache entries " + std::to_string(run.cacheEntries) +
                    " < MLE's stored unique chunks " +
                    std::to_string(run.uniqueChunks[0]));
  checkMetadataOverhead(series, checks);
  // An insufficient cache thrashes as the index grows: the last backup
  // loads more fingerprint metadata than the first.
  for (size_t scheme = 0; scheme < 2; ++scheme) {
    const double first = loadingMb(series[scheme].front());
    const double last = loadingMb(series[scheme].back());
    checks.expect(last > first, scheme == 0 ? "MLE" : "combined",
                  "last backup loads " + fmtDouble(last, 2) +
                      " MB > first backup " + fmtDouble(first, 2) + " MB");
  }
}

void fig14(Checks& checks) {
  const MetadataRun run = metadataExperiment(
      "Figure 14", /*scaleOneCacheBytes=*/7'200'000,
      "sufficient (paper: 4 GB)");
  const MetadataSeries& series = run.series;
  // The regime: the cache holds every scheme's unique fingerprints.
  for (size_t scheme = 0; scheme < 2; ++scheme) {
    checks.expect(run.cacheEntries >= run.uniqueChunks[scheme],
                  scheme == 0 ? "MLE regime" : "combined regime",
                  "cache entries " + std::to_string(run.cacheEntries) +
                      " >= stored unique chunks " +
                      std::to_string(run.uniqueChunks[scheme]));
  }
  checkMetadataOverhead(series, checks);
  // A sufficient cache keeps prior fingerprints resident: the last backup
  // loads less than the first.
  for (size_t scheme = 0; scheme < 2; ++scheme) {
    const double first = loadingMb(series[scheme].front());
    const double last = loadingMb(series[scheme].back());
    checks.expect(last < first, scheme == 0 ? "MLE" : "combined",
                  "last backup loads " + fmtDouble(last, 2) +
                      " MB < first backup " + fmtDouble(first, 2) + " MB");
  }
}

// --- Ablation: RCE tags (Section 8) ---

/// RCE at trace level: the observable dedup identity of each chunk is its
/// deterministic tag. (Bodies are random and carry no dedup signal.)
EncryptedTrace rceTagTrace(const std::vector<ChunkRecord>& plain) {
  EncryptedTrace out;
  out.records = plain;  // tag stream == plaintext fingerprint stream
  out.truth.reserve(plain.size());
  for (const auto& r : plain) out.truth.emplace(r.fp, r.fp);
  return out;
}

void ablRceTags(Checks& checks) {
  printTitle("Ablation: RCE tags",
             "deterministic dedup tags leak exactly like MLE ciphertexts");
  const Dataset& fsl = fslDataset();
  const size_t targetIndex = fsl.backupCount() - 1;
  const EncryptedTrace mleTarget = encryptTarget(fsl, targetIndex);
  const EncryptedTrace rceTarget =
      rceTagTrace(fsl.backups[targetIndex].records);
  printRow({"aux", "MLE adv", "RCE-tags adv"});
  for (size_t aux = 0; aux + 1 < fsl.backupCount(); ++aux) {
    const auto& auxRecords = fsl.backups[aux].records;
    const double mle =
        ratePct(attackEngine(mleTarget, auxRecords)
                    .localityAttack(ciphertextOnlyConfig(true)),
                mleTarget);
    const double rce =
        ratePct(attackEngine(rceTarget, auxRecords)
                    .localityAttack(ciphertextOnlyConfig(true)),
                rceTarget);
    printRow({fsl.backups[aux].label, fmtPct(mle), fmtPct(rce)});
    // Tags leak like MLE ciphertexts: within 15% of the MLE rate (measured
    // 0.93x-1.04x; the two streams carry different fingerprints, and
    // frequency ties break by fingerprint).
    checks.expect(rce >= 0.85 * mle && rce <= 1.15 * mle,
                  "aux=" + fsl.backups[aux].label,
                  "RCE-tags " + fmtPct(rce) + " within 15% of MLE " +
                      fmtPct(mle));
  }
  printf("\nConclusion: randomizing bodies without randomizing dedup "
         "identities does not mitigate frequency analysis.\n");
}

// --- Ablation: each defense half alone (Section 6) ---

EncryptedTrace scrambleOnlyTrace(const std::vector<ChunkRecord>& plain,
                                 int fpBits, uint64_t avgChunkBytes) {
  SegmentParams params;
  params.avgChunkBytes = avgChunkBytes;
  Rng rng(17);
  const auto scrambled = scrambleTrace(plain, params, rng);
  return mleEncryptTrace(scrambled, fpBits);
}

void ablScrambleOnly(Checks& checks) {
  printTitle("Ablation: scrambling vs MinHash",
             "contribution of each defense half (advanced attack, "
             "known-plaintext 0.2% leakage)");
  const Dataset& fsl = fslDataset();
  const size_t auxIndex = 2, targetIndex = 4;
  const auto& aux = fsl.backups[auxIndex].records;
  const auto& plainTarget = fsl.backups[targetIndex].records;

  const auto evaluate = [&](const EncryptedTrace& target) {
    return ratePct(attackEngine(target, aux)
                       .localityAttack(
                           knownPlaintextConfig(true, target, 0.2, 13)),
                   target);
  };

  const std::vector<std::pair<std::string, double>> rows = {
      {"none (MLE)", evaluate(encryptTarget(fsl, targetIndex))},
      {"minhash-only",
       evaluate(minHashEncryptTrace(plainTarget, defenseFor(fsl, false)))},
      {"scramble-only",
       evaluate(scrambleOnlyTrace(plainTarget, fpBitsFor(fsl),
                                  avgChunkBytesFor(fsl)))},
      {"combined",
       evaluate(minHashEncryptTrace(plainTarget, defenseFor(fsl, true)))},
  };
  printRow({"defense", "advanced"});
  for (const auto& [defense, rate] : rows) printRow({defense, fmtPct(rate)});

  // Each half helps, scrambling more than MinHash, and only both together
  // push the rate near zero (measured 58.8 > 39.7 > 5.1 > 0.5% at 0.5).
  for (size_t i = 0; i + 1 < rows.size(); ++i) {
    checks.greater("fsl-like", rows[i].first, rows[i].second,
                   rows[i + 1].first, rows[i + 1].second);
  }
  checks.atMost("fsl-like", "combined", rows.back().second,
                kDefendedCeilingPct);
}

// --- Ablation: seal memo capacity ---
//
// DedupClient remembers the chunks it sealed most recently (an LRU keyed on
// the plaintext fingerprint), so a repeated chunk skips key derivation,
// encryption and the ciphertext fingerprint. This replays each dataset's
// backups in order through one memo per capacity, with the client's policy
// (look up every chunk, remember it after a miss), and reports the share of
// chunks the memo serves. "repeats" is the ceiling: the share of chunks seen
// earlier in the chain (an unbounded memo). "in backup" is the share of the
// chain's repeats that recur inside the same backup; the rest point back to
// an earlier backup and need a memo that spans one backup's distinct chunks.

double pct(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) /
                                static_cast<double>(whole);
}

/// Share of the chain's chunks a memo of `capacity` entries serves.
double memoHitPct(const Dataset& dataset, size_t capacity) {
  LruCache<Fp, uint32_t, FpHash> memo(capacity);
  uint64_t chunks = 0, hits = 0;
  for (const BackupTrace& backup : dataset.backups) {
    for (const ChunkRecord& r : backup.records) {
      ++chunks;
      if (const auto size = memo.get(r.fp); size && *size == r.size) {
        ++hits;
      } else {
        memo.put(r.fp, r.size);
      }
    }
  }
  return pct(hits, chunks);
}

void ablSealMemo(Checks& checks) {
  printTitle("Ablation: seal memo capacity",
             "chunks served by the client's seal memo, by capacity");
  const std::vector<size_t> capacities = {1024, 4096, 16384, 65536, 262144,
                                          1048576};
  std::vector<std::string> header = {"dataset", "backups", "distinct/bkp",
                                     "repeats", "in backup"};
  for (const size_t c : capacities) header.push_back(std::to_string(c));
  printRow(header);

  for (const Dataset* dataset : {&fslDataset(), &vmDataset(), &synDataset()}) {
    uint64_t chunks = 0, repeats = 0, inBackup = 0, distinct = 0;
    std::unordered_set<Fp, FpHash> chain;
    for (const BackupTrace& backup : dataset->backups) {
      std::unordered_set<Fp, FpHash> seen;
      for (const ChunkRecord& r : backup.records) {
        ++chunks;
        const bool again = seen.contains(r.fp);
        if (!chain.insert(r.fp).second) ++repeats;
        if (again) ++inBackup;
        seen.insert(r.fp);
      }
      distinct += seen.size();
    }
    const double ceiling = pct(repeats, chunks);
    std::vector<std::string> row = {
        dataset->name, std::to_string(dataset->backupCount()),
        std::to_string(distinct / dataset->backupCount()), fmtPct(ceiling),
        fmtPct(pct(inBackup, repeats))};
    double previous = 0.0;
    for (const size_t c : capacities) {
      const double hits = memoHitPct(*dataset, c);
      row.push_back(fmtPct(hits));
      // An LRU cache is a stack algorithm: a larger one holds a superset,
      // so hits never fall as capacity grows, and no memo serves a chunk
      // the chain has not seen before.
      const std::string cell = cellOf(*dataset, "capacity=" +
                                                    std::to_string(c));
      checks.expect(hits >= previous, cell,
                    "hits " + fmtPct(hits) + " >= smaller memo's " +
                        fmtPct(previous));
      checks.atMost(cell, "hits", hits, ceiling);
      previous = hits;
    }
    printRow(row);
  }
  printf("\nThe client's memo holds DedupClient::kSealMemoEntries = %zu "
         "entries.\n",
         DedupClient::kSealMemoEntries);
}

// --- Ablation: MinHash segment size (Section 7.1) ---

void ablSegmentSize(Checks& checks) {
  printTitle("Ablation: segment size",
             "defense strength vs storage cost across MinHash segment sizes");
  const Dataset& fsl = fslDataset();
  const size_t auxIndex = 2, targetIndex = 4;
  const auto& aux = fsl.backups[auxIndex].records;

  printRow({"avg segment", "advanced", "saving", "vs MLE"});

  // MLE baseline saving across all backups.
  CumulativeDedup mleDedup;
  SavingPoint mlePoint;
  for (const auto& backup : fsl.backups)
    mlePoint = mleDedup.addBackup(mleEncryptTrace(backup.records).records);

  for (const uint64_t avgKb : {256u, 512u, 1024u, 2048u, 4096u}) {
    DefenseConfig defense;
    defense.scramble = true;
    defense.segment.minBytes = avgKb * 1024 / 2;
    defense.segment.avgBytes = avgKb * 1024;
    defense.segment.maxBytes = avgKb * 1024 * 2;
    defense.segment.avgChunkBytes = avgChunkBytesFor(fsl);

    const EncryptedTrace target =
        minHashEncryptTrace(fsl.backups[targetIndex].records, defense);
    const double attack =
        ratePct(attackEngine(target, aux)
                    .localityAttack(
                        knownPlaintextConfig(true, target, 0.2, 29)),
                target);

    CumulativeDedup combinedDedup;
    SavingPoint combinedPoint;
    for (const auto& backup : fsl.backups) {
      combinedPoint = combinedDedup.addBackup(
          minHashEncryptTrace(backup.records, defense).records);
    }
    const double loss = mlePoint.savingPct - combinedPoint.savingPct;
    printRow({std::to_string(avgKb) + " KB", fmtPct(attack),
              fmtDouble(combinedPoint.savingPct, 1) + "%",
              "-" + fmtDouble(loss, 1) + " pts"});

    // The defense holds at every segment size, and the saving it costs
    // stays bounded (measured: larger segments lose more, up to 15.4 pts
    // at 4 MB).
    const std::string cell = std::to_string(avgKb) + " KB";
    checks.atMost(cell, "combined", attack, kDefendedCeilingPct);
    checks.expect(loss <= 20.0, cell,
                  "saving loss " + fmtDouble(loss, 1) + " pts <= 20.0 pts");
  }
}

// --- The row table ---

struct Row {
  const char* name;     // ctest runs it as paper.<name>
  const char* figure;   // what it reproduces
  const char* section;  // the paper section its checks defend
  const char* sweep;    // what it varies
  void (*run)(Checks&);
};

constexpr Row kRows[] = {
    {"fig01", "Figure 1", "Section 1",
     "chunk frequency CDF of the FSL and VM datasets", fig01},
    {"fig04", "Figure 4", "Section 5.3",
     "locality attack's u, v and w (FSL May 21, VM week 13)", fig04},
    {"fig05", "Figure 5", "Section 5.3",
     "auxiliary backup, latest backup as target", fig05},
    {"fig06", "Figure 6", "Section 5.3",
     "target backup, earliest backup as auxiliary", fig06},
    {"fig07", "Figure 7", "Section 5.3",
     "sliding window: auxiliary t, target t+s", fig07},
    {"fig08", "Figure 8", "Section 5.3.3",
     "leakage rate 0-0.2% (known-plaintext)", fig08},
    {"fig09", "Figure 9", "Section 5.3.3",
     "auxiliary backup at 0.05% leakage", fig09},
    {"fig10", "Figure 10", "Section 7.2",
     "leakage rate against MinHash and MinHash + scrambling", fig10},
    {"fig11", "Figure 11", "Section 7.3",
     "cumulative storage saving per backup, MLE vs combined", fig11},
    {"fig13", "Figure 13", "Section 7.4",
     "DDFS metadata access per backup, insufficient cache", fig13},
    {"fig14", "Figure 14", "Section 7.4",
     "DDFS metadata access per backup, sufficient cache", fig14},
    {"abl_rce_tags", "ablation", "Section 8",
     "auxiliary backup, MLE ciphertexts vs RCE tags", ablRceTags},
    {"abl_scramble_only", "ablation", "Section 6",
     "defense: none, MinHash, scrambling, both", ablScrambleOnly},
    {"abl_seal_memo", "ablation", "Section 7.4 cache regimes",
     "seal memo capacity per dataset", ablSealMemo},
    {"abl_segment_size", "ablation", "Section 7.1",
     "MinHash average segment size 256 KB-4 MB", ablSegmentSize},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Row*> selected;
  for (int i = 1; i < argc; ++i) {
    const auto it = std::find_if(
        std::begin(kRows), std::end(kRows),
        [&](const Row& row) { return std::strcmp(row.name, argv[i]) == 0; });
    if (it == std::end(kRows)) {
      fprintf(stderr, "paperrepro: unknown row '%s'; rows:", argv[i]);
      for (const Row& row : kRows) fprintf(stderr, " %s", row.name);
      fprintf(stderr, "\n");
      return 2;
    }
    selected.push_back(it);
  }
  if (selected.empty()) {
    for (const Row& row : kRows) selected.push_back(&row);
  }

  printf("paperrepro: scale %.2f\n", benchScale());
  int failedRows = 0;
  for (const Row* row : selected) {
    printf("\n### paper.%s: %s, %s; sweep: %s\n", row->name, row->figure,
           row->section, row->sweep);
    Checks checks(row->name, row->section);
    row->run(checks);
    if (!checks.report()) ++failedRows;
  }
  if (failedRows > 0) {
    printf("\npaperrepro: %d of %zu rows FAILED\n", failedRows,
           selected.size());
    return 1;
  }
  return 0;
}
