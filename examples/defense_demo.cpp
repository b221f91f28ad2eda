// Defense demo: the same adversary as attack_demo, now facing MinHash
// encryption and scrambling. Shows the inference rate collapsing while the
// storage saving stays close to plain MLE deduplication.
//
// Build and run:  ./build/examples/defense_demo
#include <cstdio>

#include "analysis/attack_engine.h"
#include "core/attack_eval.h"
#include "core/defense.h"
#include "core/storage_saving.h"
#include "datagen/fsl_gen.h"

using namespace freqdedup;

namespace {

double attackPct(const EncryptedTrace& target,
                 const std::vector<ChunkRecord>& aux) {
  AttackConfig config;
  config.sizeAware = true;  // strongest attack: advanced, known-plaintext
  config.mode = AttackMode::kKnownPlaintext;
  config.w = 5000;
  Rng rng(11);
  config.leakedPairs = sampleLeakedPairs(target, 0.002, rng);
  return 100.0 *
         inferenceRate(analysis::AttackEngine::fromRecords(target.records, aux)
                           .localityAttack(config),
                       target);
}

}  // namespace

int main() {
  printf("generating FSL-like backup series...\n");
  const Dataset dataset = generateFslDataset();
  const size_t targetIndex = dataset.backupCount() - 1;
  const auto& plainTarget = dataset.backups[targetIndex].records;
  const auto& aux = dataset.backups[targetIndex - 1].records;

  // Baseline: deterministic MLE.
  const EncryptedTrace mleTarget = mleEncryptTrace(plainTarget, kFslFpBits);
  printf("\nadvanced attack (0.2%% leakage) against...\n");
  printf("  deterministic MLE:      %6.2f%%\n", attackPct(mleTarget, aux));

  // Defense 1: MinHash encryption (Algorithm 4) — one key per segment,
  // derived from the segment's minimum fingerprint.
  DefenseConfig minhashOnly;
  const EncryptedTrace minhashTarget =
      minHashEncryptTrace(plainTarget, minhashOnly);
  printf("  MinHash encryption:     %6.2f%%\n",
         attackPct(minhashTarget, aux));

  // Defense 2: + scrambling (Algorithm 5) — per-segment order shuffle that
  // destroys the chunk-locality signal the attack crawls on.
  DefenseConfig combined;
  combined.scramble = true;
  const EncryptedTrace combinedTarget =
      minHashEncryptTrace(plainTarget, combined);
  printf("  combined (+scrambling): %6.2f%%\n",
         attackPct(combinedTarget, aux));

  // The price: storage saving across the whole series.
  CumulativeDedup mleDedup, combinedDedup;
  SavingPoint mlePoint, combinedPoint;
  for (const auto& backup : dataset.backups) {
    mlePoint = mleDedup.addBackup(
        mleEncryptTrace(backup.records, kFslFpBits).records);
    combinedPoint = combinedDedup.addBackup(
        minHashEncryptTrace(backup.records, combined).records);
  }
  printf("\nstorage saving after %zu backups:\n", dataset.backupCount());
  printf("  deterministic MLE:      %6.2f%% (dedup %.1fx)\n",
         mlePoint.savingPct, mlePoint.dedupRatio);
  printf("  combined defense:       %6.2f%% (dedup %.1fx)\n",
         combinedPoint.savingPct, combinedPoint.dedupRatio);
  printf("\nTakeaway: breaking determinism per segment and destroying\n"
         "chunk locality suppresses frequency analysis to a fraction of a\n"
         "percent while keeping deduplication effective.\n");
  return 0;
}
