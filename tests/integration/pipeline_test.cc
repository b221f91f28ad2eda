// Cross-module integration tests: trace pipeline (datagen -> encryption ->
// attack -> defense -> evaluation), content pipeline (corpus -> chunking ->
// MLE -> dedup store -> restore), the DDFS engine fed by defended traces,
// and the trace-level scramble against the client's upload order.
#include <gtest/gtest.h>

#include "analysis/attack_engine.h"
#include "chunking/cdc_chunker.h"
#include "chunking/fixed_chunker.h"
#include "client/dedup_client.h"
#include "core/attack_eval.h"
#include "core/defense.h"
#include "core/storage_saving.h"
#include "datagen/fsl_gen.h"
#include "datagen/snapshot_gen.h"
#include "datagen/vm_gen.h"
#include "storage/dedup_engine.h"
#include "temp_store.h"

namespace freqdedup {
namespace {

using analysis::AttackEngine;

FslGenParams smallFsl() {
  FslGenParams p;
  p.users = 3;
  p.backups = 3;
  p.filesPerUser = 50;
  p.sharedTemplateFiles = 80;
  return p;
}

TEST(TracePipeline, LocalityBeatsBasicAndDefenseBeatsBoth) {
  const Dataset fsl = generateFslDataset(smallFsl());
  const auto& aux = fsl.backups[1].records;
  const auto& plainTarget = fsl.backups[2].records;

  const EncryptedTrace mleTarget = mleEncryptTrace(plainTarget);
  AttackEngine mleEngine = AttackEngine::fromRecords(mleTarget.records, aux);
  const AttackResult basic = mleEngine.basicAttack(false);
  AttackConfig cfg;
  cfg.sizeAware = true;
  const AttackResult advanced = mleEngine.localityAttack(cfg);

  const double basicRate = inferenceRate(basic, mleTarget);
  const double advancedRate = inferenceRate(advanced, mleTarget);
  EXPECT_GT(advancedRate, basicRate);
  EXPECT_GT(advancedRate, 0.01);

  // The combined defense collapses the same attack.
  DefenseConfig defense;
  defense.scramble = true;
  const EncryptedTrace defendedTarget =
      minHashEncryptTrace(plainTarget, defense);
  const AttackResult attacked =
      AttackEngine::fromRecords(defendedTarget.records, aux)
          .localityAttack(cfg);
  EXPECT_LT(inferenceRate(attacked, defendedTarget), advancedRate / 3);
}

TEST(TracePipeline, KnownPlaintextOutperformsCiphertextOnly) {
  const Dataset fsl = generateFslDataset(smallFsl());
  const auto& aux = fsl.backups[1].records;
  const EncryptedTrace target = mleEncryptTrace(fsl.backups[2].records);
  AttackEngine engine = AttackEngine::fromRecords(target.records, aux);

  AttackConfig co;
  co.sizeAware = true;
  const double coRate = inferenceRate(engine.localityAttack(co), target);

  AttackConfig kp = co;
  kp.mode = AttackMode::kKnownPlaintext;
  Rng rng(5);
  kp.leakedPairs = sampleLeakedPairs(target, 0.01, rng);
  const double kpRate = inferenceRate(engine.localityAttack(kp), target);
  EXPECT_GE(kpRate, coRate);
}

TEST(TracePipeline, MinHashStorageCostIsBounded) {
  const Dataset fsl = generateFslDataset(smallFsl());
  CumulativeDedup mle, combined;
  DefenseConfig defense;
  defense.scramble = true;
  SavingPoint mlePoint, combinedPoint;
  for (const auto& backup : fsl.backups) {
    mlePoint = mle.addBackup(mleEncryptTrace(backup.records).records);
    combinedPoint = combined.addBackup(
        minHashEncryptTrace(backup.records, defense).records);
  }
  EXPECT_LE(combinedPoint.savingPct, mlePoint.savingPct);
  // Paper (Section 7.3): at most a few percentage points of saving lost.
  EXPECT_LT(mlePoint.savingPct - combinedPoint.savingPct, 10.0);
}

TEST(TracePipeline, VmFixedSizeMakesAdvancedEqualLocality) {
  VmGenParams p;
  p.users = 2;
  p.weeks = 4;
  p.baseImageChunks = 3000;
  p.heavyWeekFirst = 2;
  p.heavyWeekLast = 2;
  const Dataset vm = generateVmDataset(p);
  const EncryptedTrace target = mleEncryptTrace(vm.backups[3].records);
  AttackConfig plainCfg;
  AttackConfig sizedCfg;
  sizedCfg.sizeAware = true;
  AttackEngine engine =
      AttackEngine::fromRecords(target.records, vm.backups[2].records);
  const AttackResult a = engine.localityAttack(plainCfg);
  const AttackResult b = engine.localityAttack(sizedCfg);
  EXPECT_EQ(a.inferred, b.inferred);
}

TEST(ContentPipeline, SnapshotChainBacksUpAndRestores) {
  CorpusParams corpusParams;
  corpusParams.fileCount = 20;
  corpusParams.targetBytes = 2 * 1024 * 1024;
  corpusParams.poolBlocks = 20;
  SnapshotGenParams snapParams;
  snapParams.snapshots = 2;
  snapParams.newBytesPerSnapshot = 128 * 1024;

  CdcParams cdc;
  cdc.minSize = 1024;
  cdc.avgSize = 4096;
  cdc.maxSize = 16384;
  const CdcChunker chunker(cdc);

  FileCorpus finalSnapshot;
  const Dataset dataset = generateSyntheticDataset(corpusParams, snapParams,
                                                   chunker, &finalSnapshot);
  ASSERT_EQ(dataset.backups.size(), 3u);

  // Back the final snapshot's files up through the real encrypted-dedup
  // pipeline and restore them.
  TempStore store;
  KeyManager km(toBytes("integration-secret"));
  BackupOptions options;
  options.scheme = EncryptionScheme::kMinHashScrambled;
  options.segmentParams.minBytes = 64 * 1024;
  options.segmentParams.avgBytes = 128 * 1024;
  options.segmentParams.maxBytes = 256 * 1024;
  options.segmentParams.avgChunkBytes = 4096;
  DedupClient client(store, km, chunker, options);

  size_t restored = 0;
  for (const auto& [name, content] : finalSnapshot) {
    BackupSession session = client.beginBackup(name);
    session.append(content);
    const BackupOutcome outcome = session.finish();
    EXPECT_EQ(
        client.beginRestore(outcome.fileRecipe, outcome.keyRecipe).readAll(),
        content);
    if (++restored >= 10) break;  // ten files is plenty for integration
  }
  EXPECT_GT(store.stats().uniqueChunks, 0u);
}

TEST(DdfsPipeline, DefendedTraceCostsLittleExtraMetadata) {
  const Dataset fsl = generateFslDataset(smallFsl());

  const auto runEngine = [&](bool defended) {
    DedupEngineParams params;
    params.containerBytes = 512 * 1024;
    params.cacheBytes = 4096 * kFpMetadataBytes;
    params.expectedFingerprints = 1'000'000;
    DedupEngine engine(params);
    DefenseConfig defense;
    defense.scramble = true;
    for (const auto& backup : fsl.backups) {
      if (defended) {
        engine.ingestBackup(
            minHashEncryptTrace(backup.records, defense).records);
      } else {
        engine.ingestBackup(mleEncryptTrace(backup.records).records);
      }
    }
    engine.flushOpenContainer();
    return engine.stats();
  };

  const DedupEngineStats mleStats = runEngine(false);
  const DedupEngineStats combinedStats = runEngine(true);
  EXPECT_GE(combinedStats.uniqueChunks, mleStats.uniqueChunks);
  // Metadata overhead of the defense stays within tens of percent.
  EXPECT_LT(static_cast<double>(combinedStats.metadata.totalBytes()),
            static_cast<double>(mleStats.metadata.totalBytes()) * 1.5);
}

// The paper figures simulate scrambling on traces (minHashEncryptTrace);
// the client scrambles real uploads. With the same seed and segment
// parameters both must visit the chunks in the same order: the client's
// store order of unique chunks, mapped back to plaintext fingerprints,
// equals the trace's output order.
TEST(TracePipeline, TraceScrambleMatchesClientUploadOrder) {
  BackupOptions options;
  options.scheme = EncryptionScheme::kMinHashScrambled;
  options.segmentParams.minBytes = 8 * 1024;
  options.segmentParams.avgBytes = 16 * 1024;
  options.segmentParams.maxBytes = 32 * 1024;
  options.segmentParams.avgChunkBytes = 1024;
  options.scrambleSeed = 4242;

  // Random bytes in 1 KiB fixed-size chunks: every chunk is unique, so each
  // one is stored new and newChunkFps lists the whole upload order.
  Rng rng(31);
  ByteVec content(256 * 1024);
  for (auto& b : content) b = static_cast<uint8_t>(rng.next());
  TempStore store;
  KeyManager km(toBytes("scramble-secret"));
  FixedChunker chunker(1024);
  DedupClient client(store, km, chunker, options);
  BackupSession session = client.beginBackup("obj");
  session.append(content);
  const BackupOutcome outcome = session.finish();
  ASSERT_EQ(outcome.newChunks, outcome.chunkCount);

  std::unordered_map<Fp, Fp, FpHash> plainOfCipher;
  std::vector<ChunkRecord> plain;
  for (const RecipeEntry& e : outcome.fileRecipe.entries) {
    plainOfCipher.emplace(e.cipherFp, e.plainFp);
    plain.push_back({e.plainFp, e.size});
  }
  std::vector<Fp> clientOrder;
  for (const Fp fp : outcome.newChunkFps)
    clientOrder.push_back(plainOfCipher.at(fp));

  DefenseConfig defense;
  defense.segment = options.segmentParams;
  defense.scramble = true;
  defense.scrambleSeed = options.scrambleSeed;
  const EncryptedTrace trace = minHashEncryptTrace(plain, defense);
  std::vector<Fp> traceOrder;
  for (const ChunkRecord& r : trace.records)
    traceOrder.push_back(trace.truth.at(r.fp));

  EXPECT_EQ(clientOrder, traceOrder);
  // Not vacuous: several segments, and the upload order is not chunk order.
  ASSERT_GE(segmentRecords(plain, options.segmentParams).size(), 3u);
  std::vector<Fp> chunkOrder;
  for (const ChunkRecord& r : plain) chunkOrder.push_back(r.fp);
  EXPECT_NE(clientOrder, chunkOrder);
}

}  // namespace
}  // namespace freqdedup
