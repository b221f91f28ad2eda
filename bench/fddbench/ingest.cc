// snapshot-ingest: min(4, nproc) users back up drifting snapshot chains at
// the same time through one DedupClient (MLE, serial sessions, appends of
// at most 1 MiB, commitBackup after every snapshot) over a FileBackupStore
// with default StoreOptions. The whole backup path under writer-lock
// contention; chunking does most of the work. Restore and analysis do none.
//
// The timed phase repeats rounds — a fresh store, every user's whole chain
// — until the time is up, so every round stores exactly the same bytes.
#include <filesystem>
#include <set>
#include <thread>

#include "chunking/cdc_chunker.h"
#include "client/dedup_client.h"
#include "crypto/mle.h"
#include "fddbench.h"
#include "storage/file_backup_store.h"

namespace fddbench {
namespace {

using freqdedup::BackupOutcome;
using freqdedup::BackupStore;
using freqdedup::ByteView;
using freqdedup::Chunker;
using freqdedup::DedupClient;
using freqdedup::Fp;
using freqdedup::KeyManager;

constexpr const char* kStoreDir = "ingest-store";

ChainParams chainParams(bool quick) {
  if (quick) return {512u << 10, 8, 2, 32u << 10, 16u << 10};
  return {8ull << 20, 44, 6, 192u << 10, 64u << 10};
}

struct IngestInput {
  std::vector<std::vector<Snapshot>> chains;  // [user][snapshot]
  uint64_t roundBytes = 0;  // logical bytes of one round
};

struct SnapshotResult {
  Digest recipe;
  uint64_t newBytes = 0;
  uint64_t chunks = 0;
  uint64_t duplicates = 0;
  double seconds = 0;
};

struct Round {
  bool traced = false;
  double seconds = 0;
  std::vector<std::vector<SnapshotResult>> snapshots;  // [user][snapshot]
  uint64_t walSyncs = 0;
  uint64_t walAppends = 0;

  [[nodiscard]] uint64_t newBytes() const {
    uint64_t total = 0;
    for (const auto& user : snapshots)
      for (const SnapshotResult& r : user) total += r.newBytes;
    return total;
  }
};

std::string snapshotName(size_t user, size_t snapshot) {
  return "user" + std::to_string(user) + "/snap" + std::to_string(snapshot);
}

/// The serial MLE path of BackupSession, re-made from the layer calls it
/// makes and in the same order, so each call can be timed:
/// ChunkStream::push → fpOfContent → deriveChunkKey → encryptWithKey →
/// fpOfContent → putChunk under the client's writer lock. Produces the
/// same recipes as the session (checked against the untraced rounds).
BackupOutcome tracedMleBackup(DedupClient& client, const KeyManager& keys,
                              const Chunker& chunker, const std::string& name,
                              const Snapshot& snap, Tracer& tracer) {
  BackupOutcome out;
  const auto onChunk = [&](ByteView chunk) {
    Fp plainFp = 0;
    {
      Tracer::Span span(tracer, Layer::kFingerprint);
      plainFp = freqdedup::fpOfContent(chunk);
    }
    freqdedup::AesKey key;
    {
      Tracer::Span span(tracer, Layer::kKeyDerive);
      key = keys.deriveChunkKey(plainFp);
    }
    ByteVec cipher;
    {
      Tracer::Span span(tracer, Layer::kEncrypt);
      cipher = freqdedup::MleScheme::encryptWithKey(key, chunk);
    }
    Fp cipherFp = 0;
    {
      Tracer::Span span(tracer, Layer::kFingerprint);
      cipherFp = freqdedup::fpOfContent(cipher);
    }
    Tracer::Span wait(tracer, Layer::kPutWait);
    const bool isNew = client.withStore([&](BackupStore& store) {
      wait.end();
      Tracer::Span put(tracer, Layer::kPut);
      return store.putChunk(cipherFp, cipher);
    });
    if (isNew) {
      ++out.newChunks;
      out.newChunkFps.push_back(cipherFp);
    } else {
      ++out.duplicateChunks;
      out.duplicateChunkFps.push_back(cipherFp);
    }
    out.fileRecipe.entries.push_back(
        {cipherFp, static_cast<uint32_t>(cipher.size()), plainFp});
    out.keyRecipe.keys.push_back(key);
  };
  const auto stream = chunker.makeStream(onChunk);
  for (const ByteView piece : snap.pieces()) {
    Tracer::Span span(tracer, Layer::kChunking);
    stream->push(piece);
  }
  {
    Tracer::Span span(tracer, Layer::kChunking);
    stream->flush();
  }
  out.fileRecipe.fileName = name;
  out.fileRecipe.fileSize = snap.bytes;
  out.chunkCount = out.fileRecipe.entries.size();
  return out;
}

/// One round: a fresh store, every user's chain backed up concurrently.
Round runRound(const Options& options, const IngestInput& input,
               Tracer& tracer, Report& report, bool verifyRestores) {
  std::filesystem::remove_all(kStoreDir);
  Round round;
  round.traced = tracer.enabled();
  round.snapshots.resize(input.chains.size());
  {
    freqdedup::FileBackupStore store(kStoreDir);
    const KeyManager keys(freqdedup::toBytes(kKeySecret));
    const freqdedup::CdcChunker chunker;
    DedupClient client(store, keys, chunker);  // MLE, parallelism 1

    const double start = nowSeconds();
    std::vector<std::thread> users;
    for (size_t u = 0; u < input.chains.size(); ++u) {
      round.snapshots[u].resize(input.chains[u].size());
      users.emplace_back([&, u] {
        const freqdedup::AesKey key = userKey(u);
        freqdedup::Rng sealRng(subSeed(options.seed, 200 + u));
        for (size_t s = 0; s < input.chains[u].size(); ++s) {
          const Snapshot& snap = input.chains[u][s];
          const std::string name = snapshotName(u, s);
          SnapshotResult& r = round.snapshots[u][s];
          try {
            tracer.beginRequest(name);
            const double t0 = nowSeconds();
            Tracer::Span session(tracer, Layer::kSession);
            const BackupOutcome outcome =
                tracer.enabled()
                    ? tracedMleBackup(client, keys, chunker, name, snap,
                                      tracer)
                    : sessionBackup(client, name, snap);
            {
              Tracer::Span commit(tracer, Layer::kCommit);
              client.commitBackup(name, outcome, key, sealRng);
            }
            session.end();
            r.seconds = nowSeconds() - t0;
            r.recipe = recipeDigest(outcome);
            r.newBytes = newCipherBytes(outcome);
            r.chunks = outcome.chunkCount;
            r.duplicates = outcome.duplicateChunks;
            report.op(outcome.fileRecipe.fileSize == snap.bytes,
                      name + ": recipe size differs from the snapshot");
          } catch (const std::exception& e) {
            report.op(false, name + ": " + e.what());
          }
        }
      });
    }
    for (std::thread& t : users) t.join();
    round.seconds = nowSeconds() - start;

    const auto snap = store.metricsSnapshot();
    round.walSyncs = snap.counter("wal.syncs");
    round.walAppends = snap.counter("wal.appends");

    // End-to-end check outside the timed window: each user's newest
    // snapshot restores to the generated bytes.
    for (size_t u = 0; verifyRestores && u < input.chains.size(); ++u) {
      const size_t s = input.chains[u].size() - 1;
      try {
        freqdedup::Sha256Stream got;
        client.beginRestore(snapshotName(u, s), userKey(u))
            .streamTo([&](ByteView b) { got.update(b); });
        report.op(got.finish() == digestOf(input.chains[u][s].pieces()),
                  snapshotName(u, s) + ": restored bytes differ");
      } catch (const std::exception& e) {
        report.op(false, snapshotName(u, s) + ": restore: " + e.what());
      }
    }
  }
  std::filesystem::remove_all(kStoreDir);
  return round;
}

/// Every round, traced or not, stores the same recipes and unique bytes
/// as the first.
void checkRecipes(const std::vector<Round>& rounds, Report& report) {
  const Round& reference = rounds.front();
  for (const Round& round : rounds) {
    for (size_t u = 0; u < round.snapshots.size(); ++u)
      for (size_t s = 0; s < round.snapshots[u].size(); ++s)
        report.op(round.snapshots[u][s].recipe ==
                      reference.snapshots[u][s].recipe,
                  snapshotName(u, s) + ": recipes differ between rounds" +
                      (round.traced ? " (traced)" : ""));
    report.op(round.newBytes() == reference.newBytes(),
              "rounds stored different unique bytes");
  }
}

std::string inputFingerprint(const IngestInput& input) {
  freqdedup::Sha256Stream stream;
  std::set<const ByteVec*> seen;
  for (const auto& chain : input.chains)
    for (const Snapshot& snap : chain)
      for (const auto& file : snap.files)
        if (seen.insert(file.get()).second) stream.update(*file);
  return stream.finish().hex() + std::to_string(input.roundBytes);
}

}  // namespace

void runSnapshotIngest(const Options& options, Report& report) {
  const ChainParams params = chainParams(options.quick);
  const size_t users = options.threads;
  report.header("sizes.users", static_cast<double>(users));
  report.header("sizes.image_target_bytes",
                static_cast<double>(params.imageBytes));
  report.header("sizes.snapshots_per_user", params.snapshots);
  report.header("sizes.append_bytes", static_cast<double>(kAppendBytes));
  report.header("store.block_cache_bytes",
                static_cast<double>(freqdedup::kDefaultBlockCacheBytes));

  const IngestInput input = timedSetup<IngestInput>(
      options, report,
      [&] {
        IngestInput in;
        in.chains = makeChains(params, options.seed, static_cast<int>(users));
        for (const auto& chain : in.chains)
          for (const Snapshot& snap : chain) in.roundBytes += snap.bytes;
        return in;
      },
      inputFingerprint);
  report.header("sizes.round_logical_bytes",
                static_cast<double>(input.roundBytes));

  PeakMemory peak;
  Tracers tracers(options.traced());
  size_t started = 0;
  const std::vector<Round> rounds =
      repeatTimed(options, tracers, peak, [&](Tracer& tracer) {
        // The first two rounds also check restores.
        return runRound(options, input, tracer, report, started++ < 2);
      });
  checkRecipes(rounds, report);
  report.header("rounds", static_cast<double>(rounds.size()));

  if (!options.traced()) {
    std::vector<double> rates, latencies;
    for (const Round& round : rounds) {
      rates.push_back(static_cast<double>(input.roundBytes) / 1e6 /
                      round.seconds);
      for (const auto& user : round.snapshots)
        for (const SnapshotResult& r : user)
          latencies.push_back(r.seconds * 1e3);
    }
    report.header("latency_samples", static_cast<double>(latencies.size()));
    report.metric("mb_per_s", median(rates), "MB/s");
    report.metric("p50_ms", percentile(latencies, 0.50), "ms");
    report.metric("p90_ms", percentile(latencies, 0.90), "ms");
    report.metric("stored_bytes_per_logical_byte",
                  static_cast<double>(rounds.front().newBytes()) /
                      static_cast<double>(input.roundBytes),
                  "ratio");
    peak.report(report);
    return;
  }

  Tracer& tracer = tracers.traced();
  reportLayerDefaults(report, tracer);
  uint64_t chunks = 0, duplicates = 0, syncs = 0, appends = 0;
  std::vector<double> seconds[2];  // [traced]
  for (const Round& round : rounds) {
    seconds[round.traced].push_back(round.seconds);
    if (!round.traced) continue;
    syncs += round.walSyncs;
    appends += round.walAppends;
    for (const auto& user : round.snapshots)
      for (const SnapshotResult& r : user) {
        chunks += r.chunks;
        duplicates += r.duplicates;
      }
  }
  report.metric("chunking.chunks", static_cast<double>(chunks), "count");
  report.metric("storage.dedup_hit_ratio",
                chunks == 0 ? 0.0
                            : static_cast<double>(duplicates) /
                                  static_cast<double>(chunks),
                "ratio");
  report.metric("kvstore.wal_syncs", static_cast<double>(syncs), "count");
  report.metric("kvstore.records_per_sync",
                syncs == 0 ? 0.0
                           : static_cast<double>(appends) /
                                 static_cast<double>(syncs),
                "count");
  const double session = tracer.busySeconds(Layer::kSession);
  const double unattributed =
      session > 0 ? 100.0 * tracer.selfSeconds(Layer::kSession) / session
                  : 0.0;
  report.metric("client.unattributed_pct", unattributed, "%");
  // The layer spans must account for the backup path's time.
  report.op(unattributed <= 10.0,
            "more than 10 % of backup session time is unattributed");
  report.metric("trace.overhead_pct", overheadPct(seconds[0], seconds[1]),
                "%");
  tracer.writeChromeTrace(options.tracePath);
}

}  // namespace fddbench
