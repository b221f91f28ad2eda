#include "analysis/attack_engine.h"

#include <algorithm>

#include "common/check.h"
#include "obs/trace.h"
#include "pipeline/thread_pool.h"

namespace freqdedup::analysis {

namespace {

/// Process-wide attack-phase metrics, resolved once.
struct AttackMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Histogram& countUs = reg.histogram("attack.count_us");
  obs::Histogram& neighborBuildUs = reg.histogram("attack.neighbor_build_us");
  obs::Histogram& basicUs = reg.histogram("attack.basic_us");
  obs::Histogram& localityUs = reg.histogram("attack.locality_us");
  obs::Counter& pairsInferred = reg.counter("attack.pairs_inferred");
  obs::Counter& rowsTouched = reg.counter("attack.rows_touched");

  static AttackMetrics& get() {
    static AttackMetrics m;
    return m;
  }
};

}  // namespace

AttackEngine::AttackEngine(ChunkStreamIndex cipher, ChunkStreamIndex plain,
                           AnalysisOptions options)
    : cipher_(std::move(cipher)),
      plain_(std::move(plain)),
      options_(options) {}

AttackEngine::~AttackEngine() = default;
AttackEngine::AttackEngine(AttackEngine&&) noexcept = default;
AttackEngine& AttackEngine::operator=(AttackEngine&&) noexcept = default;

AttackEngine AttackEngine::fromRecords(std::span<const ChunkRecord> cipher,
                                       std::span<const ChunkRecord> plain,
                                       AnalysisOptions options) {
  return {ChunkStreamIndex::build(cipher), ChunkStreamIndex::build(plain),
          options};
}

uint32_t AttackEngine::effectiveThreads() const {
  if (options_.plan == ComputePlan::kSerial) return 1;
  if (options_.plan == ComputePlan::kParallel) {
    return std::max(options_.threads, 1u);
  }
  return std::max(1u, std::min(options_.threads, hardwareThreads()));
}

ThreadPool* AttackEngine::workerPool() {
  const uint32_t threads = effectiveThreads();
  if (threads <= 1) return nullptr;
  if (!pool_) pool_ = std::make_unique<ThreadPool>(threads);
  return pool_.get();
}

void AttackEngine::runParallel(
    size_t n, const std::function<void(size_t, size_t)>& body) {
  // Tiny ranges are not worth a round trip through the pool; running them
  // inline computes exactly the same thing.
  if (effectiveThreads() <= 1 || n < 64) {
    if (n > 0) body(0, n);
    return;
  }
  parallelFor(*workerPool(), n, body);
}

void AttackEngine::buildFrequencies() {
  if (cipherFreq_ && plainFreq_) return;
  obs::ObsSpan span(&AttackMetrics::get().countUs, "attack.count", "attack");
  FrequencyBuildOptions build;
  build.threads = effectiveThreads();
  build.pool = workerPool();
  build.plan = options_.plan;
  if (!cipherFreq_) cipherFreq_ = FrequencyIndex::build(cipher_, build);
  if (!plainFreq_) plainFreq_ = FrequencyIndex::build(plain_, build);
}

void AttackEngine::buildNeighbors() {
  if (cipherLeft_ && cipherRight_ && plainLeft_ && plainRight_) return;
  obs::ObsSpan span(&AttackMetrics::get().neighborBuildUs,
                    "attack.neighbor_build", "attack");
  using Side = NeighborIndex::Side;
  NeighborBuildOptions build;
  build.threads = effectiveThreads();
  build.pool = workerPool();
  build.plan = options_.plan;
  if (!cipherLeft_) {
    cipherLeft_ = NeighborIndex::build(cipher_, Side::kLeft, build);
  }
  if (!cipherRight_) {
    cipherRight_ = NeighborIndex::build(cipher_, Side::kRight, build);
  }
  if (!plainLeft_) {
    plainLeft_ = NeighborIndex::build(plain_, Side::kLeft, build);
  }
  if (!plainRight_) {
    plainRight_ = NeighborIndex::build(plain_, Side::kRight, build);
  }
}

std::vector<AttackEngine::IdPair> AttackEngine::rankPairs(size_t x,
                                                          bool sizeAware) {
  std::vector<IdPair> pairs;
  if (!sizeAware) {
    const size_t n = std::min(
        {x, static_cast<size_t>(cipher_.uniqueCount()),
         static_cast<size_t>(plain_.uniqueCount())});
    const std::vector<ChunkId> cipherTop =
        rankByFrequency(*cipherFreq_, cipher_, n);
    const std::vector<ChunkId> plainTop =
        rankByFrequency(*plainFreq_, plain_, n);
    pairs.reserve(n);
    for (size_t i = 0; i < n; ++i)
      pairs.push_back({cipherTop[i], plainTop[i]});
    return pairs;
  }

  // Size-classified pairing (Algorithm 3): rank within each class and pair
  // the top-x ranks of every class present on both sides, classes ascending.
  // Only the top-x prefix of each class is ever consumed, so the rankings
  // partial-sort to x instead of fully ordering every class run.
  const SizeClassRanking cipherRank =
      rankBySizeClass(*cipherFreq_, cipher_, x);
  const SizeClassRanking plainRank = rankBySizeClass(*plainFreq_, plain_, x);
  size_t ci = 0, mi = 0;
  while (ci < cipherRank.classes.size() && mi < plainRank.classes.size()) {
    const ClassRange& c = cipherRank.classes[ci];
    const ClassRange& m = plainRank.classes[mi];
    if (c.sizeClass < m.sizeClass) {
      ++ci;
    } else if (m.sizeClass < c.sizeClass) {
      ++mi;
    } else {
      const size_t k = std::min({x, static_cast<size_t>(c.end - c.begin),
                                 static_cast<size_t>(m.end - m.begin)});
      for (size_t i = 0; i < k; ++i) {
        pairs.push_back({cipherRank.ids[c.begin + i],
                         plainRank.ids[m.begin + i]});
      }
      ++ci;
      ++mi;
    }
  }
  return pairs;
}

void AttackEngine::neighborPairs(
    std::span<const NeighborIndex::Entry> cipherList,
    std::span<const NeighborIndex::Entry> plainList, size_t v,
    bool sizeAware, Scratch& scratch, std::vector<IdPair>& out) const {
  if (!sizeAware) {
    const size_t k = std::min({v, cipherList.size(), plainList.size()});
    for (size_t i = 0; i < k; ++i)
      out.push_back({cipherList[i].id, plainList[i].id});
    return;
  }

  // Size-classified variant: the CSR lists are pre-ranked globally, and a
  // stable bucketing by class preserves that rank within each class, so the
  // per-class top-v is just each class run's prefix.
  scratch.cipher.clear();
  for (const NeighborIndex::Entry& e : cipherList)
    scratch.cipher.emplace_back(sizeClassOf(cipher_.sizeOf(e.id)), e.id);
  scratch.plain.clear();
  for (const NeighborIndex::Entry& e : plainList)
    scratch.plain.emplace_back(sizeClassOf(plain_.sizeOf(e.id)), e.id);
  const auto byClass = [](const std::pair<uint32_t, ChunkId>& a,
                          const std::pair<uint32_t, ChunkId>& b) {
    return a.first < b.first;
  };
  std::stable_sort(scratch.cipher.begin(), scratch.cipher.end(), byClass);
  std::stable_sort(scratch.plain.begin(), scratch.plain.end(), byClass);

  size_t ci = 0, mi = 0;
  while (ci < scratch.cipher.size() && mi < scratch.plain.size()) {
    const uint32_t cClass = scratch.cipher[ci].first;
    const uint32_t mClass = scratch.plain[mi].first;
    size_t cEnd = ci, mEnd = mi;
    while (cEnd < scratch.cipher.size() &&
           scratch.cipher[cEnd].first == cClass) {
      ++cEnd;
    }
    while (mEnd < scratch.plain.size() &&
           scratch.plain[mEnd].first == mClass) {
      ++mEnd;
    }
    if (cClass < mClass) {
      ci = cEnd;
    } else if (mClass < cClass) {
      mi = mEnd;
    } else {
      const size_t k = std::min({v, cEnd - ci, mEnd - mi});
      for (size_t i = 0; i < k; ++i) {
        out.push_back({scratch.cipher[ci + i].second,
                       scratch.plain[mi + i].second});
      }
      ci = cEnd;
      mi = mEnd;
    }
  }
}

AttackResult AttackEngine::basicAttack(bool sizeAware) {
  buildFrequencies();
  AttackMetrics& metrics = AttackMetrics::get();
  obs::ObsSpan span(&metrics.basicUs, "attack.basic", "attack");
  // Algorithm 1 passes x = max{|F_C|, |F_M|}: no cap beyond the shorter
  // side (or the class sizes in the size-aware variant).
  const size_t all = std::max(cipher_.uniqueCount(), plain_.uniqueCount());
  const std::vector<IdPair> pairs = rankPairs(all, sizeAware);
  AttackResult result;
  result.inferred.reserve(pairs.size());
  for (const IdPair& p : pairs) {
    result.inferred.emplace(cipher_.fpOf(p.cipher), plain_.fpOf(p.plain));
  }
  metrics.pairsInferred.add(result.inferred.size());
  metrics.rowsTouched.add(pairs.size());
  return result;
}

AttackResult AttackEngine::localityAttack(const AttackConfig& config) {
  FDD_CHECK_MSG(config.mode == AttackMode::kKnownPlaintext || config.u >= 1,
                "ciphertext-only mode needs u >= 1");
  buildFrequencies();
  buildNeighbors();
  AttackMetrics& metrics = AttackMetrics::get();
  obs::ObsSpan span(&metrics.localityUs, "attack.locality", "attack");

  const uint32_t cipherUnique = cipher_.uniqueCount();
  // T as dense columns: taken[c] marks an inferred ciphertext chunk, and
  // inferredPlain[c] holds its plaintext fingerprint (which may be outside
  // M entirely for leaked pairs).
  std::vector<uint8_t> taken(cipherUnique, 0);
  std::vector<Fp> inferredPlain(cipherUnique, 0);
  uint64_t inferredCount = 0;
  const auto tryInfer = [&](ChunkId c, Fp plainFp) {
    if (taken[c]) return false;  // first inference for a chunk wins
    taken[c] = 1;
    inferredPlain[c] = plainFp;
    ++inferredCount;
    return true;
  };

  // The inferred FIFO set G, as a head-indexed vector (total pushes are
  // bounded by the number of inferences, so no ring buffer is needed).
  std::vector<IdPair> g;
  size_t head = 0;

  // Initialization of G (Algorithm 2, lines 4-8).
  if (config.mode == AttackMode::kCiphertextOnly) {
    for (const IdPair& p : rankPairs(config.u, config.sizeAware)) {
      g.push_back(p);
      tryInfer(p.cipher, plain_.fpOf(p.plain));
    }
  } else {
    for (const InferredPair& p : config.leakedPairs) {
      const std::optional<ChunkId> c = cipher_.idOf(p.cipher);
      if (!c) continue;
      // Every leaked pair about C counts as known/inferred (Section 5.3.3:
      // the reported inference rate includes the leaked chunks), but only
      // pairs whose plaintext chunk also appears in M can seed the walk
      // (Algorithm 2, line 7).
      tryInfer(*c, p.plain);
      const std::optional<ChunkId> m = plain_.idOf(p.plain);
      if (m) g.push_back({*c, *m});
    }
  }

  // Main loop (Algorithm 2, lines 10-22), batched by queue generation. A
  // pair's neighbor analyses depend only on the immutable CSR indexes —
  // never on T or G — so the whole pending generation computes in parallel,
  // and the serial apply phase then consumes the results in exact FIFO
  // order, reproducing the serial walk step for step.
  AttackResult result;
  std::vector<std::vector<IdPair>> batchFound;
  while (head < g.size()) {
    const size_t batchBegin = head;
    const size_t batchSize = g.size() - head;
    if (batchFound.size() < batchSize) batchFound.resize(batchSize);

    runParallel(batchSize, [&](size_t lo, size_t hi) {
      Scratch scratch;
      for (size_t i = lo; i < hi; ++i) {
        const IdPair current = g[batchBegin + i];
        std::vector<IdPair>& found = batchFound[i];
        found.clear();
        // Left side first, then right (Algorithm 2's order).
        neighborPairs(cipherLeft_->neighbors(current.cipher),
                      plainLeft_->neighbors(current.plain), config.v,
                      config.sizeAware, scratch, found);
        neighborPairs(cipherRight_->neighbors(current.cipher),
                      plainRight_->neighbors(current.plain), config.v,
                      config.sizeAware, scratch, found);
      }
    });

    for (size_t i = 0; i < batchSize; ++i) {
      ++head;
      ++result.processedPairs;
      for (const IdPair& p : batchFound[i]) {
        if (tryInfer(p.cipher, plain_.fpOf(p.plain))) {
          // Algorithm 2 line 17: admit to G only while it has room.
          if (g.size() - head <= config.w) g.push_back(p);
        }
      }
    }
  }

  result.inferred.reserve(inferredCount);
  for (uint32_t c = 0; c < cipherUnique; ++c) {
    if (taken[c]) result.inferred.emplace(cipher_.fpOf(c), inferredPlain[c]);
  }
  metrics.pairsInferred.add(result.inferred.size());
  metrics.rowsTouched.add(result.processedPairs);
  return result;
}

}  // namespace freqdedup::analysis
