#include "analysis/attack_engine.h"

#include <algorithm>
#include <bit>

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

ThreadPool* AttackEngine::workerPool() {
  if (options_.threads <= 1) return nullptr;
  if (!pool_) pool_ = std::make_unique<ThreadPool>(options_.threads);
  return pool_.get();
}

void AttackEngine::buildFrequencies() {
  if (cipherFreq_ && plainFreq_) return;
  obs::ObsSpan span(&AttackMetrics::get().countUs, "attack.count", "attack");
  std::vector<std::optional<FrequencyIndex>*> missing;
  std::vector<const ChunkStreamIndex*> streams;
  for (const auto& [index, stream] :
       {std::pair{&cipherFreq_, &cipher_}, std::pair{&plainFreq_, &plain_}}) {
    if (*index) continue;
    missing.push_back(index);
    streams.push_back(stream);
  }
  std::vector<FrequencyIndex> built =
      FrequencyIndex::buildAll(streams, workerPool());
  for (size_t i = 0; i < missing.size(); ++i)
    *missing[i] = std::move(built[i]);
}

void AttackEngine::buildNeighbors() {
  if (cipherLeft_ && cipherRight_ && plainLeft_ && plainRight_) return;
  obs::ObsSpan span(&AttackMetrics::get().neighborBuildUs,
                    "attack.neighbor_build", "attack");
  using Side = NeighborIndex::Side;
  using Source = NeighborIndex::Source;
  std::vector<std::optional<NeighborIndex>*> missing;
  std::vector<Source> sources;
  for (const auto& [index, source] :
       {std::pair{&cipherLeft_, Source{&cipher_, Side::kLeft}},
        std::pair{&cipherRight_, Source{&cipher_, Side::kRight}},
        std::pair{&plainLeft_, Source{&plain_, Side::kLeft}},
        std::pair{&plainRight_, Source{&plain_, Side::kRight}}}) {
    if (*index) continue;
    missing.push_back(index);
    sources.push_back(source);
  }
  std::vector<NeighborIndex> built =
      NeighborIndex::buildAll(sources, workerPool());
  for (size_t i = 0; i < missing.size(); ++i)
    *missing[i] = std::move(built[i]);
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

void AttackEngine::Scratch::reset(size_t entries) {
  table.assign(std::bit_ceil(2 * entries), ClassTally{});
  shared.clear();
}

AttackEngine::Scratch::ClassTally& AttackEngine::Scratch::tally(
    uint32_t sizeClass) {
  const uint32_t key = sizeClass + 1;
  const size_t mask = table.size() - 1;
  for (size_t slot = mix64(key) & mask;; slot = (slot + 1) & mask) {
    ClassTally& t = table[slot];
    if (t.key == key) return t;
    if (t.key == 0) {
      t.key = key;
      return t;
    }
  }
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

  // Size-classified variant: the CSR lists are pre-ranked globally, so a
  // class's top-v is its first v entries in row order. A per-pair table of
  // the classes the two rows hold replaces sorting the rows by class: one
  // pass per row tallies each class, the shared classes get their runs of
  // `out` in ascending class order, and a second pass per row fills them.
  if (cipherList.empty() || plainList.empty()) return;
  const auto cipherClass = [&](const NeighborIndex::Entry& e) {
    return sizeClassOf(cipher_.sizeOf(e.id));
  };
  const auto plainClass = [&](const NeighborIndex::Entry& e) {
    return sizeClassOf(plain_.sizeOf(e.id));
  };
  // Most rows of a backup stream hold one neighbor (99% of FSL-like rows).
  if (cipherList.size() == 1 && plainList.size() == 1) {
    if (v > 0 && cipherClass(cipherList[0]) == plainClass(plainList[0]))
      out.push_back({cipherList[0].id, plainList[0].id});
    return;
  }
  scratch.reset(cipherList.size() + plainList.size());
  for (const NeighborIndex::Entry& e : cipherList)
    ++scratch.tally(cipherClass(e)).cipher;
  for (const NeighborIndex::Entry& e : plainList) {
    const uint32_t sizeClass = plainClass(e);
    Scratch::ClassTally& t = scratch.tally(sizeClass);
    if (t.plain++ == 0 && t.cipher > 0) scratch.shared.push_back(sizeClass);
  }
  // The classes both rows hold, usually one or none: the only ordering
  // left, and it never touches the rows' entries.
  std::sort(scratch.shared.begin(), scratch.shared.end());
  const size_t base = out.size();
  size_t at = base;
  for (const uint32_t sizeClass : scratch.shared) {
    Scratch::ClassTally& t = scratch.tally(sizeClass);
    t.at = static_cast<uint32_t>(at - base);
    t.len = static_cast<uint32_t>(std::min<size_t>({v, t.cipher, t.plain}));
    t.cipher = t.plain = 0;  // from here on, fill cursors
    at += t.len;
  }
  out.resize(at);
  for (const NeighborIndex::Entry& e : cipherList) {
    Scratch::ClassTally& t = scratch.tally(cipherClass(e));
    if (t.cipher < t.len) out[base + t.at + t.cipher++].cipher = e.id;
  }
  for (const NeighborIndex::Entry& e : plainList) {
    Scratch::ClassTally& t = scratch.tally(plainClass(e));
    if (t.plain < t.len) out[base + t.at + t.plain++].plain = e.id;
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

  // Main loop (Algorithm 2, lines 10-22): pop the front pair of G, analyse
  // its left and then its right neighbor tables, and infer the pairs found
  // in that order.
  AttackResult result;
  Scratch scratch;
  std::vector<IdPair> found;
  while (head < g.size()) {
    const IdPair current = g[head++];
    ++result.processedPairs;
    found.clear();
    neighborPairs(cipherLeft_->neighbors(current.cipher),
                  plainLeft_->neighbors(current.plain), config.v,
                  config.sizeAware, scratch, found);
    neighborPairs(cipherRight_->neighbors(current.cipher),
                  plainRight_->neighbors(current.plain), config.v,
                  config.sizeAware, scratch, found);
    for (const IdPair& p : found) {
      if (tryInfer(p.cipher, plain_.fpOf(p.plain))) {
        // Algorithm 2 line 17: admit to G only while it has room.
        if (g.size() - head <= config.w) g.push_back(p);
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
