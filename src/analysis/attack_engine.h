// The attack-analysis engine: the paper's three inference attacks
// (Section 4) over columnar per-stream indexes.
//
// Given the ciphertext chunk stream C of the latest backup and the plaintext
// chunk stream M of a prior backup (the auxiliary information), each attack
// outputs a set T of inferred ciphertext-plaintext fingerprint pairs.
//
//  - Basic attack (Algorithm 1): global rank-pairing frequency analysis.
//  - Locality-based attack (Algorithm 2): starts from an inferred seed set G
//    (top-u frequency pairs in ciphertext-only mode, or leaked pairs in
//    known-plaintext mode) and repeatedly applies frequency analysis to the
//    left/right neighbor tables of each inferred pair, exploiting chunk
//    locality; G is a FIFO queue bounded by w, and each neighbor analysis
//    returns the top-v pairs.
//  - Advanced locality-based attack (Algorithm 3): same control flow with
//    every frequency-analysis call replaced by the size-classified variant
//    (rank pairing within each class of ceil(size/16) AES blocks, since
//    deterministic block-cipher encryption preserves a chunk's block count).
//
// Tie order is arbitrary with respect to the true correspondence, so ties
// genuinely hurt accuracy (Section 4.1); they break by ascending fingerprint.
//
// An engine is constructed from the interned ciphertext and plaintext
// streams. Frequency columns and CSR neighbor indexes are built lazily (the
// basic attack needs no neighbor tables) and cached across attack runs on
// the same engine. The builds are independent of each other, so they run
// side by side on the engine's worker pool, one task per build: the two
// frequency builds at once, then the four neighbor builds
// (FrequencyIndex::buildAll, NeighborIndex::buildAll). That is the engine's
// only parallelism; AnalysisOptions::threads sizes the pool. The engine's
// thread submits the builds and allocates their buffers, so no build runs
// nested inside a pool task and no worker's malloc arena keeps a build's
// freed buffers resident.
//
// Determinism contract: every result is bit-identical to the legacy serial
// map-based implementation at every thread count. All ranking ties break by
// ascending fingerprint (never by internal chunk ID), every index row is
// sorted before it is ranked, and the locality walk is the algorithm's own
// serial FIFO loop: pop a pair, analyse its left and then its right
// neighbor tables, apply the found pairs in order.
// tests/analysis/engine_equivalence_test.cc pins this against a frozen copy
// of the legacy implementation.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "analysis/frequency_index.h"
#include "analysis/neighbor_index.h"
#include "analysis/stream_index.h"

namespace freqdedup {

class ThreadPool;

/// An inferred (ciphertext fingerprint, plaintext fingerprint) pair.
struct InferredPair {
  Fp cipher = 0;
  Fp plain = 0;

  friend bool operator==(const InferredPair&, const InferredPair&) = default;
};

enum class AttackMode {
  kCiphertextOnly,  // adversary knows C and M only
  kKnownPlaintext   // adversary additionally knows some leaked (C, M) pairs
};

struct AttackConfig {
  size_t u = 1;        // seed pairs from frequency analysis (ciphertext-only)
  size_t v = 15;       // pairs returned per neighbor analysis
  size_t w = 200'000;  // maximum size of the inferred FIFO set G
  AttackMode mode = AttackMode::kCiphertextOnly;
  bool sizeAware = false;  // true = advanced locality-based attack
  /// Not read by AttackEngine, which takes its workers from
  /// AnalysisOptions::threads. The inference result depends on neither.
  uint32_t threads = 1;
  /// Known-plaintext mode: leaked pairs about the target backup. Pairs whose
  /// ciphertext chunk is absent from C or whose plaintext chunk is absent
  /// from M are ignored (Algorithm 2, line 7).
  std::vector<InferredPair> leakedPairs;
};

struct AttackResult {
  /// T: inferred mapping, ciphertext fingerprint -> plaintext fingerprint.
  std::unordered_map<Fp, Fp, FpHash> inferred;
  /// Number of (C, M) pairs dequeued from G during the walk.
  uint64_t processedPairs = 0;
};

}  // namespace freqdedup

namespace freqdedup::analysis {

struct AnalysisOptions {
  /// Workers of the pool the index builds run on; 0 and 1 build on the
  /// calling thread. Results do not depend on this value.
  uint32_t threads = 1;
};

class AttackEngine {
 public:
  AttackEngine(ChunkStreamIndex cipher, ChunkStreamIndex plain,
               AnalysisOptions options = {});

  /// Interns both record streams and wraps them in an engine.
  static AttackEngine fromRecords(std::span<const ChunkRecord> cipher,
                                  std::span<const ChunkRecord> plain,
                                  AnalysisOptions options = {});

  /// Algorithm 1 (sizeAware = the size-classified variant).
  AttackResult basicAttack(bool sizeAware);

  /// Algorithms 2 and 3 (config.sizeAware selects; config.threads is
  /// ignored — the engine's own options govern index builds).
  AttackResult localityAttack(const AttackConfig& config);

  /// Phase builders, exposed so fddbench's attack-sweep can time the COUNT
  /// and neighbor-build phases in isolation. Idempotent. Each builds its
  /// missing indexes side by side on the worker pool (see above).
  void buildFrequencies();
  void buildNeighbors();

  [[nodiscard]] const ChunkStreamIndex& cipherStream() const {
    return cipher_;
  }
  [[nodiscard]] const ChunkStreamIndex& plainStream() const { return plain_; }

  ~AttackEngine();
  AttackEngine(AttackEngine&&) noexcept;
  AttackEngine& operator=(AttackEngine&&) noexcept;

 private:
  struct IdPair {
    ChunkId cipher;
    ChunkId plain;
  };

  /// Scratch for the sized neighbor analysis, reused across the walk: an
  /// open-addressing table of the size classes two rows hold, emptied for
  /// every row pair and reallocated only when a pair outgrows it.
  struct Scratch {
    struct ClassTally {
      uint32_t key = 0;     // size class + 1; 0 marks an empty slot
      uint32_t cipher = 0;  // the class's entries in the cipher row
      uint32_t plain = 0;   // the class's entries in the plain row
      uint32_t at = 0;      // offset of the class's first pair in the output
      uint32_t len = 0;     // pairs the class contributes
    };
    std::vector<ClassTally> table;  // power-of-two size
    std::vector<uint32_t> shared;   // the classes both rows hold

    /// Empties the table, sized for `entries` row entries at load <= 1/2.
    void reset(size_t entries);
    /// The tally of `sizeClass`, inserted empty on first sight.
    ClassTally& tally(uint32_t sizeClass);
  };

  /// Rank-pairs the top-x chunks of both streams by global frequency
  /// (Algorithm 1), or per size class when sizeAware (Algorithm 3's
  /// CLASSIFY + per-class pairing, classes ascending).
  std::vector<IdPair> rankPairs(size_t x, bool sizeAware);

  /// One neighbor-table frequency analysis of the walk: zips the pre-ranked
  /// CSR neighbor lists of an inferred pair (per size class when
  /// sizeAware), appending at most v pairs per class to `out`.
  void neighborPairs(std::span<const NeighborIndex::Entry> cipherList,
                     std::span<const NeighborIndex::Entry> plainList,
                     size_t v, bool sizeAware, Scratch& scratch,
                     std::vector<IdPair>& out) const;

  /// The engine's lazily created worker pool of options_.threads workers,
  /// or nullptr when that is at most 1.
  ThreadPool* workerPool();

  ChunkStreamIndex cipher_;
  ChunkStreamIndex plain_;
  AnalysisOptions options_;
  std::unique_ptr<ThreadPool> pool_;

  std::optional<FrequencyIndex> cipherFreq_;
  std::optional<FrequencyIndex> plainFreq_;
  std::optional<NeighborIndex> cipherLeft_;
  std::optional<NeighborIndex> cipherRight_;
  std::optional<NeighborIndex> plainLeft_;
  std::optional<NeighborIndex> plainRight_;
};

}  // namespace freqdedup::analysis
