// Streaming backup session (one per in-flight object).
//
// A BackupSession consumes an object's bytes incrementally — append() any
// number of times, then finish() — and produces exactly the recipes and
// store contents of a one-shot backup of the whole object (the frozen
// reference in tests/client/legacy_backup_reference.h), at every append
// granularity, for every scheme and parallelism level:
//  - chunk boundaries come from the chunker's incremental ChunkStream, which
//    is byte-equivalent to Chunker::split();
//  - MLE hands each chunk to the encrypt-and-store step as the stream emits
//    it (a bounded window of chunks when parallel);
//  - MinHash(+scrambling) buffers exactly one open segment of plaintext
//    chunks, closing segments with the same Sparse-Indexing rule as the
//    batch segmenter (StreamSegmenter) and consuming the scramble Rng in the
//    same per-segment order as Algorithm 5.
// Every scheme then runs the same encrypt-and-store step (Fig. 2): derive
// the chunk's MLE key or take the segment key, encrypt, and store the
// ciphertexts in (possibly scrambled) upload order. That step holds the
// ciphertexts of one call before storing them: one chunk for serial MLE, one
// encrypt window for parallel MLE, one segment (<= SegmentParams::maxBytes,
// 2 MiB by default) for MinHash at any parallelism. Peak client-side memory
// is therefore O(segment bytes + encrypt window), independent of object
// size: arbitrarily large objects stream through.
//
// Sessions are vended by DedupClient (see dedup_client.h) and are not
// thread-safe individually, but distinct sessions of one client may run
// concurrently from different threads.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "chunking/chunker.h"
#include "chunking/segmenter.h"
#include "common/rng.h"
#include "crypto/aes.h"
#include "storage/recipe.h"

namespace freqdedup {

class DedupClient;

enum class EncryptionScheme {
  kMle,              // per-chunk server-aided MLE (deterministic)
  kMinHash,          // segment-keyed MinHash encryption (Algorithm 4)
  kMinHashScrambled  // MinHash + per-segment scrambling (Algorithms 4+5)
};

struct BackupOptions {
  EncryptionScheme scheme = EncryptionScheme::kMle;
  SegmentParams segmentParams;
  uint64_t scrambleSeed = 1;
  /// Where the per-chunk key-derivation + encryption step runs. 1 runs it
  /// inline on the appending thread (serial MLE keeps one ciphertext in
  /// flight); any larger value runs the same step over the client's worker
  /// pool — shared with the restore stages and sized to the larger of the
  /// two parallelism settings, so this is a floor on pool width, not a
  /// per-stage cap — and makes MLE buffer a bounded window of chunks to fan
  /// out. Any value produces bit-identical recipes and store contents:
  /// chunks are stored in the same upload order either way.
  uint32_t parallelism = 1;
};

struct BackupOutcome {
  FileRecipe fileRecipe;
  KeyRecipe keyRecipe;
  size_t chunkCount = 0;
  size_t newChunks = 0;
  size_t duplicateChunks = 0;
  /// Ciphertext fingerprints partitioned by store outcome, in store order:
  /// chunks this backup added vs. chunks the store already held. The server
  /// daemon classifies duplicateChunkFps against the writing tenant's own
  /// history to measure cross-tenant dedup (the leakage surface).
  std::vector<Fp> newChunkFps;
  std::vector<Fp> duplicateChunkFps;
};

class BackupSession {
 public:
  BackupSession(const BackupSession&) = delete;
  BackupSession& operator=(const BackupSession&) = delete;
  /// NOT movable: the incremental chunk stream and segmenter hold callbacks
  /// that capture this session's address, so a moved session would keep
  /// feeding chunks into the moved-from shell. Owners that must keep many
  /// sessions in containers (the server daemon) use
  /// DedupClient::beginBackupHandle, which pins the session on the heap.
  BackupSession(BackupSession&&) = delete;
  ~BackupSession();

  /// Appends the next bytes of the object. Chunks are encrypted and stored
  /// as soon as their boundaries (and, for MinHash, their segment) are
  /// known. Throws std::logic_error after finish().
  void append(ByteView data);

  /// Ends the object: flushes the final partial chunk and the open segment,
  /// and returns the completed recipes. The session is unusable afterwards.
  BackupOutcome finish();

  [[nodiscard]] const std::string& objectName() const { return name_; }
  [[nodiscard]] uint64_t bytesAppended() const { return bytesAppended_; }

 private:
  friend class DedupClient;

  BackupSession(DedupClient& client, std::string name);

  /// MinHash keying of one encryptAndStore call: the segment's shared key
  /// and its chunks' plaintext fingerprints (already computed for the
  /// segmenter).
  struct SegmentKeying {
    AesKey key;
    std::span<const ChunkRecord> records;
  };

  /// One chunk after the encrypt step, before it is stored.
  struct SealedChunk {
    AesKey key;
    ByteVec cipher;
    Fp cipherFp = 0;
    Fp plainFp = 0;
  };

  void onChunk(ByteView chunk);
  void onSegment(const Segment& seg);

  /// The encrypt-and-store step of every scheme. Encrypts chunks[order[k]]
  /// for k = 0.. (an empty `order` means chunk order), each under its own
  /// MLE key when `segment` is null, else under the segment key — on the
  /// client pool when BackupOptions::parallelism > 1, inline otherwise.
  /// Then stores the ciphertexts in that upload order and appends the recipe
  /// entries and keys in chunk order.
  void encryptAndStore(std::span<const ByteView> chunks,
                       std::span<const size_t> order,
                       const SegmentKeying* segment);
  /// encryptAndStore over the first `count` buffered chunks, which are then
  /// dropped from the buffer.
  void encryptAndStorePending(size_t count, std::span<const size_t> order,
                              const SegmentKeying* segment);
  void storeChunk(Fp cipherFp, ByteView cipher);

  DedupClient* client_;
  std::string name_;
  bool finished_ = false;
  uint64_t bytesAppended_ = 0;
  BackupOutcome outcome_;  // entries/keys/counters accumulate in order

  std::unique_ptr<ChunkStream> stream_;

  // Buffered plaintext chunks: the current encrypt window (parallel MLE) or
  // the open segment (MinHash, plus at most one chunk the segmenter has
  // deferred to the next segment). Serial MLE buffers nothing.
  std::vector<ByteVec> pending_;
  std::vector<ByteView> pendingViews_;  // reused view list of pending_
  std::vector<SealedChunk> sealed_;     // reused encrypt-step output

  // MinHash path: records of the buffered chunks and the segmenter.
  std::unique_ptr<StreamSegmenter> segmenter_;
  std::vector<ChunkRecord> segRecords_;
  size_t segBase_ = 0;  // global index of pending_[0]
  Rng scrambleRng_;
};

/// Computes the per-segment scrambled visit order of Algorithm 5: for each
/// chunk a random bit decides whether it is prepended or appended to the
/// scrambled segment. Returns a permutation of [0, records) (indices into the
/// original order).
std::vector<size_t> scrambleOrder(size_t recordCount,
                                  std::span<const Segment> segments, Rng& rng);

}  // namespace freqdedup
