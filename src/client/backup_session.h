// Streaming backup session (one per in-flight object).
//
// A BackupSession consumes an object's bytes incrementally — append() any
// number of times, then finish() — and produces exactly the recipes and
// store contents of a one-shot backup of the whole object (the frozen
// reference in tests/client/legacy_backup_reference.h), at every append
// granularity, for every scheme:
//  - chunk boundaries come from the chunker's incremental ChunkStream, which
//    is byte-equivalent to Chunker::split();
//  - MLE hands each chunk to the encrypt-and-store step as the stream emits
//    it;
//  - MinHash(+scrambling) buffers exactly one open segment of plaintext
//    chunks, closing segments with the same Sparse-Indexing rule as the
//    batch segmenter (StreamSegmenter) and scrambling each one with
//    scrambleOrder (chunking/segmenter.h), the same Algorithm 5 the
//    trace-level defence (core/defense.h) runs.
// Every scheme then runs the same encrypt-and-store loop (Fig. 2), one
// chunk at a time in (possibly scrambled) upload order: derive the chunk's
// MLE key or take the segment key, encrypt, store, record. A chunk the
// client's seal memo already knows (see dedup_client.h) skips the key, the
// encryption and the ciphertext fingerprint, and is stored by fingerprint
// alone; if the store no longer holds it, the loop seals it there and then
// and puts its bytes, so the outcome never depends on the memo. The loop
// holds one ciphertext at a time. MinHash buffers the plaintext of one open
// segment (<= SegmentParams::maxBytes, 2 MiB by default), so peak
// client-side memory is O(segment bytes), independent of object size:
// arbitrarily large objects stream through. The memo adds a fixed bound on
// top (kSealMemoEntries).
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

  /// One chunk after the encrypt step, before it is stored. On a seal-memo
  /// hit (`fromMemo`) the key, fingerprint and size come from the memo and
  /// `cipher` stays empty unless the store turns out not to hold the chunk.
  struct SealedChunk {
    AesKey key;
    ByteVec cipher;
    Fp cipherFp = 0;
    Fp plainFp = 0;
    uint32_t size = 0;
    bool fromMemo = false;

    /// Encrypts `plain` under `key` and fingerprints the ciphertext.
    void seal(ByteView plain);
  };

  void onChunk(ByteView chunk);
  void onSegment(const Segment& seg);

  /// The encrypt-and-store loop of every scheme. For k = 0.. (an empty
  /// `order` means chunk order) it takes chunks[order[k]], encrypts it under
  /// its own MLE key when `segment` is null, else under the segment key —
  /// unless the seal memo already holds the chunk under that key — stores
  /// it, and writes its recipe entry and key at its chunk-order position.
  void encryptAndStore(std::span<const ByteView> chunks,
                       std::span<const size_t> order,
                       const SegmentKeying* segment);
  /// Stores one sealed chunk: a memo hit as a known duplicate, falling back
  /// to sealing `plain` and a full put when the store no longer holds it.
  void storeChunk(SealedChunk& c, ByteView plain);

  DedupClient* client_;
  std::string name_;
  bool finished_ = false;
  uint64_t bytesAppended_ = 0;
  BackupOutcome outcome_;  // entries/keys/counters accumulate in order

  std::unique_ptr<ChunkStream> stream_;

  // MinHash path: the open segment's plaintext chunks, plus at most one
  // chunk the segmenter has deferred to the next segment. MLE buffers
  // nothing.
  std::vector<ByteVec> pending_;
  std::vector<ByteView> pendingViews_;  // reused view list of pending_

  // MinHash path: records of the buffered chunks and the segmenter.
  std::unique_ptr<StreamSegmenter> segmenter_;
  std::vector<ChunkRecord> segRecords_;
  size_t segBase_ = 0;  // global index of pending_[0]
  Rng scrambleRng_;
};

}  // namespace freqdedup
