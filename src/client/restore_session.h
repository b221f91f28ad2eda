// Streaming restore session (one per in-flight object) — a locality-aware
// batched, pipelined read engine.
//
// A restore pass runs three stages:
//  1. a planner walks the file recipe and cuts it into container-locality
//     batches (consecutive entries, bounded bytes, bounded distinct
//     containers — using BackupStore::chunkLocator placement);
//  2. a prefetcher fetches up to RestoreOptions::readAheadBatches batches
//     ahead through BackupStore::getChunks, which reads each container once
//     and serves repeats from the store's container read cache;
//  3. chunks are decrypted and fingerprint-verified (ciphertext fingerprint
//     against the file recipe, decrypted plaintext fingerprint against the
//     recipe's plaintext fingerprint) — in parallel when the client has a
//     worker pool — and emitted to the sink strictly in recipe order.
//
// Output bytes and verification semantics (which checks run, with which
// error messages) are identical to the historic chunk-at-a-time path at
// every parallelism / read-ahead / cache setting. On failure the sink has
// received an in-order strict prefix of the object; unlike the historic
// path, that prefix ends at the preceding batch boundary rather than at
// the failing chunk (batches verify before they emit). Peak chunk-data
// memory is O((readAheadBatches + 1) * batchBytes) on top of the recipes
// the session already holds.
//
// Sessions are vended by DedupClient and are not thread-safe individually,
// but distinct sessions of one client may run concurrently — restore I/O
// deliberately runs outside the client's store mutex (the store's read path
// is internally synchronized), so concurrent restores overlap their I/O.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "storage/recipe.h"

namespace freqdedup {

class DedupClient;

/// Read-path tuning for the sessions a DedupClient vends. Every setting
/// produces byte-identical output; the knobs trade memory for overlap.
struct RestoreOptions {
  /// Worker threads for the decrypt + fingerprint-verify stage. 1 keeps the
  /// fully serial path (the client starts no pool); any larger value starts
  /// a client worker pool of this many threads, which the decrypt stage fans
  /// out over and the prefetcher runs on. Output is byte-identical at every
  /// setting.
  uint32_t parallelism = 1;
  /// How many locality batches the prefetcher may fetch beyond the batch
  /// currently being decrypted and emitted. 0 disables read-ahead (fetch,
  /// then decrypt, strictly alternating). Read-ahead needs a worker pool,
  /// i.e. parallelism > 1.
  uint32_t readAheadBatches = 2;
  /// Target ciphertext bytes per locality batch — the unit of restore
  /// memory and of store read amplification.
  uint64_t batchBytes = 4 * 1024 * 1024;
  /// A batch is cut early once it spans this many distinct containers, so
  /// one slow batch never fans out across the whole store.
  uint32_t maxBatchContainers = 8;

  /// Throws std::invalid_argument on a zero parallelism, batchBytes or
  /// maxBatchContainers.
  void validate() const;
};

/// Receives the next plaintext bytes of the object, in order. The view is
/// only valid for the duration of the call.
using ByteSink = std::function<void(ByteView)>;

class RestoreSession {
 public:
  RestoreSession(const RestoreSession&) = delete;
  RestoreSession& operator=(const RestoreSession&) = delete;
  /// Movable so owners can keep sessions in containers; a moved-from
  /// session is only safe to destroy.
  RestoreSession(RestoreSession&&) noexcept = default;
  ~RestoreSession();

  /// Streams the whole object to `sink`, one verified chunk at a time, in
  /// recipe order. Returns the number of bytes streamed (== size()). Throws
  /// std::runtime_error on any fingerprint or size mismatch — the sink has
  /// then received a strict prefix of the object, never silently wrong or
  /// reordered bytes. Repeatable: each call performs a full pass.
  uint64_t streamTo(const ByteSink& sink);

  /// Streams the plaintext range [offset, offset + length) to `sink`,
  /// clamped to the object end; returns the bytes streamed (0 when `offset`
  /// is at or past the end). Only the chunks covering the range are fetched
  /// and verified — the same planner/prefetch/verify pipeline as streamTo
  /// over the covering entry window — so serving a bounded range out of an
  /// arbitrarily large object costs O(range + batch), not O(object). The
  /// server daemon's restore-range protocol is built on this. Repeatable
  /// and usable at any offset order.
  uint64_t streamRange(uint64_t offset, uint64_t length, const ByteSink& sink);

  /// Convenience: materializes the whole object (for callers that need it in
  /// memory; prefer streamTo for large objects).
  [[nodiscard]] ByteVec readAll();

  [[nodiscard]] const std::string& objectName() const {
    return fileRecipe_.fileName;
  }
  [[nodiscard]] uint64_t size() const { return fileRecipe_.fileSize; }
  [[nodiscard]] size_t chunkCount() const { return fileRecipe_.entries.size(); }

 private:
  friend class DedupClient;

  /// Throws std::invalid_argument when the recipes disagree on chunk count.
  RestoreSession(DedupClient& client, FileRecipe fileRecipe,
                 KeyRecipe keyRecipe);

  /// The shared pipeline: streams recipe entries [entryBegin, entryEnd) to
  /// `sink` and returns the bytes emitted.
  uint64_t streamEntries(size_t entryBegin, size_t entryEnd,
                         const ByteSink& sink);

  /// Builds entryStarts_ (lazily, first range call) and validates that the
  /// entry sizes sum to the recipe's file size.
  void ensureEntryStarts();

  DedupClient* client_;
  FileRecipe fileRecipe_;
  KeyRecipe keyRecipe_;
  /// entryStarts_[i] = plaintext offset of entry i; size entries + 1 so
  /// entryStarts_.back() == fileSize. Empty until the first streamRange.
  std::vector<uint64_t> entryStarts_;
};

}  // namespace freqdedup
