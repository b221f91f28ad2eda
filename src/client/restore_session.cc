#include "client/restore_session.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "client/dedup_client.h"
#include "crypto/mle.h"
#include "obs/trace.h"
#include "pipeline/ordered_completion.h"
#include "pipeline/thread_pool.h"

namespace freqdedup {

void RestoreOptions::validate() const {
  if (parallelism == 0)
    throw std::invalid_argument("RestoreOptions: parallelism must be >= 1");
  if (batchBytes == 0)
    throw std::invalid_argument("RestoreOptions: batchBytes must be >= 1");
  if (maxBatchContainers == 0)
    throw std::invalid_argument(
        "RestoreOptions: maxBatchContainers must be >= 1");
}

namespace {

/// Half-open range of recipe entries fetched by one store round trip.
struct Batch {
  size_t begin = 0;
  size_t end = 0;
};

/// Chunks not yet sealed into a container share one pseudo-container for
/// batching purposes (they are served from the open-chunk table anyway).
constexpr uint32_t kUnplacedContainer = UINT32_MAX;

/// Process-wide restore metrics, resolved once.
struct RestoreMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Counter& sessionsOpened = reg.counter("restore.sessions_opened");
  obs::Counter& bytesStreamed = reg.counter("restore.bytes_streamed");
  obs::Counter& chunksStreamed = reg.counter("restore.chunks_streamed");
  obs::Counter& batchesPlanned = reg.counter("restore.batches_planned");
  obs::Histogram& batchChunks = reg.histogram("restore.batch_chunks");
  obs::Histogram& batchBytes = reg.histogram("restore.batch_bytes");
  obs::Histogram& streamUs = reg.histogram("restore.stream_us");
  obs::Histogram& fetchBatchUs = reg.histogram("restore.fetch_batch_us");
  /// Batches fetched ahead of the in-order emitter but not yet emitted.
  obs::Gauge& prefetchWindow = reg.gauge("restore.prefetch_window");

  static RestoreMetrics& get() {
    static RestoreMetrics m;
    return m;
  }
};

/// Incremental container-locality batch planner: entries are fed in recipe
/// order (with their container placement) and cut into batches when one
/// would exceed the byte target or span too many distinct containers.
/// Working state is O(containers per batch), so planning a multi-gigabyte
/// recipe never materializes per-entry side tables.
class BatchPlanner {
 public:
  explicit BatchPlanner(const RestoreOptions& options) : options_(options) {}

  /// Feed entry `index` (consecutive from any starting entry — range
  /// restores begin mid-recipe) of `sizeBytes` ciphertext placed in
  /// `container`.
  void add(size_t index, uint32_t sizeBytes, uint32_t container) {
    bool newContainer =
        std::find(containers_.begin(), containers_.end(), container) ==
        containers_.end();
    const bool cut =
        current_.end > current_.begin &&
        (batchBytes_ + sizeBytes > options_.batchBytes ||
         (newContainer && containers_.size() >= options_.maxBatchContainers));
    if (cut) {
      batches_.push_back(current_);
      current_.begin = index;
      batchBytes_ = 0;
      containers_.clear();
      newContainer = true;
    }
    if (current_.end == current_.begin) current_.begin = index;  // first add
    current_.end = index + 1;
    batchBytes_ += sizeBytes;
    if (newContainer) containers_.push_back(container);
  }

  std::vector<Batch> finish() {
    if (current_.end > current_.begin) batches_.push_back(current_);
    return std::move(batches_);
  }

 private:
  const RestoreOptions& options_;
  std::vector<Batch> batches_;
  Batch current_;
  uint64_t batchBytes_ = 0;
  std::vector<uint32_t> containers_;  // distinct, small by construction
};

}  // namespace

RestoreSession::RestoreSession(DedupClient& client, FileRecipe fileRecipe,
                               KeyRecipe keyRecipe)
    : client_(&client),
      fileRecipe_(std::move(fileRecipe)),
      keyRecipe_(std::move(keyRecipe)) {
  if (fileRecipe_.entries.size() != keyRecipe_.keys.size())
    throw std::invalid_argument("RestoreSession: file and key recipes "
                                "disagree on chunk count");
  RestoreMetrics::get().sessionsOpened.add();
}

RestoreSession::~RestoreSession() = default;

uint64_t RestoreSession::streamTo(const ByteSink& sink) {
  const uint64_t streamed =
      streamEntries(0, fileRecipe_.entries.size(), sink);
  if (streamed != fileRecipe_.fileSize)
    throw std::runtime_error("restore: size mismatch for " +
                             fileRecipe_.fileName);
  return streamed;
}

void RestoreSession::ensureEntryStarts() {
  if (!entryStarts_.empty()) return;
  const std::vector<RecipeEntry>& entries = fileRecipe_.entries;
  std::vector<uint64_t> starts;
  starts.reserve(entries.size() + 1);
  uint64_t at = 0;
  starts.push_back(at);
  for (const RecipeEntry& e : entries) {
    at += e.size;
    starts.push_back(at);
  }
  // CTR preserves length, so entry sizes are plaintext sizes and must sum
  // to the recipe's file size; a recipe that disagrees with itself would
  // silently mis-map offsets.
  if (at != fileRecipe_.fileSize)
    throw std::runtime_error("restore: size mismatch for " +
                             fileRecipe_.fileName);
  entryStarts_ = std::move(starts);
}

uint64_t RestoreSession::streamRange(uint64_t offset, uint64_t length,
                                     const ByteSink& sink) {
  const uint64_t size = fileRecipe_.fileSize;
  if (offset >= size || length == 0) return 0;
  const uint64_t want = std::min(length, size - offset);
  ensureEntryStarts();
  // Entry window covering [offset, offset + want): the entry containing
  // `offset` through the entry containing the last requested byte.
  const size_t entryBegin = static_cast<size_t>(
      std::upper_bound(entryStarts_.begin(), entryStarts_.end(), offset) -
      entryStarts_.begin() - 1);
  const size_t entryEnd = static_cast<size_t>(
      std::upper_bound(entryStarts_.begin(), entryStarts_.end(),
                       offset + want - 1) -
      entryStarts_.begin());
  uint64_t skip = offset - entryStarts_[entryBegin];
  uint64_t remaining = want;
  streamEntries(entryBegin, entryEnd, [&](ByteView bytes) {
    if (skip >= bytes.size()) {
      skip -= bytes.size();
      return;
    }
    bytes = bytes.subspan(static_cast<size_t>(skip));
    skip = 0;
    const size_t take =
        static_cast<size_t>(std::min<uint64_t>(bytes.size(), remaining));
    if (take > 0) sink(bytes.subspan(0, take));
    remaining -= take;
  });
  if (remaining != 0)
    throw std::runtime_error("restore: size mismatch for " +
                             fileRecipe_.fileName);
  return want;
}

uint64_t RestoreSession::streamEntries(size_t entryBegin, size_t entryEnd,
                                       const ByteSink& sink) {
  RestoreMetrics& m = RestoreMetrics::get();
  obs::ObsSpan streamSpan(&m.streamUs, "restore.stream", "restore");
  const std::vector<RecipeEntry>& entries = fileRecipe_.entries;
  // Deliberately NOT under the client's store mutex: the store's read path
  // is internally synchronized, so concurrent restores (and a concurrent
  // backup's store writes) overlap with this session's I/O.
  BackupStore& store = client_->store();
  const RestoreOptions& options = client_->restoreOptions();

  // Placement is queried in bounded slices and fed straight into the
  // incremental planner: chunkLocator holds the store's metadata lock for
  // its whole span, and a multi-gigabyte recipe must stall concurrent
  // writers/restores for neither one monolithic index scan nor O(entries)
  // side tables. The placements only shape batches, so a write landing
  // between slices is harmless.
  constexpr size_t kLocatorSlice = 4096;
  BatchPlanner planner(options);
  {
    std::vector<Fp> sliceFps;
    sliceFps.reserve(std::min(kLocatorSlice, entryEnd - entryBegin));
    for (size_t off = entryBegin; off < entryEnd; off += kLocatorSlice) {
      const size_t count = std::min(kLocatorSlice, entryEnd - off);
      sliceFps.clear();
      for (size_t k = 0; k < count; ++k)
        sliceFps.push_back(entries[off + k].cipherFp);
      const auto placements = store.chunkLocator(sliceFps);
      for (size_t k = 0; k < count; ++k)
        planner.add(off + k, entries[off + k].size,
                    placements[k] ? placements[k]->containerId
                                  : kUnplacedContainer);
    }
  }
  const std::vector<Batch> batches = planner.finish();
  m.batchesPlanned.add(batches.size());

  ThreadPool* pool = client_->pool_.get();
  uint64_t streamed = 0;

  const std::function<std::vector<ByteVec>(size_t)> fetchBatch =
      [&](size_t b) {
        const Batch& batch = batches[b];
        std::vector<Fp> fps;
        fps.reserve(batch.end - batch.begin);
        uint64_t batchBytes = 0;
        for (size_t i = batch.begin; i < batch.end; ++i) {
          fps.push_back(entries[i].cipherFp);
          batchBytes += entries[i].size;
        }
        m.batchChunks.record(fps.size());
        m.batchBytes.record(batchBytes);
        obs::ObsSpan span(&m.fetchBatchUs, "restore.fetch_batch", "restore");
        auto ciphers = store.getChunks(fps);
        span.finish();
        // Fetched, not yet handed to the in-order emitter.
        m.prefetchWindow.add();
        return ciphers;
      };
  const std::function<void(size_t, std::vector<ByteVec>&&)> emitBatch =
      [&](size_t b, std::vector<ByteVec>&& ciphers) {
        m.prefetchWindow.sub();
        const Batch& batch = batches[b];
        const size_t count = batch.end - batch.begin;
        std::vector<ByteVec> plains(count);
        const auto decryptRange = [&](size_t begin, size_t end) {
          for (size_t k = begin; k < end; ++k) {
            const size_t i = batch.begin + k;
            const RecipeEntry& entry = entries[i];
            // End-to-end verification: the store must hand back exactly the
            // ciphertext the recipe names, and decryption must reproduce the
            // plaintext the recipe fingerprinted at backup time.
            if (fpOfContent(ciphers[k]) != entry.cipherFp)
              throw std::runtime_error(
                  "restore: ciphertext fingerprint mismatch for " +
                  fpToHex(entry.cipherFp));
            plains[k] =
                MleScheme::decryptWithKey(keyRecipe_.keys[i], ciphers[k]);
            if (entry.plainFp != 0 && fpOfContent(plains[k]) != entry.plainFp)
              throw std::runtime_error(
                  "restore: plaintext fingerprint mismatch for " +
                  fpToHex(entry.cipherFp));
          }
        };
        parallelFor(pool, count, decryptRange);
        // Strictly in-order emission, batch by batch, chunk by chunk.
        uint64_t emitted = 0;
        for (size_t k = 0; k < count; ++k) {
          emitted += plains[k].size();
          sink(ByteView(plains[k].data(), plains[k].size()));
        }
        streamed += emitted;
        m.chunksStreamed.add(count);
        m.bytesStreamed.add(emitted);
      };

  orderedProduceConsume<std::vector<ByteVec>>(
      options.readAheadBatches > 0 ? pool : nullptr, options.readAheadBatches,
      batches.size(), fetchBatch, emitBatch);

  return streamed;
}

ByteVec RestoreSession::readAll() {
  ByteVec content;
  content.reserve(fileRecipe_.fileSize);
  streamTo([&content](ByteView bytes) { appendBytes(content, bytes); });
  return content;
}

}  // namespace freqdedup
