#include "client/backup_session.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "client/dedup_client.h"
#include "common/check.h"
#include "crypto/mle.h"
#include "obs/trace.h"
#include "pipeline/thread_pool.h"

namespace freqdedup {

namespace {

/// Process-wide backup/chunking metrics, resolved once. Sessions are
/// transient, so their counters live in the global registry.
struct BackupMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Counter& sessionsOpened = reg.counter("backup.sessions_opened");
  obs::Counter& bytesAppended = reg.counter("backup.bytes_appended");
  obs::Counter& chunksNew = reg.counter("backup.chunks_new");
  obs::Counter& chunksDuplicate = reg.counter("backup.chunks_duplicate");
  obs::Histogram& appendUs = reg.histogram("backup.append_us");
  obs::Histogram& finishUs = reg.histogram("backup.finish_us");
  obs::Counter& chunksProduced = reg.counter("chunk.chunks_produced");
  obs::Counter& chunkBytes = reg.counter("chunk.bytes_total");
  obs::Histogram& chunkSizeBytes = reg.histogram("chunk.size_bytes");
  obs::Counter& segmentsClosed = reg.counter("chunk.segments_closed");

  static BackupMetrics& get() {
    static BackupMetrics m;
    return m;
  }
};

/// Chunks per parallel MLE encrypt window: encryption runs at most this many
/// chunks ahead of the serial store loop, bounding extra memory to
/// O(window * chunk size) regardless of object size. Matches the historic
/// one-shot window so parallel grouping is identical (the outcome does not
/// depend on it — encryption is pure and the store order is fixed).
constexpr size_t kEncryptWindowChunks = 1024;

}  // namespace

std::vector<size_t> scrambleOrder(size_t recordCount,
                                  std::span<const Segment> segments,
                                  Rng& rng) {
  std::vector<size_t> order;
  order.reserve(recordCount);
  for (const Segment& seg : segments) {
    FDD_CHECK(seg.end <= recordCount);
    std::deque<size_t> scrambled;
    for (size_t i = seg.begin; i < seg.end; ++i) {
      // Algorithm 5, lines 7-12: odd random number -> front, else back.
      if (rng.next() & 1) {
        scrambled.push_front(i);
      } else {
        scrambled.push_back(i);
      }
    }
    order.insert(order.end(), scrambled.begin(), scrambled.end());
  }
  FDD_CHECK_MSG(order.size() == recordCount,
                "segments must cover all records");
  return order;
}

BackupSession::BackupSession(DedupClient& client, std::string name)
    : client_(&client),
      name_(std::move(name)),
      scrambleRng_(client.options_.scrambleSeed) {
  BackupMetrics::get().sessionsOpened.add();
  stream_ =
      client.chunker_->makeStream([this](ByteView chunk) { onChunk(chunk); });
  if (client.options_.scheme != EncryptionScheme::kMle) {
    segmenter_ = std::make_unique<StreamSegmenter>(
        client.options_.segmentParams,
        [this](const Segment& seg) { onSegment(seg); });
  }
}

BackupSession::~BackupSession() = default;

void BackupSession::append(ByteView data) {
  FDD_CHECK_MSG(!finished_, "append() on a finished BackupSession");
  BackupMetrics& m = BackupMetrics::get();
  obs::ObsSpan span(&m.appendUs, "backup.append", "backup");
  m.bytesAppended.add(data.size());
  bytesAppended_ += data.size();
  stream_->push(data);
}

BackupOutcome BackupSession::finish() {
  FDD_CHECK_MSG(!finished_, "finish() called twice on a BackupSession");
  obs::ObsSpan span(&BackupMetrics::get().finishUs, "backup.finish", "backup");
  finished_ = true;
  stream_->flush();  // emits the trailing partial chunk, if any
  if (segmenter_) {
    segmenter_->finish();  // closes the open segment
    FDD_CHECK_MSG(pending_.empty(), "segment buffer not drained");
  } else {
    encryptAndStorePending(pending_.size(), {}, nullptr);  // last window
  }
  outcome_.fileRecipe.fileName = name_;
  outcome_.fileRecipe.fileSize = bytesAppended_;
  outcome_.chunkCount = outcome_.fileRecipe.entries.size();
  return std::move(outcome_);
}

void BackupSession::storeChunk(Fp cipherFp, ByteView cipher) {
  bool isNew = false;
  {
    std::lock_guard lock(client_->storeMu_);
    isNew = client_->store_->putChunk(cipherFp, cipher);
  }
  BackupMetrics& m = BackupMetrics::get();
  if (isNew) {
    ++outcome_.newChunks;
    outcome_.newChunkFps.push_back(cipherFp);
    m.chunksNew.add();
  } else {
    ++outcome_.duplicateChunks;
    outcome_.duplicateChunkFps.push_back(cipherFp);
    m.chunksDuplicate.add();
  }
}

void BackupSession::encryptAndStore(std::span<const ByteView> chunks,
                                    std::span<const size_t> order,
                                    const SegmentKeying* segment) {
  const size_t count = chunks.size();
  const auto chunkAt = [order](size_t k) {
    return order.empty() ? k : order[k];
  };
  sealed_.resize(count);
  const auto encryptRange = [&](size_t begin, size_t end) {
    for (size_t k = begin; k < end; ++k) {
      const size_t i = chunkAt(k);
      SealedChunk& c = sealed_[k];
      if (segment != nullptr) {
        // Per-segment key (Algorithm 4), shared by all of the segment's chunks.
        c.key = segment->key;
        c.plainFp = segment->records[i].fp;
      } else {
        c.plainFp = fpOfContent(chunks[i]);
        c.key = client_->keyManager_->deriveChunkKey(c.plainFp);
      }
      c.cipher = MleScheme::encryptWithKey(c.key, chunks[i]);
      c.cipherFp = fpOfContent(c.cipher);
    }
  };
  // Gated on the backup options, not on pool existence: the pool is shared
  // with the restore stages and may exist solely for them.
  if (client_->options_.parallelism > 1) {
    parallelFor(*client_->pool_, count, encryptRange);
  } else {
    encryptRange(0, count);
  }

  // Store serially in upload order, so where the step ran never changes
  // what the server observes; the recipes keep chunk order (scrambling only
  // permutes uploads, Section 6.2).
  const size_t base = outcome_.fileRecipe.entries.size();
  outcome_.fileRecipe.entries.resize(base + count);
  outcome_.keyRecipe.keys.resize(base + count);
  for (size_t k = 0; k < count; ++k) {
    const SealedChunk& c = sealed_[k];
    storeChunk(c.cipherFp, c.cipher);
    const size_t i = chunkAt(k);
    outcome_.fileRecipe.entries[base + i] = {
        c.cipherFp, static_cast<uint32_t>(c.cipher.size()), c.plainFp};
    outcome_.keyRecipe.keys[base + i] = c.key;
  }
  sealed_.clear();
}

void BackupSession::encryptAndStorePending(size_t count,
                                           std::span<const size_t> order,
                                           const SegmentKeying* segment) {
  FDD_CHECK_MSG(count <= pending_.size(), "more chunks than buffered");
  pendingViews_.assign(pending_.begin(),
                       pending_.begin() + static_cast<ptrdiff_t>(count));
  encryptAndStore(pendingViews_, order, segment);
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<ptrdiff_t>(count));
}

void BackupSession::onChunk(ByteView chunk) {
  BackupMetrics& m = BackupMetrics::get();
  m.chunksProduced.add();
  m.chunkBytes.add(chunk.size());
  m.chunkSizeBytes.record(chunk.size());
  if (segmenter_) {
    // MinHash path: buffer the chunk, then let the segmenter decide whether
    // this record closes a segment (possibly before admitting it).
    const ChunkRecord record{fpOfContent(chunk),
                             static_cast<uint32_t>(chunk.size())};
    pending_.emplace_back(chunk.begin(), chunk.end());
    segRecords_.push_back(record);
    segmenter_->push(record);
  } else if (client_->options_.parallelism > 1) {
    // MLE, parallel: fill the encrypt window.
    pending_.emplace_back(chunk.begin(), chunk.end());
    if (pending_.size() == kEncryptWindowChunks)
      encryptAndStorePending(pending_.size(), {}, nullptr);
  } else {
    // MLE, serial: the stream's view goes straight in, no copy, one
    // ciphertext in flight.
    encryptAndStore(std::span(&chunk, 1), {}, nullptr);
  }
}

void BackupSession::onSegment(const Segment& seg) {
  FDD_CHECK_MSG(seg.begin == segBase_, "segments must close in order");
  BackupMetrics::get().segmentsClosed.add();
  const size_t count = seg.count();
  FDD_CHECK_MSG(count <= pending_.size(), "segment exceeds buffered chunks");
  const std::span<const ChunkRecord> records(segRecords_.data(), count);

  // Per-segment key from the segment's minimum fingerprint (Algorithm 4).
  const Segment local{0, count};
  const SegmentKeying keying{client_->keyManager_->deriveSegmentKey(
                                 segmentMinFingerprint(records, local)),
                             records};

  // Scrambling permutes the upload/storage order within the segment; the
  // recipe keeps the original order so restore is unaffected (Section 6.2).
  // Segments close strictly in order, so the scramble Rng consumes draws in
  // exactly the order the one-shot scrambleOrder over all segments does.
  std::vector<size_t> order;
  if (client_->options_.scheme == EncryptionScheme::kMinHashScrambled)
    order = scrambleOrder(count, std::span(&local, 1), scrambleRng_);
  encryptAndStorePending(count, order, &keying);

  // Drop the consumed records; an overflow-closed segment leaves the record
  // that triggered the close as the start of the next segment.
  segRecords_.erase(segRecords_.begin(),
                    segRecords_.begin() + static_cast<ptrdiff_t>(count));
  segBase_ = seg.end;
}

}  // namespace freqdedup
