#include "client/backup_session.h"

#include <algorithm>
#include <utility>

#include "client/dedup_client.h"
#include "common/check.h"
#include "crypto/mle.h"
#include "obs/trace.h"

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
  // Duplicates stored from the seal memo, without encrypting them again.
  obs::Counter& sealMemoHits = reg.counter("backup.seal_memo_hits");
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

}  // namespace

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
  }
  outcome_.fileRecipe.fileName = name_;
  outcome_.fileRecipe.fileSize = bytesAppended_;
  outcome_.chunkCount = outcome_.fileRecipe.entries.size();
  return std::move(outcome_);
}

void BackupSession::SealedChunk::seal(ByteView plain) {
  cipher = MleScheme::encryptWithKey(key, plain);
  cipherFp = fpOfContent(cipher);
  size = static_cast<uint32_t>(cipher.size());
}

void BackupSession::storeChunk(SealedChunk& c, ByteView plain) {
  BackupMetrics& m = BackupMetrics::get();
  bool known = false;
  if (c.fromMemo) {
    {
      std::lock_guard lock(client_->storeMu_);
      known = client_->store_->putKnownChunk(c.cipherFp, c.size);
    }
    // Stale entry (the chunk was collected) or a chunk another session has
    // yet to store: seal it now. Encryption is deterministic, so this is the
    // ciphertext the memo named.
    if (!known) c.seal(plain);
  }
  bool isNew = false;
  if (known) {
    m.sealMemoHits.add();
  } else {
    {
      std::lock_guard lock(client_->storeMu_);
      isNew = client_->store_->putChunk(c.cipherFp, c.cipher);
    }
    // Only after the put returned: every entry names a chunk that reached
    // the store.
    client_->rememberSeal(c.plainFp, {c.key, c.cipherFp, c.size});
  }
  if (isNew) {
    ++outcome_.newChunks;
    outcome_.newChunkFps.push_back(c.cipherFp);
    m.chunksNew.add();
  } else {
    ++outcome_.duplicateChunks;
    outcome_.duplicateChunkFps.push_back(c.cipherFp);
    m.chunksDuplicate.add();
  }
}

void BackupSession::encryptAndStore(std::span<const ByteView> chunks,
                                    std::span<const size_t> order,
                                    const SegmentKeying* segment) {
  // One chunk at a time, in upload order: seal it (or take it from the
  // memo), store it, then record it. The recipes keep chunk order
  // (scrambling only permutes uploads, Section 6.2).
  const size_t count = chunks.size();
  const size_t base = outcome_.fileRecipe.entries.size();
  outcome_.fileRecipe.entries.resize(base + count);
  outcome_.keyRecipe.keys.resize(base + count);
  for (size_t k = 0; k < count; ++k) {
    const size_t i = order.empty() ? k : order[k];
    SealedChunk c;
    // MinHash chunks reuse the plaintext fps computed for the segmenter.
    c.plainFp =
        segment != nullptr ? segment->records[i].fp : fpOfContent(chunks[i]);
    // An MLE chunk's key is a function of its plaintext fp, so any memo
    // entry of the same size fits; a MinHash chunk's seal fits only under
    // the same segment key (Algorithm 4).
    if (const auto ref = client_->findSeal(c.plainFp);
        ref && ref->size == chunks[i].size() &&
        (segment == nullptr || ref->key == segment->key)) {
      c.fromMemo = true;
      c.key = ref->key;
      c.cipherFp = ref->cipherFp;
      c.size = ref->size;
    } else {
      c.key = segment != nullptr
                  ? segment->key  // per-segment key, shared by its chunks
                  : client_->keyManager_->deriveChunkKey(c.plainFp);
      c.seal(chunks[i]);
    }
    storeChunk(c, chunks[i]);
    outcome_.fileRecipe.entries[base + i] = {c.cipherFp, c.size, c.plainFp};
    outcome_.keyRecipe.keys[base + i] = c.key;
  }
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
  } else {
    // MLE: the stream's view goes straight in, no copy.
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
  // exactly the order one scrambleOrder call over all segments does (as the
  // trace-level minHashEncryptTrace makes it).
  std::vector<size_t> order;
  if (client_->options_.scheme == EncryptionScheme::kMinHashScrambled)
    order = scrambleOrder(count, std::span(&local, 1), scrambleRng_);
  pendingViews_.assign(pending_.begin(),
                       pending_.begin() + static_cast<ptrdiff_t>(count));
  encryptAndStore(pendingViews_, order, &keying);

  // Drop the consumed chunks and records; an overflow-closed segment leaves
  // the chunk that triggered the close as the start of the next segment.
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<ptrdiff_t>(count));
  segRecords_.erase(segRecords_.begin(),
                    segRecords_.begin() + static_cast<ptrdiff_t>(count));
  segBase_ = seg.end;
}

}  // namespace freqdedup
