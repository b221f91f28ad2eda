#include "storage/dedup_engine.h"

#include "common/check.h"

namespace freqdedup {

DedupEngine::DedupEngine(const DedupEngineParams& params)
    : params_(params),
      bloom_(std::max<uint64_t>(1, params.expectedFingerprints),
             params.bloomFpr),
      cache_(std::max<uint64_t>(1, params.cacheBytes / kFpMetadataBytes)) {}

IngestOutcome DedupEngine::ingest(const ChunkRecord& record) {
  ++stats_.logicalChunks;
  stats_.logicalBytes += record.size;

  // S1: in-memory fingerprint cache (also covers the open container buffer,
  // whose fingerprints are in memory by definition).
  if (const auto cached = cache_.get(record.fp)) {
    ++stats_.cacheHits;
    return {.duplicate = true, .containerId = *cached};
  }
  if (bufferFps_.contains(record.fp)) {
    ++stats_.bufferHits;
    return {.duplicate = true, .containerId = std::nullopt};
  }

  // S2: Bloom filter — a negative proves uniqueness.
  if (!bloom_.maybeContains(record.fp)) {
    ++stats_.bloomNegatives;
    storeUnique(record);
    return {.duplicate = false, .containerId = std::nullopt};
  }

  // S3: on-disk index lookup.
  stats_.metadata.indexBytes += kFpMetadataBytes;
  const auto it = index_.find(record.fp);
  if (it == index_.end()) {
    ++stats_.bloomFalsePositives;
    storeUnique(record);
    return {.duplicate = false, .containerId = std::nullopt};
  }

  // S4: duplicate — prefetch its whole container's fingerprints.
  ++stats_.indexHits;
  const uint32_t containerId = it->second;
  const auto& fps = containerFps_[containerId];
  stats_.metadata.loadingBytes +=
      static_cast<uint64_t>(fps.size()) * kFpMetadataBytes;
  for (const Fp fp : fps) cache_.put(fp, containerId);
  return {.duplicate = true, .containerId = containerId};
}

void DedupEngine::storeUnique(const ChunkRecord& record) {
  ++stats_.uniqueChunks;
  stats_.uniqueBytes += record.size;
  bloom_.add(record.fp);
  if (buffer_.size() > 0 && bufferBytes_ + record.size > params_.containerBytes)
    flushOpenContainer();
  buffer_.push_back(record);
  bufferFps_.insert(record.fp);
  bufferBytes_ += record.size;
}

void DedupEngine::flushOpenContainer() {
  if (buffer_.empty()) return;
  const auto containerId = static_cast<uint32_t>(containerFps_.size());
  std::vector<Fp> fps;
  fps.reserve(buffer_.size());
  for (const auto& r : buffer_) fps.push_back(r.fp);
  // Writing the sealed container updates the on-disk fingerprint index.
  stats_.metadata.updateBytes +=
      static_cast<uint64_t>(buffer_.size()) * kFpMetadataBytes;
  for (const Fp fp : fps) index_[fp] = containerId;
  containerFps_.push_back(std::move(fps));
  buffer_.clear();
  bufferFps_.clear();
  bufferBytes_ = 0;
}

void DedupEngine::ingestBackup(std::span<const ChunkRecord> records) {
  for (const auto& r : records) ingest(r);
}

const std::vector<Fp>& DedupEngine::containerFingerprints(uint32_t id) const {
  FDD_CHECK(id < containerFps_.size());
  return containerFps_[id];
}

}  // namespace freqdedup
