#include "chunking/cdc_chunker.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace freqdedup {

/// Rabin CDC over one chunk's contiguous bytes, resumable when the chunk
/// arrives in pieces. Hashing starts at chunk offset minSize - windowSize
/// from fingerprint 0 (see cdc_chunker.h for why that is exact); the first
/// windowSize bytes only append, after that each roll expires the byte
/// windowSize back, read straight from the chunk.
class CdcKernel {
 public:
  /// Where to resume the scan of the chunk under construction.
  struct State {
    size_t pos;   // next chunk offset to hash
    uint64_t fp;  // fingerprint of the bytes hashed so far
  };

  explicit CdcKernel(const CdcParams& p)
      : minSize_(p.minSize),
        maxSize_(p.maxSize),
        window_(p.windowSize),
        mask_(p.avgSize - 1),
        tables_(p.windowSize, p.poly) {}

  /// The state of a chunk with no bytes scanned.
  [[nodiscard]] State begin() const { return {minSize_ - window_, 0}; }

  [[nodiscard]] size_t maxSize() const { return maxSize_; }

  /// Continues scanning the chunk whose first `avail` bytes start at `p`
  /// (bytes before `s.pos` must be the ones scanned before). Returns the
  /// chunk's length if its cut falls within those bytes; otherwise returns
  /// 0 and updates `s` to resume once more of the chunk is available.
  size_t scan(const uint8_t* p, size_t avail, State& s) const {
    const size_t limit = std::min(avail, maxSize_);
    size_t i = s.pos;
    uint64_t fp = s.fp;
    if (i < minSize_) {
      // Warm-up: fill the window. The first eligible cut is right after it.
      const size_t warmEnd = std::min(limit, minSize_);
      for (; i < warmEnd; ++i) fp = tables_.append(fp, p[i]);
      if (i < minSize_) {
        s = {i, fp};
        return 0;
      }
      if ((fp & mask_) == mask_) return i;
    }
    for (; i < limit; ++i) {
      fp = tables_.roll(fp, p[i - window_], p[i]);
      if ((fp & mask_) == mask_) return i + 1;
    }
    if (i == maxSize_) return i;
    s = {i, fp};
    return 0;
  }

 private:
  size_t minSize_;
  size_t maxSize_;
  size_t window_;
  uint64_t mask_;
  RabinTables tables_;
};

namespace {

/// Incremental CDC. A chunk that straddles push() calls is kept contiguous
/// in `pending_` and its scan resumes where the previous push stopped, so
/// boundaries land exactly where split() puts them at any append
/// granularity and no byte is hashed twice.
class CdcChunkStream final : public ChunkStream {
 public:
  CdcChunkStream(std::shared_ptr<const CdcKernel> kernel, ChunkSink sink)
      : kernel_(std::move(kernel)),
        sink_(std::move(sink)),
        state_(kernel_->begin()) {
    pending_.reserve(kernel_->maxSize());
  }

  void push(ByteView data) override {
    size_t start = 0;  // begin of the not-yet-chunked bytes of `data`
    if (!pending_.empty()) {
      // Extend the carried chunk (never past maxSize) and resume its scan.
      // If no cut falls in it, all of `data` has gone into `pending_`.
      const size_t carried = pending_.size();
      appendBytes(pending_, data.first(std::min(
                                data.size(), kernel_->maxSize() - carried)));
      const size_t len = kernel_->scan(pending_.data(), pending_.size(),
                                       state_);
      if (len == 0) return;
      emitPending(len);
      start = len - carried;
    }
    // Chunks that complete within `data` are emitted as views into it
    // (zero-copy); only the trailing partial chunk is copied.
    while (start < data.size()) {
      const size_t len =
          kernel_->scan(data.data() + start, data.size() - start, state_);
      if (len == 0) {
        appendBytes(pending_, data.subspan(start));
        return;
      }
      sink_(data.subspan(start, len));
      state_ = kernel_->begin();
      start += len;
    }
  }

  void flush() override {
    if (!pending_.empty()) emitPending(pending_.size());
    state_ = kernel_->begin();  // a fresh object starts from a clean window
  }

 private:
  void emitPending(size_t len) {
    sink_(ByteView(pending_.data(), len));
    pending_.clear();
    state_ = kernel_->begin();
  }

  std::shared_ptr<const CdcKernel> kernel_;
  ChunkSink sink_;
  CdcKernel::State state_;  // scan position within `pending_`
  ByteVec pending_;  // bytes of the chunk under construction (<= maxSize)
};

}  // namespace

CdcChunker::CdcChunker(const CdcParams& params) : params_(params) {
  if (params_.windowSize < 2)
    throw std::invalid_argument("CdcParams: windowSize must be >= 2");
  if (params_.avgSize == 0 || !std::has_single_bit(params_.avgSize))
    throw std::invalid_argument(
        "CdcParams: avgSize must be a non-zero power of two");
  if (params_.minSize < params_.windowSize)
    throw std::invalid_argument(
        "CdcParams: minSize must cover the Rabin window");
  if (params_.minSize > params_.avgSize || params_.avgSize > params_.maxSize)
    throw std::invalid_argument(
        "CdcParams: require minSize <= avgSize <= maxSize");
  const int degree = std::bit_width(params_.poly) - 1;
  if (degree < 9 || degree > 56)
    throw std::invalid_argument("CdcParams: poly must have degree 9..56");
  kernel_ = std::make_shared<const CdcKernel>(params_);
}

std::vector<ChunkSpan> CdcChunker::split(ByteView data) const {
  std::vector<ChunkSpan> chunks;
  if (data.empty()) return chunks;
  chunks.reserve(data.size() / params_.avgSize + 1);
  for (size_t start = 0; start < data.size();) {
    CdcKernel::State s = kernel_->begin();
    size_t len = kernel_->scan(data.data() + start, data.size() - start, s);
    if (len == 0) len = data.size() - start;  // the trailing partial chunk
    chunks.push_back({start, static_cast<uint32_t>(len)});
    start += len;
  }
  return chunks;
}

std::unique_ptr<ChunkStream> CdcChunker::makeStream(ChunkSink sink) const {
  return std::make_unique<CdcChunkStream>(kernel_, std::move(sink));
}

}  // namespace freqdedup
