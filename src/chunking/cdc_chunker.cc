#include "chunking/cdc_chunker.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define FDD_CDC_GFNI 1
#endif

namespace freqdedup {

/// Rabin CDC over one chunk's contiguous bytes: a search for the first chunk
/// end whose window matches, resumable when the chunk arrives in pieces.
class CdcKernel {
 public:
  /// The first chunk end `end` in [from, to] whose window, the chunk bytes
  /// p[end - windowSize, end), matches the cut pattern; 0 if none does.
  /// Requires windowSize <= from and reads only p[from - windowSize, to).
  using Search = size_t (*)(const CdcKernel& k, const uint8_t* p,
                            size_t from, size_t to);

  /// Where to resume the search of the chunk under construction.
  struct State {
    size_t next;  // next chunk end to check
  };

  CdcKernel(const CdcParams& p, Search search)
      : minSize_(p.minSize),
        maxSize_(p.maxSize),
        window_(p.windowSize),
        mask_(p.avgSize - 1),
        tables_(p.windowSize, p.poly),
        search_(search),
        affineRows_(2 * window_) {
    // col[j] = x^(j + 8k) mod poly, the image of byte bit j at distance k
    // from the window's end; its bits 0..7 and 8..15 become the rows of
    // the two 8x8 GF2P8AFFINEQB matrices of distance k (matrix byte 7 - i
    // selects the input bits that output bit i sums).
    uint64_t col[8];
    for (int j = 0; j < 8; ++j) col[j] = uint64_t{1} << j;
    for (size_t k = 0; k < window_; ++k) {
      for (int i = 0; i < 16; ++i) {
        uint64_t row = 0;
        for (int j = 0; j < 8; ++j) row |= ((col[j] >> i) & 1) << j;
        affineRows_[k + (i / 8) * window_] |= row << (8 * (7 - i % 8));
      }
      for (uint64_t& c : col) c = tables_.append(c, 0);
    }
  }

  /// The state of a chunk with no end checked.
  [[nodiscard]] State begin() const { return {minSize_}; }

  [[nodiscard]] size_t maxSize() const { return maxSize_; }
  [[nodiscard]] size_t window() const { return window_; }
  [[nodiscard]] uint64_t mask() const { return mask_; }
  [[nodiscard]] const RabinTables& tables() const { return tables_; }

  /// The low-byte matrices of distances 0..windowSize-1, then the
  /// second-byte ones.
  [[nodiscard]] const uint64_t* affineRows() const {
    return affineRows_.data();
  }

  /// Whether the window ending at chunk offset `end` matches, hashed from
  /// scratch.
  [[nodiscard]] bool matches(const uint8_t* p, size_t end) const {
    uint64_t fp = 0;
    for (size_t i = end - window_; i < end; ++i) fp = tables_.append(fp, p[i]);
    return (fp & mask_) == mask_;
  }

  /// Continues searching the chunk whose first `avail` bytes start at `p`
  /// (the ends before `s.next` were checked over these same leading bytes).
  /// Returns the chunk's length if its cut falls within those bytes;
  /// otherwise returns 0 and updates `s` to resume once more of the chunk
  /// is available.
  size_t scan(const uint8_t* p, size_t avail, State& s) const {
    const size_t to = std::min(avail, maxSize_);
    if (s.next > to) return 0;
    if (const size_t end = search_(*this, p, s.next, to)) return end;
    if (to == maxSize_) return to;
    s.next = to + 1;
    return 0;
  }

 private:
  size_t minSize_;
  size_t maxSize_;
  size_t window_;
  uint64_t mask_;
  RabinTables tables_;
  Search search_;
  std::vector<uint64_t> affineRows_;
};

namespace {

/// The portable search: warm the window ending at `from`, then roll.
size_t searchPortable(const CdcKernel& k, const uint8_t* p, size_t from,
                      size_t to) {
  const RabinTables& t = k.tables();
  const size_t w = k.window();
  const uint64_t mask = k.mask();
  uint64_t fp = 0;
  for (size_t i = from - w; i < from; ++i) fp = t.append(fp, p[i]);
  for (size_t end = from;; ++end) {
    if ((fp & mask) == mask) return end;
    if (end == to) return 0;
    fp = t.roll(fp, p[end - w], p[end]);
  }
}

#ifdef FDD_CDC_GFNI
/// Row matrix `row` applied to each of 64 bytes.
__attribute__((target("avx512bw,gfni"))) inline __m512i affine(
    __m512i bytes, uint64_t row) {
  return _mm512_gf2p8affine_epi64_epi8(
      bytes, _mm512_set1_epi64(static_cast<long long>(row)), 0);
}

/// One fingerprint byte of the windows ending at last + 1 + j, for each lane
/// j set in `lanes`: the XOR over distances i of rows[i] applied to the
/// byte i back from the window's end, last[j - i]. Masked-off lanes read
/// no memory and come out 0; a full block loads without a mask.
__attribute__((target("avx512bw,gfni"))) __m512i windowByte(
    const uint8_t* last, __mmask64 lanes, const uint64_t* rows, size_t w) {
  const bool full = lanes == ~__mmask64{0};
  const auto load = [&](size_t i) __attribute__((target("avx512bw"))) {
    return full ? _mm512_loadu_si512(last - i)
                : _mm512_maskz_loadu_epi8(lanes, last - i);
  };
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 4 <= w; i += 4) {
    // 0x96: three-way XOR.
    acc = _mm512_ternarylogic_epi64(acc, affine(load(i), rows[i]),
                                    affine(load(i + 1), rows[i + 1]), 0x96);
    acc = _mm512_ternarylogic_epi64(acc, affine(load(i + 2), rows[i + 2]),
                                    affine(load(i + 3), rows[i + 3]), 0x96);
  }
  for (; i < w; ++i) acc = _mm512_xor_si512(acc, affine(load(i), rows[i]));
  return acc;
}

/// The vector search: 64 window ends per block, the low byte first.
__attribute__((target("avx512bw,gfni"))) size_t searchGfni(
    const CdcKernel& k, const uint8_t* p, size_t from, size_t to) {
  const size_t w = k.window();
  const uint64_t mask = k.mask();
  const __m512i lowMask = _mm512_set1_epi8(static_cast<char>(mask & 0xFF));
  const __m512i highMask =
      _mm512_set1_epi8(static_cast<char>((mask >> 8) & 0xFF));
  for (size_t first = from; first <= to; first += 64) {
    const size_t n = std::min<size_t>(64, to - first + 1);
    const __mmask64 lanes = n == 64 ? ~__mmask64{0} : (__mmask64{1} << n) - 1;
    const uint8_t* last = p + first - 1;
    const __m512i low = windowByte(last, lanes, k.affineRows(), w);
    __mmask64 hits = _mm512_mask_cmpeq_epi8_mask(
        lanes, _mm512_and_si512(low, lowMask), lowMask);
    if (hits != 0 && mask > 0xFF) {
      const __m512i high = windowByte(last, lanes, k.affineRows() + w, w);
      hits = _mm512_mask_cmpeq_epi8_mask(
          hits, _mm512_and_si512(high, highMask), highMask);
    }
    for (; hits != 0; hits &= hits - 1) {
      const size_t end = first + static_cast<size_t>(std::countr_zero(hits));
      if (mask <= 0xFFFF || k.matches(p, end)) return end;
    }
  }
  return 0;
}
#endif

CdcKernel::Search pickSearch() {
#ifdef FDD_CDC_GFNI
  // Explicit init: this may run from another translation unit's static
  // constructor, before libgcc has filled in the CPU model.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("gfni"))
    return searchGfni;
#endif
  return searchPortable;
}

/// The search for this CPU, chosen on first use.
CdcKernel::Search dispatchedSearch() {
  static const CdcKernel::Search search = pickSearch();
  return search;
}

/// Incremental CDC. A chunk that straddles push() calls is kept contiguous
/// in `pending_` and its search resumes at the first chunk end not yet
/// checked, so boundaries land exactly where split() puts them at any append
/// granularity.
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
  CdcKernel::State state_;  // search position within `pending_`
  ByteVec pending_;  // bytes of the chunk under construction (<= maxSize)
};

}  // namespace

CdcChunker::CdcChunker(const CdcParams& params)
    : CdcChunker(params, /*portable=*/false) {}

CdcChunker::CdcChunker(const CdcParams& params, bool portable)
    : params_(params) {
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
  kernel_ = std::make_shared<const CdcKernel>(
      params_, portable ? searchPortable : dispatchedSearch());
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

namespace detail {

CdcChunker portableCdcChunker(const CdcParams& params) {
  return CdcChunker(params, /*portable=*/true);
}

const char* cdcKernelName() {
  return dispatchedSearch() == searchPortable ? "portable" : "avx512-gfni";
}

}  // namespace detail

}  // namespace freqdedup
