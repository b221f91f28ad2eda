// Content-defined chunking with Rabin fingerprinting.
//
// Cuts a chunk boundary where the rolling Rabin fingerprint matches a content
// pattern (fp mod avgSize == avgSize-1), subject to configured minimum and
// maximum chunk sizes — the scheme described in Section 2.1 of the paper.
// Boundaries depend only on local content, so insertions/deletions shift
// chunk boundaries only locally (content-shift robustness).
//
// The window restarts from zero at every cut and minSize >= windowSize, so
// the fingerprint at every eligible cut (chunk length >= minSize) covers
// only the chunk's own last windowSize bytes. Finding a cut is therefore a
// stateless search: the first chunk end in [from, to] whose windowSize-byte
// window matches, with nothing carried between searches but the next end to
// check.
//
// A fingerprint is fully reduced and GF(2)-linear in its window (rabin.h),
// so its low 16 bits are XOR_{k < windowSize} L_k(b[end - 1 - k]), where
// L_k(b) = low16(b * x^(8k) mod poly) is a fixed 8-to-16-bit linear map.
// On CPUs with AVX-512BW and GFNI the search evaluates the low byte of 64
// consecutive windows at once, one GF2P8AFFINEQB per window byte; only a
// 64-window block with a low-byte hit computes the second byte, and a mask
// wider than 16 bits (avgSize > 64 KiB) re-checks each survivor against the
// whole fingerprint. Elsewhere the search rolls the fingerprint byte by byte
// (re-warming windowSize bytes when a stream resumes). Both find the same
// cuts as hashing every byte of the chunk.
#pragma once

#include <memory>

#include "chunking/chunker.h"
#include "chunking/rabin.h"

namespace freqdedup {

struct CdcParams {
  uint32_t minSize = 2048;
  uint32_t avgSize = 8192;   // must be a power of two
  uint32_t maxSize = 16384;
  uint32_t windowSize = 48;
  uint64_t poly = kDefaultRabinPoly;
};

/// The cut search that split() and every stream run (cdc_chunker.cc).
class CdcKernel;
class CdcChunker;

namespace detail {

/// A CdcChunker that runs the portable search (the serial Rabin roll) on any
/// CPU; for tests and the microbench, which compare it with CdcChunker.
[[nodiscard]] CdcChunker portableCdcChunker(const CdcParams& params);

/// The search CdcChunker runs on this CPU: "avx512-gfni" or "portable".
[[nodiscard]] const char* cdcKernelName();

}  // namespace detail

class CdcChunker final : public Chunker {
 public:
  /// Throws std::invalid_argument on out-of-range parameters (zero sizes,
  /// non-power-of-two avgSize, a window below 2 bytes, minSize below the
  /// window, min > avg > max, a polynomial of degree outside 9..56).
  explicit CdcChunker(const CdcParams& params = {});

  [[nodiscard]] std::vector<ChunkSpan> split(ByteView data) const override;

  [[nodiscard]] std::unique_ptr<ChunkStream> makeStream(
      ChunkSink sink) const override;

  [[nodiscard]] const CdcParams& params() const { return params_; }

 private:
  friend CdcChunker detail::portableCdcChunker(const CdcParams& params);
  CdcChunker(const CdcParams& params, bool portable);

  CdcParams params_;
  std::shared_ptr<const CdcKernel> kernel_;  // built once, shared read-only
};

}  // namespace freqdedup
