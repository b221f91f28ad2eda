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
// only the chunk's own last windowSize bytes. The scan therefore starts
// hashing at chunk offset minSize - windowSize and skips the rest of the
// min-size prefix; the cuts are exactly those of hashing every byte.
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

/// The resumable scan that split() and every stream run (cdc_chunker.cc).
class CdcKernel;

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
  CdcParams params_;
  std::shared_ptr<const CdcKernel> kernel_;  // built once, shared read-only
};

}  // namespace freqdedup
