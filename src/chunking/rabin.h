// Rabin fingerprinting over GF(2) polynomials.
//
// Implements the rolling hash used by content-defined chunking
// (Section 2.1 of the paper; Rabin 1981, as popularized by LBFS). A window of
// the last `window` bytes is fingerprinted as a polynomial modulo a fixed
// irreducible polynomial; appending a byte and expiring the oldest byte are
// both O(1) via precomputed tables (RabinTables).
//
// A fingerprint is fully reduced, so it is a GF(2)-linear function of the
// window alone: the window b[0..W) (b[W-1] newest) hashes to
// XOR_k (b[W-1-k] * x^(8k) mod poly), each term a fixed linear map of one
// byte. CdcChunker's vector search evaluates those maps for many windows at
// once (cdc_chunker.h); its portable search rolls the fingerprint with
// RabinTables over the chunk's contiguous bytes, reading the expiring byte
// back from the input. RabinWindow, which keeps its own ring-buffer copy of
// the window, is the byte-at-a-time reference that the chunking tests
// compare against.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"

namespace freqdedup {

/// Degree-53 irreducible polynomial (the LBFS default).
inline constexpr uint64_t kDefaultRabinPoly = 0x3DA3358B4DC173ULL;

/// Degree of a polynomial (index of the highest set bit). Requires p != 0.
int polyDegree(uint64_t p);

/// (x, y) interpreted as polynomials over GF(2): returns x*y mod d.
uint64_t polyMulMod(uint64_t x, uint64_t y, uint64_t d);

/// Reduces the 128-bit polynomial (hi*2^64 + lo) modulo d.
uint64_t polyMod(uint64_t hi, uint64_t lo, uint64_t d);

/// The append and expire tables of a rolling Rabin fingerprint over a
/// `windowSize`-byte window modulo `poly`. Requires windowSize >= 2 and a
/// polynomial of degree 9..56 (the fingerprint and one appended byte must
/// fit in 64 bits). Fingerprints are always fully reduced, so a value
/// depends only on the bytes in the window, not on how it was reached.
struct RabinTables {
  RabinTables(uint32_t windowSize, uint64_t poly);

  /// fp * x^8 + b mod poly: the fingerprint with byte `b` appended.
  [[nodiscard]] uint64_t append(uint64_t fp, uint8_t b) const {
    return ((fp << 8) | b) ^ appendTable[fp >> shift];
  }

  /// Appends `in` to a full window and expires `out`, the byte that entered
  /// windowSize appends before `in`.
  [[nodiscard]] uint64_t roll(uint64_t fp, uint8_t out, uint8_t in) const {
    return append(fp, in) ^ expireTable[out];
  }

  int shift = 0;  // degree - 8: where the byte about to overflow starts
  uint64_t appendTable[256] = {};
  uint64_t expireTable[256] = {};
};

/// Rolling Rabin fingerprint over a fixed-size byte window.
class RabinWindow {
 public:
  explicit RabinWindow(uint32_t windowSize = 48,
                       uint64_t poly = kDefaultRabinPoly);

  /// Slides one byte into the window (expiring the oldest) and returns the
  /// updated fingerprint.
  uint64_t slide(uint8_t in);

  /// Resets the window to all-zero bytes and fingerprint 0.
  void reset();

  [[nodiscard]] uint64_t fingerprint() const { return fp_; }
  [[nodiscard]] uint32_t windowSize() const {
    return static_cast<uint32_t>(buf_.size());
  }

 private:
  RabinTables tables_;
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;
  uint64_t fp_ = 0;
};

}  // namespace freqdedup
