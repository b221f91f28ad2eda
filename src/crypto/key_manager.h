// Server-aided MLE key manager (DupLESS-style; Section 2.2).
//
// Derives chunk keys as HMAC-SHA-256(global secret, fingerprint) so that,
// without the secret, ciphertext chunks look encrypted under random keys —
// defeating offline brute-force attacks on predictable chunks. Segment keys
// for MinHash encryption are derived the same way from the segment's minimum
// fingerprint, in a separate domain.
#pragma once

#include "common/bytes.h"
#include "common/fingerprint.h"
#include "crypto/aes.h"

namespace freqdedup {

class KeyManager {
 public:
  explicit KeyManager(ByteVec globalSecret);

  /// Per-chunk MLE key, keyed by the chunk's plaintext fingerprint.
  [[nodiscard]] AesKey deriveChunkKey(Fp fingerprint) const;

  /// Segment key for MinHash encryption: keyed by the segment's minimum
  /// fingerprint (Algorithm 4, line 6). The paper notes segments are far
  /// fewer than chunks, so the load on the key manager drops accordingly.
  [[nodiscard]] AesKey deriveSegmentKey(Fp minFingerprint) const;

 private:
  [[nodiscard]] AesKey derive(ByteView domain, Fp fp) const;

  ByteVec secret_;
};

}  // namespace freqdedup
