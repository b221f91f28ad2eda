// Message-locked encryption (Section 2.2).
//
// An MLE key is derived from the chunk content itself, so identical plaintext
// chunks yield identical ciphertext chunks and remain deduplicable. The
// clients take the key from the KeyManager: per chunk, HMAC over the chunk
// fingerprint (server-aided MLE, DupLESS [12]); per segment under MinHash
// encryption, HMAC over the segment's minimum fingerprint. Encryption under
// the key is deterministic — which is precisely the property the paper's
// frequency-analysis attacks exploit.
#pragma once

#include "common/bytes.h"
#include "crypto/aes.h"

namespace freqdedup {

class MleScheme {
 public:
  /// Deterministic encryption under a content-locked (chunk or segment) key.
  [[nodiscard]] static ByteVec encryptWithKey(const AesKey& key,
                                              ByteView plaintext);

  /// Decryption under the stored per-chunk key.
  [[nodiscard]] static ByteVec decryptWithKey(const AesKey& key,
                                              ByteView ciphertext);
};

}  // namespace freqdedup
