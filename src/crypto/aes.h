// AES-256-CTR wrappers over OpenSSL EVP.
//
// Encrypted deduplication requires *deterministic* symmetric encryption:
// identical (key, plaintext) pairs must produce identical ciphertexts so
// duplicates remain detectable (Section 2.2). CTR mode with an IV derived
// deterministically from the key gives exactly that, and preserves plaintext
// length — which is what the advanced locality-based attack exploits (the
// ciphertext has the same number of 16-byte blocks as the plaintext).
//
// Security note: reusing a (key, IV) pair is only safe here because an MLE
// key is itself a deterministic function of the chunk content, so a repeated
// (key, IV) pair always encrypts the *same* plaintext.
//
// AES-256-CTR is fetched once per process, and each call re-keys one cipher
// context per thread, so no call goes through OpenSSL's shared algorithm
// table or allocates a context.
#pragma once

#include <array>

#include "common/bytes.h"

namespace freqdedup {

inline constexpr size_t kAesKeyBytes = 32;
inline constexpr size_t kAesIvBytes = 16;
inline constexpr size_t kAesBlockBytes = 16;

using AesKey = std::array<uint8_t, kAesKeyBytes>;
using AesIv = std::array<uint8_t, kAesIvBytes>;

/// AES-256-CTR encryption. Output length equals input length.
ByteVec aesCtrEncrypt(const AesKey& key, const AesIv& iv, ByteView plaintext);

/// AES-256-CTR decryption (CTR is an involution, provided for readability).
ByteVec aesCtrDecrypt(const AesKey& key, const AesIv& iv, ByteView ciphertext);

/// Derives the deterministic per-key IV: first 16 bytes of SHA-256(key).
AesIv deterministicIv(const AesKey& key);

}  // namespace freqdedup
