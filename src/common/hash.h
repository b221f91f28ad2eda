// Cryptographic hashing built on OpenSSL's EVP interface.
//
// All fingerprinting in the library goes through these wrappers: SHA-256
// (content fingerprints, MinHash re-keying) and HMAC-SHA-256 (server-aided
// MLE key derivation, tenant authentication). Both algorithms are fetched
// once per process, and sha256() re-initialises one digest context per
// thread, so no call goes through OpenSSL's shared algorithm table or
// allocates a context.
//
// sha256Pair() hashes two messages at once. On x86-64 CPUs with the SHA
// extensions it runs two SHA-NI lanes interleaved instruction by
// instruction, so each lane's round latency hides behind the other's;
// elsewhere it makes two sha256() calls. The kernel is picked once, at
// first use. Restore verifies a chunk's ciphertext and plaintext in one
// pair, and a backup fingerprints its chunks two at a time.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace freqdedup {

/// A message digest of up to 32 bytes (SHA-256 fills all 32).
struct Digest {
  std::array<uint8_t, 32> bytes{};
  uint8_t size = 0;

  [[nodiscard]] ByteView view() const { return {bytes.data(), size}; }
  [[nodiscard]] std::string hex() const { return hexEncode(view()); }
  friend bool operator==(const Digest& a, const Digest& b) {
    return a.size == b.size &&
           std::equal(a.bytes.begin(), a.bytes.begin() + a.size,
                      b.bytes.begin());
  }
};

/// One-shot SHA-256 of a byte range, on the calling thread's context.
Digest sha256(ByteView data);

/// SHA-256 of two byte ranges: {sha256(a), sha256(b)}.
std::array<Digest, 2> sha256Pair(ByteView a, ByteView b);

/// HMAC-SHA-256(key, data). The HMAC and SHA-256 implementations are fetched
/// once per process, so concurrent calls never reach OpenSSL's fetch table.
Digest hmacSha256(ByteView key, ByteView data);

/// Incremental SHA-256, for hashing streams without buffering them.
class Sha256Stream {
 public:
  Sha256Stream();
  ~Sha256Stream();
  Sha256Stream(const Sha256Stream&) = delete;
  Sha256Stream& operator=(const Sha256Stream&) = delete;

  void update(ByteView data);
  /// Finalizes and returns the digest; the stream resets for reuse.
  Digest finish();

 private:
  void* ctx_;  // EVP_MD_CTX, kept opaque to avoid leaking OpenSSL headers
};

namespace detail {
/// Two sha256() calls: the sha256Pair kernel on CPUs without SHA-NI.
/// Declared here only so tests can check the dispatched kernel against it.
std::array<Digest, 2> sha256PairPortable(ByteView a, ByteView b);

/// The kernel sha256Pair dispatched to: "sha-ni-2x" or "portable".
const char* sha256PairKernelName();
}  // namespace detail

}  // namespace freqdedup
