// Chunk fingerprints.
//
// The paper's traces identify chunks by truncated cryptographic hashes: the
// FSL traces use 48-bit fingerprints, the VM traces use SHA-1. We represent a
// fingerprint as a uint64_t holding the first `bits` bits of the digest; at
// the scaled dataset sizes used here (<= a few million unique chunks) the
// collision probability in a 48-bit space is negligible, matching the paper's
// compare-by-hash assumption (Section 2.1).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "common/hash.h"

namespace freqdedup {

using Fp = uint64_t;

inline constexpr int kFslFpBits = 48;
inline constexpr int kFullFpBits = 64;
inline constexpr uint32_t kFpMetadataBytes = 32;  // per-fingerprint index entry

/// Truncates a digest to its first `bits` bits (bits in [1,64]).
Fp fpFromDigest(const Digest& d, int bits = kFullFpBits);

/// Fingerprint of raw chunk content: truncated SHA-256.
Fp fpOfContent(ByteView content, int bits = kFullFpBits);

/// Formats a fingerprint as fixed-width hex.
std::string fpToHex(Fp fp);

/// SplitMix64 finalizer — used to derive well-mixed hash values from
/// fingerprints (which are already uniform, but downstream consumers such as
/// the Bloom filter need multiple independent-looking values).
[[nodiscard]] constexpr uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hash functor for fingerprint-keyed hash maps.
struct FpHash {
  size_t operator()(Fp fp) const noexcept {
    return static_cast<size_t>(mix64(fp));
  }
};

// Canonical fingerprint-keyed map aliases. FrequencyMap doubles as the
// co-occurrence map of a single chunk's neighbor table (both map fingerprints
// to occurrence counts); SizeMap records each unique chunk's size in bytes.
using FrequencyMap = std::unordered_map<Fp, uint64_t, FpHash>;
using SizeMap = std::unordered_map<Fp, uint32_t, FpHash>;

/// Size class of a chunk: number of 16-byte AES blocks (Algorithm 3 line 18).
/// Deterministic block-cipher encryption preserves a chunk's block count, so
/// the advanced attack rank-pairs within these classes.
[[nodiscard]] constexpr uint32_t sizeClassOf(uint32_t sizeBytes) {
  return sizeBytes / 16 + (sizeBytes % 16 != 0);
}

/// One logical chunk occurrence as seen in a backup stream: its fingerprint
/// and its (plaintext or ciphertext) size in bytes. This is the unit every
/// trace-level component — generators, attacks, defenses, the dedup engine —
/// operates on. The paper's adversary observes exactly this stream
/// (Section 3.3: logical order of ciphertext chunks before deduplication).
struct ChunkRecord {
  Fp fp = 0;
  uint32_t size = 0;

  friend bool operator==(const ChunkRecord&, const ChunkRecord&) = default;
};

}  // namespace freqdedup
