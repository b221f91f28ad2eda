// Trace-level encryption and the paper's defenses (Section 6), simulated on
// fingerprints exactly as the paper's own evaluation does (Section 7.1),
// since the FSL/VM traces carry no chunk content:
//
//  - MLE baseline: deterministic one-to-one fingerprint mapping
//    (cipher fp = trunc(SHA-256("mle" || plain fp))), preserving sizes.
//  - MinHash encryption: segment the stream, compute each segment's minimum
//    fingerprint h, and map every chunk to
//    cipher fp = trunc(SHA-256("mh" || h || plain fp)). Identical plaintext
//    chunks under the same h deduplicate; under different h they do not.
//  - Scrambling: Algorithm 5's per-segment front/back shuffle, applied to the
//    plaintext order before encryption. It is scrambleOrder
//    (chunking/segmenter.h), the same function the backup client runs, so a
//    trace and a client backup with the same seed upload in the same order.
//
// Every encryption records the ground-truth cipher->plain mapping, which the
// evaluation uses to score attacks (the simulator knows the truth; the
// simulated adversary of course does not).
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "chunking/segmenter.h"
#include "common/rng.h"
#include "trace/backup_trace.h"

namespace freqdedup {

struct EncryptedTrace {
  std::vector<ChunkRecord> records;          // ciphertext stream
  std::unordered_map<Fp, Fp, FpHash> truth;  // cipher fp -> plain fp
};

/// Deterministic MLE at trace level: one-to-one fingerprint mapping. The
/// per-unique-chunk fingerprint derivations run on `threads` workers; the
/// output is identical at every thread count.
EncryptedTrace mleEncryptTrace(std::span<const ChunkRecord> plain,
                               int fpBits = kFslFpBits,
                               uint32_t threads = 1);

struct DefenseConfig {
  SegmentParams segment;
  bool scramble = false;  // apply Algorithm 5 (scrambleOrder) per segment
  uint64_t scrambleSeed = 1;
  int fpBits = kFslFpBits;
  /// Worker threads for the per-chunk fingerprint derivations (the
  /// segmentation and scramble order stay serial so the RNG stream — and
  /// hence the output — is identical at every thread count).
  uint32_t threads = 1;
};

/// MinHash encryption (optionally preceded by per-segment scrambling).
EncryptedTrace minHashEncryptTrace(std::span<const ChunkRecord> plain,
                                   const DefenseConfig& config);

/// Scrambling alone (Algorithm 5, scrambleOrder over the stream's
/// segments): returns the reordered stream.
std::vector<ChunkRecord> scrambleTrace(std::span<const ChunkRecord> records,
                                       const SegmentParams& params, Rng& rng);

}  // namespace freqdedup
