// Attack scoring and leakage simulation.
//
// The severity metric is the paper's inference rate (Section 4): the number
// of unique ciphertext chunks of the target backup whose original plaintext
// chunk is inferred correctly, over the total number of unique ciphertext
// chunks in the target backup.
#pragma once

#include <span>
#include <vector>

#include "analysis/attack_engine.h"
#include "core/defense.h"

namespace freqdedup {

/// Unique ciphertext fingerprints of a stream, in first-appearance order.
std::vector<Fp> uniqueFingerprints(std::span<const ChunkRecord> records);

/// Inference rate of an attack result against the encrypted target backup.
/// Returns a fraction in [0, 1].
double inferenceRate(const AttackResult& result, const EncryptedTrace& target);

/// Number of correctly inferred unique ciphertext chunks.
uint64_t correctInferences(const AttackResult& result,
                           const EncryptedTrace& target);

/// Samples leaked ciphertext-plaintext pairs for known-plaintext mode: a
/// uniform sample of unique ciphertext chunks of the target, paired with
/// their true plaintext chunks. `leakageRate` is the ratio of leaked pairs to
/// unique ciphertext chunks in the target (Section 5.3.3).
std::vector<InferredPair> sampleLeakedPairs(const EncryptedTrace& target,
                                            double leakageRate, Rng& rng);

}  // namespace freqdedup
