#include "crypto/key_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "common/hash.h"

namespace freqdedup {
namespace {

TEST(KeyManager, DerivationIsDeterministic) {
  KeyManager km(toBytes("global-secret"));
  EXPECT_EQ(km.deriveChunkKey(42), km.deriveChunkKey(42));
  EXPECT_NE(km.deriveChunkKey(42), km.deriveChunkKey(43));
}

TEST(KeyManager, ChunkAndSegmentDomainsAreSeparated) {
  KeyManager km(toBytes("global-secret"));
  EXPECT_NE(km.deriveChunkKey(42), km.deriveSegmentKey(42));
}

TEST(KeyManager, DifferentSecretsGiveDifferentKeys) {
  KeyManager km1(toBytes("secret-one"));
  KeyManager km2(toBytes("secret-two"));
  EXPECT_NE(km1.deriveChunkKey(42), km2.deriveChunkKey(42));
}

TEST(KeyManager, EmptySecretRejected) {
  EXPECT_THROW(KeyManager(ByteVec{}), std::logic_error);
}

/// The first 32 bytes of HMAC-SHA-256(secret, domain || big-endian fp).
AesKey hmacKey(std::string_view secret, std::string_view domain, Fp fp) {
  ByteVec msg = toBytes(domain);
  putU64(msg, fp);
  const Digest d = hmacSha256(toBytes(secret), msg);
  AesKey key{};
  std::copy(d.bytes.begin(), d.bytes.begin() + kAesKeyBytes, key.begin());
  return key;
}

// Stored chunks stay decryptable only while the derivation is unchanged:
// these pin the exact HMAC input of each domain.
TEST(KeyManager, ChunkKeyIsHmacOverDomainAndFingerprint) {
  KeyManager km(toBytes("global-secret"));
  for (const Fp fp : {Fp{0}, Fp{42}, ~Fp{0}})
    EXPECT_EQ(km.deriveChunkKey(fp), hmacKey("global-secret", "chunk-key", fp));
}

TEST(KeyManager, SegmentKeyIsHmacOverDomainAndFingerprint) {
  KeyManager km(toBytes("global-secret"));
  for (const Fp fp : {Fp{0}, Fp{42}, ~Fp{0}})
    EXPECT_EQ(km.deriveSegmentKey(fp),
              hmacKey("global-secret", "segment-key", fp));
}

TEST(KeyManager, DistinctFingerprintsGiveDistinctKeys) {
  KeyManager km(toBytes("global-secret"));
  std::set<AesKey> keys;
  for (Fp fp = 0; fp < 2000; ++fp) {
    keys.insert(km.deriveChunkKey(fp));
    keys.insert(km.deriveSegmentKey(fp));
  }
  EXPECT_EQ(keys.size(), 4000u);
}

// One KeyManager serves every session of a client or daemon at once.
TEST(KeyManager, ConcurrentDerivationMatchesSerial) {
  const KeyManager km(toBytes("global-secret"));
  constexpr Fp kCount = 500;
  std::vector<AesKey> serial;
  for (Fp fp = 0; fp < kCount; ++fp) serial.push_back(km.deriveChunkKey(fp));
  std::vector<std::vector<AesKey>> perThread(4);
  std::vector<std::thread> threads;
  for (auto& out : perThread) {
    threads.emplace_back([&km, &out] {
      for (Fp fp = 0; fp < kCount; ++fp) out.push_back(km.deriveChunkKey(fp));
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& out : perThread) EXPECT_EQ(out, serial);
}

}  // namespace
}  // namespace freqdedup
