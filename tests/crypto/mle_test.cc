#include "crypto/mle.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/key_manager.h"

namespace freqdedup {
namespace {

AesKey chunkKey(ByteView plain) {
  return KeyManager(toBytes("secret")).deriveChunkKey(fpOfContent(plain));
}

// Server-aided MLE as the clients run it: the KeyManager derives a key
// from the chunk fingerprint, and encryption under that key is
// deterministic, so identical chunks stay deduplicable.
TEST(Mle, IdenticalPlaintextsYieldIdenticalCiphertexts) {
  const ByteVec plain = toBytes("duplicate chunk content");
  EXPECT_EQ(MleScheme::encryptWithKey(chunkKey(plain), plain),
            MleScheme::encryptWithKey(chunkKey(plain), plain));
}

TEST(Mle, DifferentPlaintextsDiffer) {
  const ByteVec a = toBytes("chunk A");
  const ByteVec b = toBytes("chunk B");
  EXPECT_NE(MleScheme::encryptWithKey(chunkKey(a), a),
            MleScheme::encryptWithKey(chunkKey(b), b));
}

TEST(Mle, DecryptRoundtripUnderChunkKey) {
  const ByteVec plain = toBytes("some chunk to protect");
  const AesKey key = chunkKey(plain);
  EXPECT_EQ(MleScheme::decryptWithKey(key, MleScheme::encryptWithKey(key, plain)),
            plain);
}

// Without the key manager's secret the key is not a public function of the
// content, so an adversary cannot brute-force predictable chunks offline.
TEST(Mle, CiphertextDependsOnGlobalSecret) {
  const ByteVec plain = toBytes("predictable chunk");
  const Fp fp = fpOfContent(plain);
  const AesKey key1 = KeyManager(toBytes("secret-1")).deriveChunkKey(fp);
  const AesKey key2 = KeyManager(toBytes("secret-2")).deriveChunkKey(fp);
  EXPECT_NE(MleScheme::encryptWithKey(key1, plain),
            MleScheme::encryptWithKey(key2, plain));
}

// MinHash encryption keys a chunk by its segment's minimum fingerprint; even
// when that minimum is the chunk's own, the ciphertext differs from MLE's.
TEST(Mle, SegmentAndChunkKeysEncryptDifferently) {
  const KeyManager km(toBytes("secret"));
  const ByteVec plain = toBytes("segment minimum chunk");
  const Fp fp = fpOfContent(plain);
  EXPECT_NE(MleScheme::encryptWithKey(km.deriveChunkKey(fp), plain),
            MleScheme::encryptWithKey(km.deriveSegmentKey(fp), plain));
}

// The stored format: AES-256-CTR under the key's deterministic IV.
TEST(Mle, IsAesCtrUnderTheKeysDeterministicIv) {
  const ByteVec plain = toBytes("on-disk ciphertext format");
  const AesKey key = chunkKey(plain);
  EXPECT_EQ(MleScheme::encryptWithKey(key, plain),
            aesCtrEncrypt(key, deterministicIv(key), plain));
}

TEST(Mle, EmptyPlaintext) {
  const AesKey key = chunkKey({});
  EXPECT_TRUE(MleScheme::encryptWithKey(key, {}).empty());
  EXPECT_TRUE(MleScheme::decryptWithKey(key, {}).empty());
}

TEST(Mle, CiphertextHidesPlaintext) {
  const ByteVec plain(1000, 0x41);
  const ByteVec cipher = MleScheme::encryptWithKey(chunkKey(plain), plain);
  // No long run of the plaintext byte should survive.
  int run = 0, maxRun = 0;
  for (const uint8_t b : cipher) {
    run = (b == 0x41) ? run + 1 : 0;
    maxRun = std::max(maxRun, run);
  }
  EXPECT_LT(maxRun, 8);
}

TEST(Mle, LengthPreserved) {
  // The advanced locality-based attack relies on ciphertext sizes matching
  // plaintext sizes (Section 4.3).
  for (const size_t n : {1u, 100u, 4096u, 8191u}) {
    const ByteVec plain(n, 0x5A);
    EXPECT_EQ(MleScheme::encryptWithKey(chunkKey(plain), plain).size(), n);
  }
}

TEST(Mle, EncryptWithExternalKey) {
  AesKey key{};
  key.fill(0x77);
  const ByteVec plain = toBytes("segment-keyed chunk");
  const ByteVec cipher = MleScheme::encryptWithKey(key, plain);
  EXPECT_EQ(MleScheme::decryptWithKey(key, cipher), plain);
}

}  // namespace
}  // namespace freqdedup
