#include "crypto/aes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"

namespace freqdedup {
namespace {

AesKey testKey(uint8_t fill = 0x11) {
  AesKey key{};
  key.fill(fill);
  return key;
}

AesIv testIv(uint8_t fill = 0x22) {
  AesIv iv{};
  iv.fill(fill);
  return iv;
}

TEST(Aes, RoundtripRestoresPlaintext) {
  const ByteVec plain = toBytes("the quick brown fox jumps over the lazy dog");
  const ByteVec cipher = aesCtrEncrypt(testKey(), testIv(), plain);
  EXPECT_EQ(aesCtrDecrypt(testKey(), testIv(), cipher), plain);
}

TEST(Aes, CiphertextDiffersFromPlaintext) {
  const ByteVec plain = toBytes("some secret content here");
  EXPECT_NE(aesCtrEncrypt(testKey(), testIv(), plain), plain);
}

TEST(Aes, DeterministicForSameKeyAndIv) {
  const ByteVec plain = toBytes("deduplication needs determinism");
  EXPECT_EQ(aesCtrEncrypt(testKey(), testIv(), plain),
            aesCtrEncrypt(testKey(), testIv(), plain));
}

TEST(Aes, DifferentKeysGiveDifferentCiphertexts) {
  const ByteVec plain = toBytes("same plaintext");
  EXPECT_NE(aesCtrEncrypt(testKey(0x11), testIv(), plain),
            aesCtrEncrypt(testKey(0x12), testIv(), plain));
}

TEST(Aes, DifferentIvsGiveDifferentCiphertexts) {
  const ByteVec plain = toBytes("same plaintext");
  EXPECT_NE(aesCtrEncrypt(testKey(), testIv(0x01), plain),
            aesCtrEncrypt(testKey(), testIv(0x02), plain));
}

TEST(Aes, CtrPreservesLength) {
  Rng rng(1);
  for (const size_t n : {0u, 1u, 15u, 16u, 17u, 1000u, 4096u, 10'000u}) {
    ByteVec plain(n);
    for (auto& b : plain) b = static_cast<uint8_t>(rng.next());
    EXPECT_EQ(aesCtrEncrypt(testKey(), testIv(), plain).size(), n);
  }
}

TEST(Aes, EmptyPlaintext) {
  EXPECT_TRUE(aesCtrEncrypt(testKey(), testIv(), {}).empty());
}

TEST(Aes, WrongKeyDoesNotDecrypt) {
  const ByteVec plain = toBytes("confidential");
  const ByteVec cipher = aesCtrEncrypt(testKey(0x11), testIv(), plain);
  EXPECT_NE(aesCtrDecrypt(testKey(0x12), testIv(), cipher), plain);
}

TEST(Aes, DeterministicIvDerivedFromKey) {
  EXPECT_EQ(deterministicIv(testKey(0x33)), deterministicIv(testKey(0x33)));
  EXPECT_NE(deterministicIv(testKey(0x33)), deterministicIv(testKey(0x34)));
}

// NIST SP 800-38A, F.5.5 (CTR-AES256.Encrypt): four blocks from the
// initial counter block f0f1...feff.
struct NistCtrVector {
  AesKey key{};
  AesIv iv{};
  ByteVec plain = hexDecode(
      "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710");
  std::string cipherHex =
      "601ec313775789a5b7a7f504bbf3d228f443e3ca4d62b59aca84e990cacaf5c5"
      "2b0930daa23de94ce87017ba2d84988ddfc9c58db67aada613c2dd08457941a6";

  NistCtrVector() {
    const ByteVec keyBytes = hexDecode(
        "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
    std::copy(keyBytes.begin(), keyBytes.end(), key.begin());
    const ByteVec ivBytes = hexDecode("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
    std::copy(ivBytes.begin(), ivBytes.end(), iv.begin());
  }
  [[nodiscard]] bool holds() const {
    return hexEncode(aesCtrEncrypt(key, iv, plain)) == cipherHex;
  }
};

TEST(Aes, NistSp80038aCtrAes256Vector) {
  const NistCtrVector v;
  EXPECT_EQ(hexEncode(aesCtrEncrypt(v.key, v.iv, v.plain)), v.cipherHex);
}

// Every call re-keys this thread's one cipher context: eight threads
// encrypting at once must each get the published ciphertext.
TEST(Aes, NistCtrVectorHoldsOnEightThreadsAtOnce) {
  const NistCtrVector v;
  std::latch start(8);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      for (int i = 0; i < 200; ++i)
        if (!v.holds()) mismatches.fetch_add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// A call under one key and IV, or on an empty input, leaves nothing in the
// thread's context for the next call under another.
TEST(Aes, NistCtrVectorHoldsInterleavedWithOtherKeysAndEmptyInput) {
  const NistCtrVector v;
  Rng rng(3);
  ByteVec other(1000);
  for (auto& x : other) x = static_cast<uint8_t>(rng.next());
  const ByteVec otherCipher = aesCtrEncrypt(testKey(0x33), testIv(0x44), other);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(v.holds());
    EXPECT_EQ(aesCtrEncrypt(testKey(0x33), testIv(0x44), other), otherCipher);
    EXPECT_TRUE(aesCtrEncrypt(testKey(0x55), testIv(0x66), {}).empty());
    EXPECT_TRUE(v.holds());
    EXPECT_EQ(aesCtrDecrypt(testKey(0x33), testIv(0x44), otherCipher), other);
  }
}

TEST(Aes, DeterministicIvIsSha256PrefixOfKey) {
  const AesKey key = testKey(0x33);
  const Digest d = sha256(ByteView(key.data(), key.size()));
  const AesIv iv = deterministicIv(key);
  EXPECT_TRUE(std::equal(iv.begin(), iv.end(), d.bytes.begin()));
}

// The counter is the whole 128-bit block: from all-ones it wraps to zero.
TEST(Aes, CounterWrapsAcrossAllOnesIv) {
  const ByteVec zeros(2 * kAesBlockBytes, 0);
  const ByteVec fromAllOnes = aesCtrEncrypt(testKey(), testIv(0xff), zeros);
  const ByteVec fromZero =
      aesCtrEncrypt(testKey(), testIv(0x00), ByteView(zeros.data(), 16));
  EXPECT_TRUE(std::equal(fromZero.begin(), fromZero.end(),
                         fromAllOnes.begin() + kAesBlockBytes));
}

// CTR XORs one keystream per (key, IV): two plaintexts under the same pair
// leak their XOR. The security note in aes.h relies on MLE never pairing a
// key with two different plaintexts.
TEST(Aes, SameKeyAndIvShareOneKeystream) {
  Rng rng(2);
  ByteVec a(100), b(100);
  for (auto& x : a) x = static_cast<uint8_t>(rng.next());
  for (auto& x : b) x = static_cast<uint8_t>(rng.next());
  const ByteVec ca = aesCtrEncrypt(testKey(), testIv(), a);
  const ByteVec cb = aesCtrEncrypt(testKey(), testIv(), b);
  for (size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(ca[i] ^ cb[i], a[i] ^ b[i]) << "byte " << i;
}

}  // namespace
}  // namespace freqdedup
