#include "common/hash.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <latch>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace freqdedup {
namespace {

// FIPS-180 test vectors.
TEST(Hash, Sha256KnownVectorEmpty) {
  EXPECT_EQ(sha256({}).hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Hash, Sha256KnownVectorAbc) {
  EXPECT_EQ(sha256(toBytes("abc")).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Hash, Sha256DigestSize) { EXPECT_EQ(sha256(toBytes("x")).size, 32); }

struct Sha256Vector {
  std::string name;
  std::string message;
  std::string digestHex;
};

// gtest appends the printed parameter to each test's listed name. Without
// these it prints the raw bytes, heap addresses included, so the names of
// the vectors below would change from run to run.
void PrintTo(const Sha256Vector& v, std::ostream* os) { *os << v.name; }

class Sha256Fips180 : public ::testing::TestWithParam<Sha256Vector> {};

// The one-shot digest and a stream fed in uneven pieces (so updates cross
// the 64-byte block boundary at varying offsets) both give the digest.
TEST_P(Sha256Fips180, MatchesPublishedDigest) {
  const Sha256Vector& v = GetParam();
  EXPECT_EQ(sha256(toBytes(v.message)).hex(), v.digestHex);
  Sha256Stream stream;
  const ByteVec message = toBytes(v.message);
  size_t at = 0;
  for (size_t piece = 1; at < message.size(); piece = piece * 3 + 1) {
    const size_t n = std::min(piece, message.size() - at);
    stream.update(ByteView(message.data() + at, n));
    at += n;
  }
  EXPECT_EQ(stream.finish().hex(), v.digestHex);
}

INSTANTIATE_TEST_SUITE_P(
    Fips180, Sha256Fips180,
    ::testing::Values(
        Sha256Vector{
            "TwoBlock448Bit",
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
        Sha256Vector{
            "TwoBlock896Bit",
            "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
            "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
        Sha256Vector{
            "MillionA", std::string(1'000'000, 'a'),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"}),
    [](const auto& info) { return info.param.name; });

// RFC 4231 test case 2.
TEST(Hash, HmacSha256KnownVector) {
  EXPECT_EQ(
      hmacSha256(toBytes("Jefe"), toBytes("what do ya want for nothing?"))
          .hex(),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

struct HmacVector {
  std::string name;
  ByteVec key;
  ByteVec data;
  std::string macHex;  // case 5 publishes only the first 16 bytes
};

void PrintTo(const HmacVector& v, std::ostream* os) { *os << v.name; }

class HmacSha256Rfc4231 : public ::testing::TestWithParam<HmacVector> {};

TEST_P(HmacSha256Rfc4231, MatchesPublishedDigest) {
  const HmacVector& v = GetParam();
  const Digest d = hmacSha256(v.key, v.data);
  EXPECT_EQ(d.size, 32);
  EXPECT_EQ(d.hex().substr(0, v.macHex.size()), v.macHex);
}

ByteVec repeated(uint8_t byte, size_t n) { return ByteVec(n, byte); }

// RFC 4231 test cases 1 and 3-7 (case 2 is HmacSha256KnownVector above).
// Cases 6 and 7 use a 131-byte key, longer than SHA-256's 64-byte block,
// which HMAC hashes first.
INSTANTIATE_TEST_SUITE_P(
    Rfc4231, HmacSha256Rfc4231,
    ::testing::Values(
        HmacVector{
            "Case1", repeated(0x0b, 20), toBytes("Hi There"),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
        HmacVector{
            "Case3", repeated(0xaa, 20), repeated(0xdd, 50),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
        HmacVector{
            "Case4", hexDecode("0102030405060708090a0b0c0d0e0f10111213141516171819"),
            repeated(0xcd, 50),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
        HmacVector{"Case5", repeated(0x0c, 20), toBytes("Test With Truncation"),
                   "a3b6167473100ee06e0c796c2955552b"},
        HmacVector{
            "Case6", repeated(0xaa, 131),
            toBytes("Test Using Larger Than Block-Size Key - Hash Key First"),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
        HmacVector{
            "Case7", repeated(0xaa, 131),
            toBytes("This is a test using a larger than block-size key and a "
                    "larger than block-size data. The key needs to be hashed "
                    "before being used by the HMAC algorithm."),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"}),
    [](const auto& info) { return info.param.name; });

// HMAC replaces a key longer than the hash block by its digest.
TEST(Hash, HmacKeyLongerThanBlockEqualsItsDigestAsKey) {
  const ByteVec longKey = toBytes(std::string(100, 'k'));
  const Digest hashedKey = sha256(longKey);
  EXPECT_EQ(hmacSha256(longKey, toBytes("msg")).hex(),
            hmacSha256(hashedKey.view(), toBytes("msg")).hex());
}

// Every call keys a copy of one shared context: a call under one key must
// leave nothing behind for the next call under another.
TEST(Hash, HmacInterleavedKeysMatchIsolatedCalls) {
  const Digest a = hmacSha256(toBytes("key-a"), toBytes("message"));
  const Digest b = hmacSha256(toBytes("key-b"), toBytes("message"));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(hmacSha256(toBytes("key-a"), toBytes("message")), a);
    EXPECT_EQ(hmacSha256(toBytes("key-b"), toBytes("message")), b);
  }
  EXPECT_FALSE(a == b);
}

// Daemon workers authenticate tenants concurrently, each call duplicating
// the one shared HMAC context: every thread must get the RFC 4231 digest.
TEST(Hash, HmacSha256ConcurrentCallsAgree) {
  const std::string expected =
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843";
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        if (hmacSha256(toBytes("Jefe"), toBytes("what do ya want for nothing?"))
                .hex() != expected)
          mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Hash, HmacDependsOnKey) {
  const auto d1 = hmacSha256(toBytes("key1"), toBytes("msg"));
  const auto d2 = hmacSha256(toBytes("key2"), toBytes("msg"));
  EXPECT_FALSE(d1 == d2);
}

TEST(Hash, StreamMatchesOneShot) {
  Sha256Stream stream;
  stream.update(toBytes("hello "));
  stream.update(toBytes("world"));
  EXPECT_EQ(stream.finish().hex(), sha256(toBytes("hello world")).hex());
}

TEST(Hash, StreamResetsAfterFinish) {
  Sha256Stream stream;
  stream.update(toBytes("first"));
  (void)stream.finish();
  stream.update(toBytes("abc"));
  EXPECT_EQ(stream.finish().hex(), sha256(toBytes("abc")).hex());
}

TEST(Hash, StreamEmptyInput) {
  Sha256Stream stream;
  EXPECT_EQ(stream.finish().hex(), sha256({}).hex());
}

// sha256() re-initialises one context per thread: eight threads hashing
// the FIPS 180 messages at once must each get every published digest.
TEST(Hash, Sha256VectorsHoldOnEightThreadsAtOnce) {
  const std::vector<std::pair<std::string, std::string>> vectors = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(1'000'000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"}};
  std::latch start(8);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      for (int i = 0; i < 20; ++i)
        for (const auto& [message, digest] : vectors)
          if (sha256(toBytes(message)).hex() != digest) mismatches.fetch_add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// A stream keeps its own context beside the thread's one-shot context:
// after each finish() resets it, it gives sha256()'s digest again, also
// with one-shot calls on the same thread in between.
TEST(Hash, StreamGivesOneShotDigestAgainAfterFinishResets) {
  const ByteVec message =
      toBytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  const Digest expected = sha256(message);
  Sha256Stream stream;
  for (int round = 0; round < 3; ++round) {
    stream.update(ByteView(message.data(), 10));
    EXPECT_EQ(sha256(toBytes("abc")).hex(),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    stream.update(ByteView(message.data() + 10, message.size() - 10));
    EXPECT_EQ(stream.finish(), expected) << "round " << round;
  }
}

TEST(Hash, DigestEquality) {
  EXPECT_TRUE(sha256(toBytes("a")) == sha256(toBytes("a")));
  EXPECT_FALSE(sha256(toBytes("a")) == sha256(toBytes("b")));
  Digest prefix = sha256(toBytes("a"));
  prefix.size = 20;
  EXPECT_FALSE(sha256(toBytes("a")) == prefix);  // size differs
}

// --- sha256Pair: the dispatched kernel (two SHA-NI lanes where the CPU has
// them) and the portable pair of sha256() calls must both give sha256() of
// each lane, whatever the two messages' lengths and alignments. ---

enum class PairLeg { kPortable, kDispatched };

std::string missingShaFeatures() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  std::string missing;
  if (!__builtin_cpu_supports("sha")) missing += " sha";
  if (!__builtin_cpu_supports("sse4.1")) missing += " sse4.1";
  if (!__builtin_cpu_supports("ssse3")) missing += " ssse3";
  return missing;
#else
  return " x86-64 (sha, sse4.1, ssse3)";
#endif
}

class Sha256PairKernel : public ::testing::TestWithParam<PairLeg> {
 protected:
  void SetUp() override {
    if (GetParam() != PairLeg::kDispatched) return;
    std::printf("sha256 pair kernel: %s\n", detail::sha256PairKernelName());
    if (std::string(detail::sha256PairKernelName()) == "portable")
      GTEST_SKIP() << "sha256 pair kernel: portable; the CPU lacks"
                   << missingShaFeatures();
  }

  [[nodiscard]] std::array<Digest, 2> pair(ByteView a, ByteView b) const {
    return GetParam() == PairLeg::kPortable ? detail::sha256PairPortable(a, b)
                                            : sha256Pair(a, b);
  }

  /// Both lanes against sha256(), in both lane orders.
  void expectPairMatches(ByteView a, ByteView b) const {
    const Digest da = sha256(a);
    const Digest db = sha256(b);
    const auto ab = pair(a, b);
    EXPECT_EQ(ab[0], da) << "lane 0 of " << a.size() << " + " << b.size();
    EXPECT_EQ(ab[1], db) << "lane 1 of " << a.size() << " + " << b.size();
    const auto ba = pair(b, a);
    EXPECT_EQ(ba[0], db) << "lane 0 of " << b.size() << " + " << a.size();
    EXPECT_EQ(ba[1], da) << "lane 1 of " << b.size() << " + " << a.size();
  }
};

ByteVec randomMessage(uint64_t seed, size_t n) {
  Rng rng(seed);
  ByteVec data(n);
  for (auto& b : data) b = static_cast<uint8_t>(rng.next());
  return data;
}

TEST_P(Sha256PairKernel, Fips180VectorsHoldInEachLane) {
  const std::vector<std::pair<std::string, std::string>> vectors = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
       "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {std::string(1'000'000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"}};
  for (const auto& [a, aHex] : vectors) {
    for (const auto& [b, bHex] : vectors) {
      const auto d = pair(toBytes(a), toBytes(b));
      EXPECT_EQ(d[0].hex(), aHex) << a.size() << " + " << b.size();
      EXPECT_EQ(d[1].hex(), bHex) << a.size() << " + " << b.size();
      EXPECT_EQ(d[0].size, 32);
      EXPECT_EQ(d[1].size, 32);
    }
  }
}

// Every length across the padding cases (the tail fits the length field at
// 0-55 bytes past a block boundary and spills into a second block at
// 56-63), against partners of every length too.
TEST_P(Sha256PairKernel, MatchesSha256AtLengths0To256) {
  const ByteVec data = randomMessage(11, 600);
  for (size_t n = 0; n <= 256; ++n) {
    expectPairMatches(ByteView(data.data(), n),
                      ByteView(data.data() + 300, n));
    expectPairMatches(ByteView(data.data(), n),
                      ByteView(data.data() + 300, 256 - n));
  }
}

TEST_P(Sha256PairKernel, MatchesSha256AtRandomLengthsTo70000) {
  Rng rng(GetParam() == PairLeg::kPortable ? 21 : 22);
  const ByteVec data = randomMessage(12, 140'002);
  for (int i = 0; i < 40; ++i) {
    const size_t na = rng.uniformInt(0, 70'000);
    const size_t nb = rng.uniformInt(0, 70'000);
    expectPairMatches(ByteView(data.data(), na),
                      ByteView(data.data() + 70'001, nb));
  }
}

TEST_P(Sha256PairKernel, MatchesSha256AtEveryBufferOffsetOfEachLane) {
  const ByteVec data = randomMessage(13, 4096);
  for (size_t offA = 0; offA < 8; ++offA)
    for (size_t offB = 0; offB < 8; ++offB)
      for (const size_t n : {1, 63, 64, 119, 1000}) {
        expectPairMatches(ByteView(data.data() + offA, n),
                          ByteView(data.data() + 2048 + offB, n));
        expectPairMatches(ByteView(data.data() + offA, n),
                          ByteView(data.data() + 2048 + offB, n + 70));
      }
}

TEST_P(Sha256PairKernel, EqualAndUnequalPartnersOneEmpty) {
  const ByteVec data = randomMessage(14, 20'000);
  const ByteView whole(data.data(), data.size());
  // The same message in both lanes, and equal lengths with other bytes.
  expectPairMatches(whole, whole);
  expectPairMatches(ByteView(data.data(), 8192),
                    ByteView(data.data() + 8192, 8192));
  // One lane empty: the other runs alone from the first block on.
  for (const size_t n : {0, 1, 55, 56, 64, 8192, 20'000})
    expectPairMatches(ByteView{}, ByteView(data.data(), n));
  // Lengths one block apart and many blocks apart.
  expectPairMatches(ByteView(data.data(), 100), ByteView(data.data(), 164));
  expectPairMatches(ByteView(data.data(), 10), ByteView(data.data(), 19'999));
}

TEST_P(Sha256PairKernel, EightThreadsAtOnceAgree) {
  const ByteVec data = randomMessage(15, 16'384);
  std::vector<std::pair<ByteView, ByteView>> pairs;
  for (const size_t n : {0, 3, 64, 200, 4096, 8192, 16'384})
    pairs.emplace_back(ByteView(data.data(), n),
                       ByteView(data.data() + 1, 8192 - n / 2));
  std::vector<std::array<Digest, 2>> expected;
  for (const auto& [a, b] : pairs) expected.push_back({sha256(a), sha256(b)});
  std::latch start(8);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      for (int round = 0; round < 20; ++round)
        for (size_t i = 0; i < pairs.size(); ++i)
          if (pair(pairs[i].first, pairs[i].second) != expected[i])
            mismatches.fetch_add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(Legs, Sha256PairKernel,
                         ::testing::Values(PairLeg::kPortable,
                                           PairLeg::kDispatched),
                         [](const ::testing::TestParamInfo<PairLeg>& info) {
                           return info.param == PairLeg::kPortable
                                      ? "Portable"
                                      : "Dispatched";
                         });

}  // namespace
}  // namespace freqdedup
