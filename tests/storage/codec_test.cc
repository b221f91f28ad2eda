// Codec unit tests: round-trips across content shapes, the not-smaller
// fallback contract, the bounded-allocation decompression contract
// (expectedRawSize is authoritative; malformed streams and wrong size
// claims throw instead of over-allocating or overrunning), and random
// stream fuzz against the built-in LZ decoder.
#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.h"
#include "storage/codec.h"

namespace freqdedup {
namespace {

ByteVec repetitive(size_t n) {
  ByteVec data(n);
  for (size_t i = 0; i < n; ++i)
    data[i] = static_cast<uint8_t>("abcabcabd"[i % 9]);
  return data;
}

ByteVec randomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  ByteVec data(n);
  for (auto& b : data) b = static_cast<uint8_t>(rng.next());
  return data;
}

TEST(Codec, NamesRoundTrip) {
  for (const ContainerCodec c :
       {ContainerCodec::kNone, ContainerCodec::kDeflate}) {
    const auto back = codecFromName(codecName(c));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, c);
  }
  EXPECT_FALSE(codecFromName("gzip").has_value());
  EXPECT_FALSE(codecFromName("").has_value());
}

TEST(Codec, ReservedZstdByteAndNameAreUnknown) {
  // Byte 1 once named an optional zstd codec; it is reserved and unknown.
  const auto reserved = static_cast<ContainerCodec>(1);
  EXPECT_FALSE(codecFromName("zstd").has_value());
  EXPECT_FALSE(compressBytes(reserved, repetitive(4096)).has_value());
  EXPECT_THROW((void)decompressBytes(reserved, repetitive(16), 64),
               std::runtime_error);
}

TEST(Codec, RoundTripsAcrossContentShapes) {
  const ContainerCodec codec = ContainerCodec::kDeflate;
  const std::vector<ByteVec> inputs = {
      repetitive(10),          repetitive(1000),
      repetitive(100 * 1024),  ByteVec(64 * 1024, 0x00),
      ByteVec(5, 0xAB),        randomBytes(333, 7),
      repetitive(65536 + 17),  // matches straddling the max offset
  };
  for (const ByteVec& raw : inputs) {
    const auto compressed = compressBytes(codec, raw);
    if (!compressed.has_value()) continue;  // incompressible: caller stores raw
    ASSERT_LT(compressed->size(), raw.size());
    EXPECT_EQ(decompressBytes(codec, *compressed, raw.size()), raw);
  }
}

TEST(Codec, HighlyRepetitiveContentCompressesWell) {
  const ByteVec raw = repetitive(256 * 1024);
  const auto compressed = compressBytes(ContainerCodec::kDeflate, raw);
  ASSERT_TRUE(compressed.has_value());
  EXPECT_LT(compressed->size(), raw.size() / 4);
}

TEST(Codec, IncompressibleAndEmptyInputsReturnNullopt) {
  // Random bytes (ciphertext-like) must not "compress" to something larger.
  EXPECT_FALSE(compressBytes(ContainerCodec::kDeflate,
                             randomBytes(64 * 1024, 3))
                   .has_value());
  EXPECT_FALSE(compressBytes(ContainerCodec::kDeflate, ByteVec{}).has_value());
  EXPECT_FALSE(compressBytes(ContainerCodec::kNone, repetitive(1024))
                   .has_value());
}

TEST(Codec, NoneDecodeDemandsExactSize) {
  const ByteVec raw = repetitive(100);
  EXPECT_EQ(decompressBytes(ContainerCodec::kNone, raw, raw.size()), raw);
  EXPECT_THROW(decompressBytes(ContainerCodec::kNone, raw, raw.size() + 1),
               std::runtime_error);
  EXPECT_THROW(decompressBytes(ContainerCodec::kNone, raw, raw.size() - 1),
               std::runtime_error);
}

TEST(Codec, WrongExpectedSizeClaimsThrowInsteadOfMisallocating) {
  const ContainerCodec codec = ContainerCodec::kDeflate;
  const ByteVec raw = repetitive(32 * 1024);
  const auto compressed = compressBytes(codec, raw);
  ASSERT_TRUE(compressed.has_value());
  // Claiming too small: the stream wants to write past the claim → throw,
  // never a buffer overrun.
  EXPECT_THROW(decompressBytes(codec, *compressed, raw.size() - 1),
               std::runtime_error);
  EXPECT_THROW(decompressBytes(codec, *compressed, 1), std::runtime_error);
  // Claiming too large: the stream ends early → size mismatch, never
  // uninitialized tail bytes.
  EXPECT_THROW(decompressBytes(codec, *compressed, raw.size() + 1),
               std::runtime_error);
  EXPECT_THROW(decompressBytes(codec, *compressed, raw.size() * 100),
               std::runtime_error);
}

TEST(Codec, TruncatedStreamsThrowOrStayExact) {
  // Truncation must never yield wrong bytes of the right size. (Dropping a
  // redundant trailing empty-literal token can leave a stream that still
  // decodes identically — the container-frame CRC rejects the physical
  // truncation — so "decodes to exactly the original" is also acceptable.)
  const ContainerCodec codec = ContainerCodec::kDeflate;
  const ByteVec raw = repetitive(32 * 1024);
  const auto compressed = compressBytes(codec, raw);
  ASSERT_TRUE(compressed.has_value());
  for (size_t keep = 0; keep < compressed->size(); ++keep) {
    const ByteVec cut(compressed->begin(),
                      compressed->begin() + static_cast<ptrdiff_t>(keep));
    try {
      const ByteVec out = decompressBytes(codec, cut, raw.size());
      ASSERT_EQ(out, raw) << "kept " << keep << " of " << compressed->size();
    } catch (const std::runtime_error&) {
      // The expected outcome for nearly every cut.
    }
  }
}

TEST(Codec, RandomStreamFuzzNeverCrashesTheDecoder) {
  // Random garbage fed to the decoder must either throw or produce exactly
  // expectedRawSize bytes — never crash, hang, or over-allocate. (ASan/UBSan
  // builds turn any overrun into a hard failure here.)
  Rng rng(2024);
  for (int i = 0; i < 500; ++i) {
    const size_t n = 1 + rng.next() % 512;
    const ByteVec garbage = randomBytes(n, rng.next());
    const uint64_t claim = rng.next() % 2048;
    try {
      const ByteVec out =
          decompressBytes(ContainerCodec::kDeflate, garbage, claim);
      EXPECT_EQ(out.size(), claim);
    } catch (const std::runtime_error&) {
      // Expected for most garbage.
    }
  }
}

TEST(Codec, BitFlippedStreamsEitherThrowOrChangeOutput) {
  // A single flipped bit anywhere in a valid stream must never be able to
  // silently produce the original bytes AND a clean size; it either throws
  // or yields different output (the container CRC then catches it).
  const ContainerCodec codec = ContainerCodec::kDeflate;
  const ByteVec raw = repetitive(4096);
  const auto compressed = compressBytes(codec, raw);
  ASSERT_TRUE(compressed.has_value());
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    ByteVec mutated = *compressed;
    mutated[rng.next() % mutated.size()] ^=
        static_cast<uint8_t>(1u << (rng.next() % 8));
    try {
      const ByteVec out = decompressBytes(codec, mutated, raw.size());
      ASSERT_EQ(out.size(), raw.size());
    } catch (const std::runtime_error&) {
    }
  }
}

}  // namespace
}  // namespace freqdedup
