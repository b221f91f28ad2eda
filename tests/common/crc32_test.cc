#include "common/crc32.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace freqdedup {
namespace {

TEST(Crc32, KnownVector) {
  // CRC-32C("123456789") = 0xE3069283 (iSCSI test vector).
  EXPECT_EQ(crc32c(toBytes("123456789")), 0xE3069283u);
}

// RFC 3720 (iSCSI) appendix B.4 test vectors.
TEST(Crc32, Rfc3720Vectors) {
  ByteVec zeros(32, 0x00), ones(32, 0xFF), up(32), down(32);
  for (int i = 0; i < 32; ++i) {
    up[i] = static_cast<uint8_t>(i);
    down[i] = static_cast<uint8_t>(31 - i);
  }
  for (const auto& [data, want] :
       std::vector<std::pair<ByteVec, uint32_t>>{{zeros, 0x8A9136AAu},
                                                 {ones, 0x62A8AB43u},
                                                 {up, 0x46DD794Eu},
                                                 {down, 0x113FDB5Cu}}) {
    EXPECT_EQ(crc32c(data), want);
    EXPECT_EQ(detail::crc32cExtendTable(0, data), want);
  }
}

// The dispatched kernel (three SSE4.2 streams where the CPU has them)
// against the table loop: every length 0..256 and random lengths up to
// 70,000, each at buffer offsets 0..7 so word loads start on every
// alignment, from running CRCs other than 0.
TEST(Crc32, DispatchedKernelMatchesTableReference) {
  std::printf("crc32c kernel: %s\n", detail::crc32cKernelName());
  Rng rng(15);
  ByteVec buf(70'000 + 8);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.next());
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 256; ++n) lengths.push_back(n);
  for (int i = 0; i < 40; ++i) lengths.push_back(rng.uniformInt(257, 70'000));
  lengths.push_back(70'000);
  for (const size_t n : lengths) {
    for (size_t offset = 0; offset < 8; ++offset) {
      const ByteView data(buf.data() + offset, n);
      const auto seed = static_cast<uint32_t>(rng.next());
      ASSERT_EQ(crc32cExtend(seed, data),
                detail::crc32cExtendTable(seed, data))
          << "length " << n << " offset " << offset;
      ASSERT_EQ(crc32c(data), detail::crc32cExtendTable(0, data))
          << "length " << n << " offset " << offset;
    }
  }
}

TEST(Crc32, ExtendAtRandomCutMatchesWhole) {
  Rng rng(3720);
  for (int round = 0; round < 200; ++round) {
    ByteVec data(rng.uniformInt(0, 20'000));
    for (auto& b : data) b = static_cast<uint8_t>(rng.next());
    const size_t cut = rng.uniformInt(0, data.size());
    const ByteView view(data);
    const uint32_t split =
        crc32cExtend(crc32c(view.first(cut)), view.subspan(cut));
    ASSERT_EQ(split, detail::crc32cExtendTable(0, view))
        << "size " << data.size() << " cut " << cut;
  }
}

// The three-stream kernel switches from long steps to short steps to one
// stream at 3 * kCrc32cLongBlock and 3 * kCrc32cShortBlock bytes left: each
// threshold +-1 (alone, and after whole long or short steps), plus a 4 MiB
// container-sized buffer, at offsets 0..7 from non-zero running CRCs.
TEST(Crc32, KernelStreamThresholdsMatchTableReference) {
  constexpr size_t kLong = 3 * detail::kCrc32cLongBlock;
  constexpr size_t kShort = 3 * detail::kCrc32cShortBlock;
  std::vector<size_t> lengths;
  for (const size_t base : {kShort, kLong, kLong + kShort, 2 * kLong,
                            2 * kLong + 2 * kShort})
    for (const size_t n : {base - 1, base, base + 1}) lengths.push_back(n);
  lengths.push_back(size_t{4} << 20);
  Rng rng(3 * 8192);
  ByteVec buf(lengths.back() + 8);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.next());
  for (const size_t n : lengths) {
    for (size_t offset = 0; offset < 8; ++offset) {
      const ByteView data(buf.data() + offset, n);
      const auto seed = static_cast<uint32_t>(rng.next()) | 1u;
      ASSERT_EQ(crc32cExtend(seed, data),
                detail::crc32cExtendTable(seed, data))
          << "length " << n << " offset " << offset;
    }
  }
}

// Cuts inside an interleaved block: the part before the cut ends mid-stream
// and the part after it starts there, yet extending across the cut must give
// the whole buffer's CRC.
TEST(Crc32, ExtendAtRandomCutMatchesWholeAcrossStreamBlocks) {
  Rng rng(9);
  constexpr size_t kLong = 3 * detail::kCrc32cLongBlock;
  for (int round = 0; round < 60; ++round) {
    ByteVec data(rng.uniformInt(kLong + 1, 4 * kLong));
    for (auto& b : data) b = static_cast<uint8_t>(rng.next());
    const size_t cut = rng.uniformInt(0, data.size());
    const ByteView view(data);
    const uint32_t split =
        crc32cExtend(crc32c(view.first(cut)), view.subspan(cut));
    ASSERT_EQ(split, detail::crc32cExtendTable(0, view))
        << "size " << data.size() << " cut " << cut;
  }
}

TEST(Crc32, EmptyInputIsZero) { EXPECT_EQ(crc32c({}), 0u); }

TEST(Crc32, ExtendMatchesWhole) {
  const ByteVec whole = toBytes("hello world, this is a checksum test");
  uint32_t crc = 0;
  crc = crc32cExtend(crc, ByteView(whole.data(), 10));
  crc = crc32cExtend(crc, ByteView(whole.data() + 10, whole.size() - 10));
  EXPECT_EQ(crc, crc32c(whole));
}

TEST(Crc32, SensitiveToSingleBitFlip) {
  ByteVec data = toBytes("payload");
  const uint32_t before = crc32c(data);
  data[3] ^= 0x01;
  EXPECT_NE(crc32c(data), before);
}

TEST(Crc32, SensitiveToReordering) {
  EXPECT_NE(crc32c(toBytes("ab")), crc32c(toBytes("ba")));
}

TEST(Crc32, DifferentLengthsDiffer) {
  const ByteVec withNul{'a', 0x00};
  EXPECT_NE(crc32c(toBytes("a")), crc32c(withNul));
}

}  // namespace
}  // namespace freqdedup
