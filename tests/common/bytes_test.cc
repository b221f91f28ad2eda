#include "common/bytes.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

namespace freqdedup {
namespace {

TEST(Bytes, HexEncodeBasic) {
  EXPECT_EQ(hexEncode(toBytes("")), "");
  EXPECT_EQ(hexEncode(ByteVec{0x00}), "00");
  EXPECT_EQ(hexEncode(ByteVec{0xde, 0xad, 0xbe, 0xef}), "deadbeef");
}

TEST(Bytes, HexDecodeBasic) {
  EXPECT_EQ(hexDecode(""), ByteVec{});
  EXPECT_EQ(hexDecode("deadbeef"), (ByteVec{0xde, 0xad, 0xbe, 0xef}));
  EXPECT_EQ(hexDecode("DEADBEEF"), (ByteVec{0xde, 0xad, 0xbe, 0xef}));
}

TEST(Bytes, HexDecodeRejectsOddLength) {
  EXPECT_THROW(hexDecode("abc"), std::invalid_argument);
}

TEST(Bytes, HexDecodeRejectsNonHex) {
  EXPECT_THROW(hexDecode("zz"), std::invalid_argument);
  EXPECT_THROW(hexDecode("0g"), std::invalid_argument);
}

TEST(Bytes, HexRoundtripAllByteValues) {
  ByteVec all(256);
  for (int i = 0; i < 256; ++i) all[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(hexDecode(hexEncode(all)), all);
}

TEST(Bytes, StringConversionRoundtrip) {
  const std::string s = "hello \x01\x02 world";
  EXPECT_EQ(toString(toBytes(s)), s);
}

TEST(Bytes, PutGetU32) {
  ByteVec buf;
  putU32(buf, 0x12345678u);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(getU32(buf, 0), 0x12345678u);
}

TEST(Bytes, PutGetU64) {
  ByteVec buf;
  putU64(buf, 0x123456789abcdef0ULL);
  ASSERT_EQ(buf.size(), 8u);
  EXPECT_EQ(getU64(buf, 0), 0x123456789abcdef0ULL);
}

TEST(Bytes, GetU32OutOfRangeThrows) {
  ByteVec buf(3);
  EXPECT_THROW(getU32(buf, 0), std::logic_error);
}

TEST(Bytes, GetU64AtOffset) {
  ByteVec buf;
  putU32(buf, 7);
  putU64(buf, 42);
  EXPECT_EQ(getU64(buf, 4), 42u);
}

TEST(Bytes, AppendBytes) {
  ByteVec a = toBytes("ab");
  appendBytes(a, toBytes("cd"));
  EXPECT_EQ(toString(a), "abcd");
}

TEST(Bytes, FileRoundtrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "fdd_bytes_test.bin").string();
  const ByteVec data = toBytes("file content \x00\x01\xff test");
  writeFile(path, data);
  EXPECT_EQ(readFile(path), data);
  std::filesystem::remove(path);
}

TEST(Bytes, ReadMissingFileThrows) {
  EXPECT_THROW(readFile("/nonexistent/definitely/missing"),
               std::runtime_error);
}

TEST(Bytes, WriteEmptyFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "fdd_bytes_empty.bin")
          .string();
  writeFile(path, {});
  EXPECT_TRUE(readFile(path).empty());
  std::filesystem::remove(path);
}

// A write that fits in the stdio buffer fails only at the final flush;
// writeFile must report it rather than leave a truncated file behind.
TEST(Bytes, WriteFileReportsFailedFlush) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_THROW(writeFile("/dev/full", ByteVec(100, 0x5a)), std::runtime_error);
}

}  // namespace
}  // namespace freqdedup
