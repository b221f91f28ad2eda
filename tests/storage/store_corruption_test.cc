// Corruption/fuzz-style suites for the on-disk deserializers: containers and
// recipes must reject every malformed input with std::runtime_error — never
// crash, over-allocate, or read out of bounds (run under ASan/UBSan in CI).
#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/varint.h"
#include "storage/container.h"
#include "storage/recipe.h"

namespace freqdedup {
namespace {

/// Appends a fresh CRC so crafted corruption reaches the structural checks
/// behind the checksum.
ByteVec withCrc(ByteVec body) {
  putU32(body, crc32c(body));
  return body;
}

/// Strips the trailing CRC, returning the mutable body.
ByteVec bodyOf(const ByteVec& framed) {
  return ByteVec(framed.begin(), framed.end() - 4);
}

ByteVec sampleContainerBytes() {
  ContainerBuilder builder(1024);
  builder.add(0xAAAA, 5, toBytes("hello"));
  builder.add(0xBBBB, 7, toBytes("world!!"));
  return serializeContainer(builder.seal(3));
}

ByteVec sampleFileRecipeBytes() {
  FileRecipe recipe;
  recipe.fileName = "docs/report.pdf";
  recipe.fileSize = 1234;
  recipe.entries = {{0xAAAA, 512, 0x1111}, {0xBBBB, 722, 0x2222}};
  return serializeFileRecipe(recipe);
}

ByteVec sampleKeyRecipeBytes() {
  KeyRecipe recipe;
  for (uint8_t i = 1; i <= 3; ++i) {
    AesKey key{};
    key.fill(i);
    recipe.keys.push_back(key);
  }
  return serializeKeyRecipe(recipe);
}

template <typename Parse>
void expectEveryTruncationRejected(const ByteVec& bytes, Parse parse) {
  for (size_t len = 0; len < bytes.size(); ++len) {
    const ByteVec cut(bytes.begin(), bytes.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_THROW(parse(cut), std::runtime_error) << "length " << len;
  }
}

template <typename Parse>
void expectEveryBitFlipRejected(const ByteVec& bytes, Parse parse) {
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (const uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}}) {
      ByteVec flipped = bytes;
      flipped[i] ^= mask;
      EXPECT_THROW(parse(flipped), std::runtime_error)
          << "byte " << i << " mask " << int(mask);
    }
  }
}

TEST(ContainerCorruption, EveryTruncationRejected) {
  expectEveryTruncationRejected(sampleContainerBytes(),
                                [](ByteView b) { return parseContainer(b); });
}

TEST(ContainerCorruption, EveryBitFlipRejected) {
  expectEveryBitFlipRejected(sampleContainerBytes(),
                             [](ByteView b) { return parseContainer(b); });
}

TEST(ContainerCorruption, BadMagicRejected) {
  ByteVec body = bodyOf(sampleContainerBytes());
  body[0] ^= 0xFF;
  EXPECT_THROW(parseContainer(withCrc(body)), std::runtime_error);
}

TEST(ContainerCorruption, HugeEntryCountRejectedWithoutAllocating) {
  // magic, id, then a pathological entry count with a valid CRC: the parser
  // must validate the count against the remaining input before reserving.
  ByteVec body;
  putU32(body, 0x46444354);  // "FDCT"
  putU32(body, 1);
  putVarint(body, uint64_t{0xFFFFFFFFFFFFFF});
  EXPECT_THROW(parseContainer(withCrc(body)), std::runtime_error);
}

TEST(ContainerCorruption, EntryPayloadOutOfRangeRejected) {
  // One entry claiming 100 bytes at offset 0 while the data section only
  // holds 3: structurally valid framing, inconsistent payload bounds.
  ByteVec body;
  putU32(body, 0x46444354);
  putU32(body, 1);
  putVarint(body, 1);       // one entry
  putU64(body, 0xABCD);     // fp
  putU32(body, 100);        // size
  putVarint(body, 0);       // dataOffset
  putVarint(body, 3);       // data length
  appendBytes(body, toBytes("abc"));
  EXPECT_THROW(parseContainer(withCrc(body)), std::runtime_error);
}

TEST(ContainerCorruption, TrailingGarbageRejected) {
  ByteVec body = bodyOf(sampleContainerBytes());
  body.push_back(0x00);
  EXPECT_THROW(parseContainer(withCrc(body)), std::runtime_error);
}

// --- Codec (V2) frame coverage: the compressed path must uphold the same
// reject-everything-malformed contract, plus validate the codec byte and
// bound decompression against the declared sizes before allocating. ---

ByteVec sampleCompressedContainerBytes() {
  ContainerBuilder builder(1 << 20);
  ByteVec chunk(4096);
  for (size_t i = 0; i < chunk.size(); ++i)
    chunk[i] = static_cast<uint8_t>("abcabcabd"[i % 9]);
  builder.add(0xAAAA, static_cast<uint32_t>(chunk.size()), chunk);
  builder.add(0xBBBB, static_cast<uint32_t>(chunk.size()), chunk);
  const ByteVec frame = serializeContainer(
      builder.seal(9), ContainerCodec::kDeflate);
  // Repetitive payload must have taken the codec frame, or the sweeps below
  // would silently exercise the legacy path instead.
  EXPECT_EQ(getU32(frame, 0), kContainerMagicV2);
  return frame;
}

/// A structurally valid codec-frame body up to (but excluding) the stored
/// data section — the crafted-size-claim tests append their own claims.
ByteVec codecFrameHeader(uint8_t codecByte, uint32_t chunkSize) {
  ByteVec body;
  putU32(body, kContainerMagicV2);
  putU32(body, 9);
  body.push_back(codecByte);
  putVarint(body, 1);          // one entry
  putU64(body, 0xABCD);        // fp
  putU32(body, chunkSize);     // size
  putVarint(body, 0);          // dataOffset
  return body;
}

TEST(CompressedContainerCorruption, RoundTripsAndRecordsCodec) {
  const Container parsed = parseContainer(sampleCompressedContainerBytes());
  EXPECT_EQ(parsed.id, 9u);
  ASSERT_EQ(parsed.entries.size(), 2u);
  EXPECT_EQ(parsed.data.size(), 2u * 4096u);
  EXPECT_NE(parsed.storageCodec, ContainerCodec::kNone);
}

TEST(CompressedContainerCorruption, EveryTruncationRejected) {
  expectEveryTruncationRejected(sampleCompressedContainerBytes(),
                                [](ByteView b) { return parseContainer(b); });
}

TEST(CompressedContainerCorruption, EveryBitFlipRejected) {
  expectEveryBitFlipRejected(sampleCompressedContainerBytes(),
                             [](ByteView b) { return parseContainer(b); });
}

TEST(CompressedContainerCorruption, CraftedCodecByteRejected) {
  // Flip the codec byte to kNone (the serializer never writes it), to the
  // reserved byte 1 and to values no build understands — each with a
  // freshly valid CRC, so the rejection comes from codec validation, not
  // the checksum.
  const ByteVec frame = sampleCompressedContainerBytes();
  constexpr size_t kCodecByteOffset = 8;  // after magic + id
  for (const uint8_t crafted : {uint8_t{0}, uint8_t{1}, uint8_t{3},
                                uint8_t{0x7F}, uint8_t{0xFF}}) {
    ByteVec body = bodyOf(frame);
    body[kCodecByteOffset] = crafted;
    EXPECT_THROW(parseContainer(withCrc(body)), std::runtime_error)
        << "codec byte " << int(crafted);
  }
}

TEST(CompressedContainerCorruption, HugeRawSizeClaimRejectedBeforeAllocating) {
  // rawLen beyond kMaxContainerRawBytes must be rejected up front; were the
  // parser to trust it, this tiny frame would trigger a multi-exabyte
  // allocation.
  ByteVec body = codecFrameHeader(
      static_cast<uint8_t>(ContainerCodec::kDeflate), /*chunkSize=*/16);
  putVarint(body, uint64_t{1} << 60);  // raw length claim
  putVarint(body, 4);                  // stored length
  appendBytes(body, toBytes("abcd"));
  EXPECT_THROW(parseContainer(withCrc(body)), std::runtime_error);
}

TEST(CompressedContainerCorruption, ZeroRawSizeClaimRejected) {
  ByteVec body = codecFrameHeader(
      static_cast<uint8_t>(ContainerCodec::kDeflate), /*chunkSize=*/16);
  putVarint(body, 0);  // raw length claim
  putVarint(body, 4);
  appendBytes(body, toBytes("abcd"));
  EXPECT_THROW(parseContainer(withCrc(body)), std::runtime_error);
}

TEST(CompressedContainerCorruption, EntryBeyondRawSizeClaimRejected) {
  // The entry declares a 100-byte chunk while rawLen claims only 10 bytes of
  // decompressed data: extent validation runs against the claim *before*
  // decompression, so no output is ever produced for this frame.
  ByteVec body = codecFrameHeader(
      static_cast<uint8_t>(ContainerCodec::kDeflate), /*chunkSize=*/100);
  putVarint(body, 10);  // raw length claim smaller than the entry extent
  putVarint(body, 4);
  appendBytes(body, toBytes("abcd"));
  EXPECT_THROW(parseContainer(withCrc(body)), std::runtime_error);
}

TEST(CompressedContainerCorruption, StoredNotSmallerThanRawRejected) {
  // storedLen >= rawLen is impossible output from the serializer (it falls
  // back to the legacy frame instead), so the parser treats it as corruption.
  ByteVec body = codecFrameHeader(
      static_cast<uint8_t>(ContainerCodec::kDeflate), /*chunkSize=*/4);
  putVarint(body, 4);  // raw length claim
  putVarint(body, 4);  // stored == raw
  appendBytes(body, toBytes("abcd"));
  EXPECT_THROW(parseContainer(withCrc(body)), std::runtime_error);
}

TEST(CompressedContainerCorruption, StoredLengthSpillingPastBodyRejected) {
  ByteVec body = codecFrameHeader(
      static_cast<uint8_t>(ContainerCodec::kDeflate), /*chunkSize=*/16);
  putVarint(body, 64);    // raw length claim
  putVarint(body, 1000);  // stored length far beyond the input
  appendBytes(body, toBytes("abcd"));
  EXPECT_THROW(parseContainer(withCrc(body)), std::runtime_error);
}

TEST(CompressedContainerCorruption, IncompressiblePayloadFallsBackToLegacy) {
  // Serializing with a codec must never grow the frame: high-entropy
  // (ciphertext-like) payloads take the bit-identical legacy frame.
  ContainerBuilder builder(1 << 20);
  ByteVec noise(1024);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto& b : noise) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<uint8_t>(x);
  }
  builder.add(0xCCCC, static_cast<uint32_t>(noise.size()), noise);
  const Container container = builder.seal(4);
  const ByteVec plain = serializeContainer(container);
  const ByteVec viaCodec =
      serializeContainer(container, ContainerCodec::kDeflate);
  EXPECT_EQ(viaCodec, plain) << "fallback frame must be bit-identical";
}

TEST(FileRecipeCorruption, EveryTruncationRejected) {
  expectEveryTruncationRejected(sampleFileRecipeBytes(),
                                [](ByteView b) { return parseFileRecipe(b); });
}

TEST(FileRecipeCorruption, EveryBitFlipRejected) {
  expectEveryBitFlipRejected(sampleFileRecipeBytes(),
                             [](ByteView b) { return parseFileRecipe(b); });
}

TEST(FileRecipeCorruption, WrongMagicAndVersionRejected) {
  ByteVec magicFlipped = bodyOf(sampleFileRecipeBytes());
  magicFlipped[0] ^= 0xFF;
  EXPECT_THROW(parseFileRecipe(withCrc(magicFlipped)), std::runtime_error);

  ByteVec versionBumped = bodyOf(sampleFileRecipeBytes());
  versionBumped[4] ^= 0xFF;
  EXPECT_THROW(parseFileRecipe(withCrc(versionBumped)), std::runtime_error);
}

TEST(FileRecipeCorruption, HugeEntryCountRejectedWithoutAllocating) {
  ByteVec body;
  putU32(body, 0x46445246);  // "FDRF"
  putU32(body, 2);           // version
  putVarint(body, 1);        // name length
  body.push_back('x');
  putU64(body, 10);          // file size
  putVarint(body, uint64_t{0xFFFFFFFFFFFFFF});
  EXPECT_THROW(parseFileRecipe(withCrc(body)), std::runtime_error);
}

TEST(FileRecipeCorruption, NameLengthSpillingIntoCrcRejected) {
  // A name length that would make the parser read past the CRC-covered body.
  ByteVec body;
  putU32(body, 0x46445246);
  putU32(body, 2);
  putVarint(body, 1000);  // claimed name length far beyond the input
  body.push_back('x');
  EXPECT_THROW(parseFileRecipe(withCrc(body)), std::runtime_error);
}

TEST(KeyRecipeCorruption, EveryTruncationRejected) {
  expectEveryTruncationRejected(sampleKeyRecipeBytes(),
                                [](ByteView b) { return parseKeyRecipe(b); });
}

TEST(KeyRecipeCorruption, EveryBitFlipRejected) {
  expectEveryBitFlipRejected(sampleKeyRecipeBytes(),
                             [](ByteView b) { return parseKeyRecipe(b); });
}

TEST(KeyRecipeCorruption, HugeKeyCountRejectedWithoutAllocating) {
  ByteVec body;
  putU32(body, 0x4644524B);  // "FDRK"
  putU32(body, 2);
  putVarint(body, uint64_t{0xFFFFFFFFFFFFFF});
  EXPECT_THROW(parseKeyRecipe(withCrc(body)), std::runtime_error);
}

TEST(KeyRecipeCorruption, TrailingGarbageRejected) {
  ByteVec body = bodyOf(sampleKeyRecipeBytes());
  body.push_back(0x00);
  EXPECT_THROW(parseKeyRecipe(withCrc(body)), std::runtime_error);
}

TEST(RecipeRoundtrip, PlainFingerprintsSurvive) {
  FileRecipe recipe;
  recipe.fileName = "f";
  recipe.fileSize = 9;
  recipe.entries = {{0xA, 4, 0xCAFE}, {0xB, 5, 0xBEEF}};
  const FileRecipe parsed = parseFileRecipe(serializeFileRecipe(recipe));
  EXPECT_EQ(parsed, recipe);
  EXPECT_EQ(parsed.entries[0].plainFp, 0xCAFEu);
}

}  // namespace
}  // namespace freqdedup
