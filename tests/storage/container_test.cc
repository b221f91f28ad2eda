#include "storage/container.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/varint.h"

namespace freqdedup {
namespace {

TEST(ContainerBuilder, AccumulatesChunks) {
  ContainerBuilder builder(1024);
  EXPECT_TRUE(builder.empty());
  builder.add(1, 100, toBytes(std::string(100, 'a')));
  builder.add(2, 200, toBytes(std::string(200, 'b')));
  EXPECT_EQ(builder.chunkCount(), 2u);
  EXPECT_EQ(builder.pendingBytes(), 300u);
}

TEST(ContainerBuilder, WouldOverflow) {
  ContainerBuilder builder(250);
  EXPECT_FALSE(builder.wouldOverflow(1000));  // empty builder always accepts
  builder.add(1, 200, {});
  EXPECT_TRUE(builder.wouldOverflow(100));
  EXPECT_FALSE(builder.wouldOverflow(50));
}

TEST(ContainerBuilder, SealResetsState) {
  ContainerBuilder builder(1024);
  builder.add(1, 10, {});
  const Container c = builder.seal(7);
  EXPECT_EQ(c.id, 7u);
  EXPECT_EQ(c.chunkCount(), 1u);
  EXPECT_TRUE(builder.empty());
  EXPECT_EQ(builder.pendingBytes(), 0u);
}

TEST(ContainerBuilder, SealEmptyRejected) {
  ContainerBuilder builder(1024);
  EXPECT_THROW(builder.seal(0), std::logic_error);
}

TEST(ContainerBuilder, SizeMismatchRejected) {
  ContainerBuilder builder(1024);
  EXPECT_THROW(builder.add(1, 10, toBytes("short")), std::logic_error);
}

TEST(ContainerBuilder, DataOffsetsTrackPayload) {
  ContainerBuilder builder(1024);
  builder.add(1, 3, toBytes("abc"));
  builder.add(2, 4, toBytes("defg"));
  const Container c = builder.seal(0);
  EXPECT_EQ(c.entries[0].dataOffset, 0u);
  EXPECT_EQ(c.entries[1].dataOffset, 3u);
  EXPECT_EQ(toString(ByteView(c.data.data() + 3, 4)), "defg");
}

TEST(Container, SerializeParseRoundtrip) {
  ContainerBuilder builder(1024);
  builder.add(0xAAAA, 5, toBytes("hello"));
  builder.add(0xBBBB, 5, toBytes("world"));
  const Container original = builder.seal(42);
  const Container parsed = parseContainer(serializeContainer(original));
  EXPECT_EQ(parsed.id, original.id);
  EXPECT_EQ(parsed.entries, original.entries);
  EXPECT_EQ(parsed.data, original.data);
}

TEST(Container, TraceModeRoundtrip) {
  ContainerBuilder builder(64 * 1024);
  builder.add(1, 8192, {});  // trace mode: size only, no bytes
  builder.add(2, 4096, {});
  const Container original = builder.seal(3);
  EXPECT_EQ(original.dataBytes(), 12288u);
  EXPECT_TRUE(original.data.empty());
  const Container parsed = parseContainer(serializeContainer(original));
  EXPECT_EQ(parsed.entries, original.entries);
}

TEST(Container, CorruptChecksumRejected) {
  ContainerBuilder builder(1024);
  builder.add(1, 3, toBytes("abc"));
  ByteVec bytes = serializeContainer(builder.seal(0));
  bytes[bytes.size() / 2] ^= 0x01;
  EXPECT_THROW(parseContainer(bytes), std::runtime_error);
}

TEST(Container, TruncatedInputRejected) {
  ContainerBuilder builder(1024);
  builder.add(1, 3, toBytes("abc"));
  ByteVec bytes = serializeContainer(builder.seal(0));
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(parseContainer(bytes), std::runtime_error);
}

TEST(Container, MetadataBytesAt32PerFingerprint) {
  ContainerBuilder builder(1024 * 1024);
  for (Fp fp = 0; fp < 10; ++fp) builder.add(fp, 100, {});
  EXPECT_EQ(builder.seal(0).metadataBytes(), 320u);
}

/// Both overloads parse `frame` the same way. The in-place one gets a copy.
void expectInPlaceParseEqualsViewParse(const ByteVec& frame) {
  const Container viewed = parseContainer(ByteView(frame));
  const Container moved = parseContainer(ByteVec(frame));
  EXPECT_EQ(moved.id, viewed.id);
  EXPECT_EQ(moved.entries, viewed.entries);
  EXPECT_EQ(moved.data, viewed.data);
  EXPECT_EQ(moved.storageCodec, viewed.storageCodec);
}

TEST(Container, InPlaceParseEqualsViewParse) {
  ContainerBuilder builder(64 * 1024);
  builder.add(0xAAAA, 5, toBytes("hello"));
  builder.add(0xBBBB, 7, toBytes("world!!"));
  const ByteVec legacy = serializeContainer(builder.seal(4));
  expectInPlaceParseEqualsViewParse(legacy);
  EXPECT_EQ(toString(parseContainer(ByteVec(legacy)).data), "helloworld!!");

  builder.add(1, 8192, {});  // trace mode: an empty data section
  expectInPlaceParseEqualsViewParse(serializeContainer(builder.seal(5)));

  builder.add(0xCCCC, 4096, ByteVec(4096, 'a'));
  builder.add(0xDDDD, 4096, ByteVec(4096, 'b'));
  const ByteVec deflated =
      serializeContainer(builder.seal(6), ContainerCodec::kDeflate);
  ASSERT_EQ(parseContainer(ByteView(deflated)).storageCodec,
            ContainerCodec::kDeflate);
  expectInPlaceParseEqualsViewParse(deflated);
}

/// The message parseContainer throws for `frame`, or "" when it parses.
template <typename Frame>
std::string parseError(Frame&& frame) {
  try {
    parseContainer(std::forward<Frame>(frame));
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// Replaces the trailing CRC of a frame whose body was edited.
ByteVec resealed(ByteVec frame) {
  frame.resize(frame.size() - 4);
  putU32(frame, crc32c(frame));
  return frame;
}

TEST(Container, InPlaceParseRejectsCorruptFramesWithTheSameMessage) {
  ContainerBuilder builder(64 * 1024);
  builder.add(1, 3, toBytes("abc"));
  const ByteVec legacy = serializeContainer(builder.seal(0));
  builder.add(2, 4096, ByteVec(4096, 'z'));
  const ByteVec deflated =
      serializeContainer(builder.seal(1), ContainerCodec::kDeflate);

  std::vector<ByteVec> corrupt;
  ByteVec flipped = legacy;  // CorruptChecksumRejected
  flipped[flipped.size() / 2] ^= 0x01;
  corrupt.push_back(flipped);
  corrupt.emplace_back(legacy.begin(),  // TruncatedInputRejected
                       legacy.begin() + static_cast<ptrdiff_t>(legacy.size() / 2));
  ByteVec badMagic = legacy;
  badMagic[0] ^= 0xFF;
  corrupt.push_back(resealed(badMagic));
  ByteVec garbage = legacy;
  garbage.insert(garbage.end() - 4, 0x00);
  corrupt.push_back(resealed(garbage));
  ByteVec outOfRange = legacy;
  outOfRange[9 + 8] = 100;  // the entry's size: after magic, id, count, fp
  corrupt.push_back(resealed(outOfRange));
  ByteVec badCodec = deflated;
  badCodec[8] = 0x7F;  // the codec byte, after magic and id
  corrupt.push_back(resealed(badCodec));
  corrupt.emplace_back(deflated.begin(), deflated.end() - 8);

  for (size_t i = 0; i < corrupt.size(); ++i) {
    const std::string viewed = parseError(ByteView(corrupt[i]));
    EXPECT_NE(viewed, "") << "frame " << i << " parsed";
    EXPECT_EQ(parseError(ByteVec(corrupt[i])), viewed) << "frame " << i;
  }
}

}  // namespace
}  // namespace freqdedup
