#include "storage/container.h"

#include <cstring>
#include <stdexcept>

#include "common/check.h"
#include "common/crc32.h"
#include "common/varint.h"

namespace freqdedup {

uint64_t Container::dataBytes() const {
  uint64_t total = 0;
  for (const auto& e : entries) total += e.size;
  return total;
}

namespace {

void putEntryTable(ByteVec& out, const Container& container) {
  putVarint(out, container.entries.size());
  for (const auto& e : container.entries) {
    putU64(out, e.fp);
    putU32(out, e.size);
    putVarint(out, e.dataOffset);
  }
}

void parseEntryTable(ByteView body, size_t& offset, size_t bodySize,
                     Container& container) {
  const auto entryCount = getVarint(body, offset);
  if (!entryCount) throw std::runtime_error("container: truncated header");
  // Validate the count against the remaining input (every entry occupies at
  // least 13 bytes) before allocating, so a corrupt count cannot trigger a
  // huge reserve. Division avoids overflow on adversarial counts.
  if (*entryCount > (bodySize - offset) / 13)
    throw std::runtime_error("container: entry count exceeds input");
  container.entries.reserve(static_cast<size_t>(*entryCount));
  for (uint64_t i = 0; i < *entryCount; ++i) {
    ContainerEntry e;
    if (offset + 12 > bodySize)
      throw std::runtime_error("container: truncated entry");
    e.fp = getU64(body, offset);
    offset += 8;
    e.size = getU32(body, offset);
    offset += 4;
    const auto dataOffset = getVarint(body, offset);
    if (!dataOffset) throw std::runtime_error("container: truncated entry");
    e.dataOffset = *dataOffset;
    container.entries.push_back(e);
  }
}

/// Every entry's payload must lie within a data section of `dataSize`
/// bytes. For the codec frame this runs against the *declared* raw size
/// before decompression, so a crafted size claim is rejected before any
/// output is allocated. Trace-mode containers carry sizes but no bytes
/// (data empty), so the bound is only enforceable when a payload exists.
void checkEntryExtents(const Container& container, uint64_t dataSize) {
  if (dataSize == 0) return;
  for (const ContainerEntry& e : container.entries) {
    if (e.size > dataSize || e.dataOffset > dataSize - e.size)
      throw std::runtime_error("container: entry payload out of range");
  }
}

}  // namespace

ByteVec serializeContainer(const Container& container, ContainerCodec codec) {
  if (codec != ContainerCodec::kNone) {
    if (auto stored = compressBytes(codec, container.data)) {
      ByteVec out;
      putU32(out, kContainerMagicV2);
      putU32(out, container.id);
      out.push_back(static_cast<uint8_t>(codec));
      putEntryTable(out, container);
      putVarint(out, container.data.size());  // raw (decompressed) length
      putVarint(out, stored->size());
      appendBytes(out, *stored);
      putU32(out, crc32c(out));
      return out;
    }
    // Compression would not shrink the payload (or there is none): fall
    // through to the legacy frame, so incompressible containers pay no
    // codec overhead and trace-mode containers stay legacy-readable.
  }
  ByteVec out;
  putU32(out, kContainerMagic);
  putU32(out, container.id);
  putEntryTable(out, container);
  putVarint(out, container.data.size());
  appendBytes(out, container.data);
  putU32(out, crc32c(out));
  return out;
}

namespace {

/// A parsed frame. A legacy frame's data section is left in the frame at
/// [dataOffset, dataOffset + dataLen) for the caller to copy or move; a
/// codec frame's is already decompressed into container.data.
struct ParsedFrame {
  Container container;
  size_t dataOffset = 0;
  size_t dataLen = 0;
};

/// Every structural and checksum check of parseContainer.
ParsedFrame parseFrame(ByteView bytes) {
  if (bytes.size() < 12)
    throw std::runtime_error("container: input too short");
  const size_t bodySize = bytes.size() - 4;
  if (crc32c(bytes.subspan(0, bodySize)) != getU32(bytes, bodySize))
    throw std::runtime_error("container: checksum mismatch");
  // All structural reads stay within the CRC-covered body.
  const ByteView body = bytes.subspan(0, bodySize);

  size_t offset = 0;
  const uint32_t magic = getU32(body, offset);
  offset += 4;
  if (magic != kContainerMagic && magic != kContainerMagicV2)
    throw std::runtime_error("container: bad magic");
  ParsedFrame frame;
  Container& container = frame.container;
  container.id = getU32(body, offset);
  offset += 4;

  if (magic == kContainerMagic) {
    parseEntryTable(body, offset, bodySize, container);
    const auto dataLen = getVarint(body, offset);
    if (!dataLen || *dataLen > bodySize - offset)
      throw std::runtime_error("container: truncated data");
    frame.dataOffset = offset;
    frame.dataLen = static_cast<size_t>(*dataLen);
    offset += frame.dataLen;
    if (offset != bodySize)
      throw std::runtime_error("container: trailing garbage");
    checkEntryExtents(container, frame.dataLen);
    return frame;
  }

  // Codec frame. The codec byte is validated first: a frame declaring any
  // codec but kDeflate (kNone — the serializer never writes a kNone codec
  // frame — the reserved byte 1, or an unassigned one) is rejected, which
  // recovery treats like any other corrupt container (quarantine, not data
  // loss).
  if (offset >= bodySize)
    throw std::runtime_error("container: truncated header");
  const uint8_t codecByte = body[offset++];
  if (codecByte != static_cast<uint8_t>(ContainerCodec::kDeflate))
    throw std::runtime_error("container: unknown codec byte");
  const auto codec = static_cast<ContainerCodec>(codecByte);
  parseEntryTable(body, offset, bodySize, container);
  const auto rawLen = getVarint(body, offset);
  if (!rawLen) throw std::runtime_error("container: truncated data header");
  // Bound the decompression output *before* allocating anything: the claim
  // must be plausible in absolute terms and consistent with every entry's
  // declared extent.
  if (*rawLen == 0 || *rawLen > kMaxContainerRawBytes)
    throw std::runtime_error("container: raw size claim implausible");
  checkEntryExtents(container, *rawLen);
  const auto storedLen = getVarint(body, offset);
  if (!storedLen || *storedLen > bodySize - offset)
    throw std::runtime_error("container: truncated data");
  if (*storedLen >= *rawLen)
    throw std::runtime_error("container: stored size claim implausible");
  const ByteView stored = body.subspan(offset, static_cast<size_t>(*storedLen));
  offset += static_cast<size_t>(*storedLen);
  if (offset != bodySize)
    throw std::runtime_error("container: trailing garbage");
  container.data = decompressBytes(codec, stored, *rawLen);
  container.storageCodec = codec;
  return frame;
}

}  // namespace

Container parseContainer(ByteView bytes) {
  ParsedFrame frame = parseFrame(bytes);
  if (frame.container.storageCodec == ContainerCodec::kNone)
    frame.container.data.assign(bytes.begin() + frame.dataOffset,
                                bytes.begin() + frame.dataOffset +
                                    frame.dataLen);
  return std::move(frame.container);
}

Container parseContainer(ByteVec&& bytes) {
  ParsedFrame frame = parseFrame(bytes);
  if (frame.container.storageCodec == ContainerCodec::kNone) {
    std::memmove(bytes.data(), bytes.data() + frame.dataOffset,
                 frame.dataLen);
    bytes.resize(frame.dataLen);
    frame.container.data = std::move(bytes);
  }
  return std::move(frame.container);
}

ContainerBuilder::ContainerBuilder(uint64_t capacityBytes)
    : capacityBytes_(capacityBytes) {
  FDD_CHECK(capacityBytes > 0);
}

size_t ContainerBuilder::add(Fp fp, uint32_t size, ByteView bytes) {
  FDD_CHECK_MSG(bytes.empty() || bytes.size() == size,
                "content size must match declared size");
  ContainerEntry e;
  e.fp = fp;
  e.size = size;
  e.dataOffset = data_.size();
  if (!bytes.empty()) appendBytes(data_, bytes);
  entries_.push_back(e);
  pendingBytes_ += size;
  return entries_.size() - 1;
}

bool ContainerBuilder::wouldOverflow(uint32_t size) const {
  return !entries_.empty() && pendingBytes_ + size > capacityBytes_;
}

Container ContainerBuilder::seal(uint32_t id) {
  FDD_CHECK_MSG(!entries_.empty(), "sealing an empty container");
  Container container;
  container.id = id;
  container.entries = std::move(entries_);
  container.data = std::move(data_);
  entries_.clear();
  data_.clear();
  pendingBytes_ = 0;
  return container;
}

}  // namespace freqdedup
