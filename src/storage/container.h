// Containers: the multi-megabyte on-disk units that deduplicated storage
// systems batch unique chunks into (Section 7.4; Zhu et al., FAST'08;
// Lillibridge et al., FAST'13). Chunks are appended in logical order, which
// is what gives the fingerprint-prefetching of step S4 its hit rate.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/fingerprint.h"
#include "storage/codec.h"

namespace freqdedup {

inline constexpr uint64_t kDefaultContainerBytes = 4 * 1024 * 1024;

/// Legacy frame magic ("FDCT"): header, entry table, raw data, trailing CRC.
/// Every container written without compression uses this frame, so old
/// stores parse unchanged and kNone output stays bit-identical to them.
inline constexpr uint32_t kContainerMagic = 0x46444354;

/// Codec frame magic ("FDC2"): like the legacy frame but with a codec byte
/// and a (rawLen, storedLen) pair framing a compressed data section.
inline constexpr uint32_t kContainerMagicV2 = 0x46444332;

/// Upper bound on a frame's declared decompressed data size; claims beyond
/// it are rejected before any allocation happens.
inline constexpr uint64_t kMaxContainerRawBytes = uint64_t{1} << 30;

struct ContainerEntry {
  Fp fp = 0;
  uint32_t size = 0;
  uint64_t dataOffset = 0;  // offset of the chunk within the container data

  friend bool operator==(const ContainerEntry&,
                         const ContainerEntry&) = default;
};

struct Container {
  uint32_t id = 0;
  std::vector<ContainerEntry> entries;
  ByteVec data;  // empty in trace mode (sizes tracked, bytes not stored)
  /// Codec of the frame this container was parsed from (kNone for legacy
  /// frames and freshly built containers); `data` is always raw bytes.
  ContainerCodec storageCodec = ContainerCodec::kNone;

  [[nodiscard]] size_t chunkCount() const { return entries.size(); }
  [[nodiscard]] uint64_t dataBytes() const;
  /// Bytes of fingerprint metadata this container contributes to the index
  /// (32 B per fingerprint, as configured in the paper's prototype).
  [[nodiscard]] uint64_t metadataBytes() const {
    return static_cast<uint64_t>(entries.size()) * kFpMetadataBytes;
  }
};

/// Serializes a container (header, entry table, data, trailing CRC). With
/// kDeflate the data section is compressed into a codec frame — unless
/// compression would not shrink it, in which case the output falls back to
/// the bit-identical legacy kNone frame. Containers
/// without payload bytes (trace mode) always use the legacy frame.
ByteVec serializeContainer(const Container& container,
                           ContainerCodec codec = ContainerCodec::kNone);

/// Parses a serialized container (either frame; `storageCodec` records which
/// codec the frame declared); throws std::runtime_error on corruption,
/// unknown codec bytes, or implausible decompressed-size claims — entry
/// extents are validated against the declared raw size before any
/// decompression output is allocated.
Container parseContainer(ByteView bytes);

/// Same checks and result, but a legacy frame's data section is moved to the
/// front of `bytes`, which then becomes Container::data: no second buffer of
/// the frame's size is allocated. A codec frame decompresses as above.
Container parseContainer(ByteVec&& bytes);

/// Accumulates chunks until the data payload reaches the capacity, then the
/// caller seals it into a Container.
class ContainerBuilder {
 public:
  explicit ContainerBuilder(uint64_t capacityBytes = kDefaultContainerBytes);

  /// Adds a chunk. In trace mode pass an empty `bytes` (size still counts
  /// toward capacity). Returns the entry index.
  size_t add(Fp fp, uint32_t size, ByteView bytes = {});

  /// True when adding a chunk of `size` would exceed capacity.
  [[nodiscard]] bool wouldOverflow(uint32_t size) const;
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] size_t chunkCount() const { return entries_.size(); }
  [[nodiscard]] uint64_t pendingBytes() const { return pendingBytes_; }
  [[nodiscard]] uint64_t capacityBytes() const { return capacityBytes_; }

  /// Seals the accumulated chunks into a container with the given id and
  /// resets the builder.
  Container seal(uint32_t id);

 private:
  uint64_t capacityBytes_;
  uint64_t pendingBytes_ = 0;
  std::vector<ContainerEntry> entries_;
  ByteVec data_;
};

}  // namespace freqdedup
