// Per-container payload compression codecs.
//
// The container frame records which codec compressed its data section so a
// store can mix codecs freely: the write path picks one codec per store
// (StoreOptions::codec), the read path decodes whatever each frame declares.
// `kDeflate` is a small self-contained LZ77 codec (LZ4-style token framing:
// literal/match nibbles, 2-byte offsets, 255-continuation extended lengths),
// so the build stays dependency-free.
//
// Safety contract: decompressBytes() allocates exactly `expectedRawSize`
// bytes — the caller validates that size against the frame's declared chunk
// extents *before* calling, so a crafted size claim can never trigger a huge
// allocation — and throws std::runtime_error on any malformed stream, output
// overrun, or final-size mismatch.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "common/bytes.h"

namespace freqdedup {

/// Codec byte 1 is reserved: an optional zstd codec once used it, and
/// frames declaring it are rejected as an unknown codec.
enum class ContainerCodec : uint8_t {
  kNone = 0,     // stored bytes are the raw payload
  kDeflate = 2,  // built-in LZ77 codec
};

/// Stable lowercase name ("none", "deflate") for CLIs and logs.
[[nodiscard]] const char* codecName(ContainerCodec codec);

/// Inverse of codecName; nullopt for unknown names.
[[nodiscard]] std::optional<ContainerCodec> codecFromName(
    std::string_view name);

/// Compresses `raw` with `codec`. Returns nullopt when the codec is kNone,
/// the input is empty, or the compressed form would not be
/// strictly smaller than the input (the caller then stores raw bytes).
[[nodiscard]] std::optional<ByteVec> compressBytes(ContainerCodec codec,
                                                   ByteView raw);

/// Decompresses `stored` into exactly `expectedRawSize` bytes. Throws
/// std::runtime_error on unknown codecs, malformed streams,
/// writes past the expected size, or a final size mismatch.
[[nodiscard]] ByteVec decompressBytes(ContainerCodec codec, ByteView stored,
                                      uint64_t expectedRawSize);

}  // namespace freqdedup
