// CRC-32C (Castagnoli) checksums for on-disk record framing.
//
// On x86-64 CPUs with SSE4.2 the checksum runs on the crc32 instruction over
// three interleaved streams, 8 bytes per stream per step, so the three
// independent dependency chains hide the instruction's latency; the streams
// are merged with precomputed "append N zero bytes" shift tables. Elsewhere a
// byte-at-a-time table loop computes the same value. The kernel is picked
// once, at first use.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace freqdedup {

/// CRC-32C of a byte range (initial value 0).
uint32_t crc32c(ByteView data);

/// Incremental form: extend a running CRC with more data.
uint32_t crc32cExtend(uint32_t crc, ByteView data);

namespace detail {
/// The portable table loop behind crc32cExtend on CPUs without SSE4.2.
/// Declared here only so tests can check the dispatched kernel against it.
uint32_t crc32cExtendTable(uint32_t crc, ByteView data);

/// The kernel crc32cExtend dispatched to: "sse42-3x" or "table".
const char* crc32cKernelName();

/// Bytes per stream in one step of the three-stream kernel: inputs of at
/// least 3 * kCrc32cLongBlock run long steps, then the rest runs short
/// steps while at least 3 * kCrc32cShortBlock bytes remain, then one stream.
/// Exposed so tests can probe each threshold.
inline constexpr size_t kCrc32cLongBlock = 8192;
inline constexpr size_t kCrc32cShortBlock = 256;
}  // namespace detail

}  // namespace freqdedup
