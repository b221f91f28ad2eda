// CRC-32C (Castagnoli) checksums for on-disk record framing.
//
// On x86-64 CPUs with SSE4.2 the checksum runs on the crc32 instruction,
// 8 bytes per step; elsewhere a byte-at-a-time table loop computes the same
// value. The kernel is picked once, at first use.
#pragma once

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
}  // namespace detail

}  // namespace freqdedup
