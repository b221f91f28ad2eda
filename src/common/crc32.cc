#include "common/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define FDD_CRC32C_SSE42 1
#endif

namespace freqdedup {

namespace {

constexpr uint32_t kPoly = 0x82f63b78;  // reflected CRC-32C polynomial

constexpr std::array<uint32_t, 256> makeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j)
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    table[i] = crc;
  }
  return table;
}

constexpr auto kTable = makeTable();

#ifdef FDD_CRC32C_SSE42
// The SSE4.2 crc32 instruction computes exactly this polynomial (reflected,
// no pre/post inversion), 8 bytes per step. Words are memcpy'd so the input
// needs no alignment; x86 is little-endian, so a word's bytes enter the CRC
// in memory order, as in the table loop.
__attribute__((target("sse4.2"))) uint32_t extendSse42(uint32_t crc,
                                                       ByteView data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint64_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, ByteView);

ExtendFn pickExtend() {
#ifdef FDD_CRC32C_SSE42
  // Explicit init: this may run from another translation unit's static
  // constructor, before libgcc has filled in the CPU model.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return extendSse42;
#endif
  return detail::crc32cExtendTable;
}

}  // namespace

namespace detail {

uint32_t crc32cExtendTable(uint32_t crc, ByteView data) {
  crc = ~crc;
  for (uint8_t b : data) crc = (crc >> 8) ^ kTable[(crc ^ b) & 0xFF];
  return ~crc;
}

}  // namespace detail

uint32_t crc32cExtend(uint32_t crc, ByteView data) {
  // Chosen on first use, so no static-initialisation order can observe an
  // unset kernel.
  static const ExtendFn extend = pickExtend();
  return extend(crc, data);
}

uint32_t crc32c(ByteView data) { return crc32cExtend(0, data); }

}  // namespace freqdedup
