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

// One shift-register step. Read as polynomials mod P in the CRC's reflected
// bit order (bit 31 is x^0, bit 0 is x^31), it multiplies by x.
constexpr uint32_t timesX(uint32_t a) {
  return (a >> 1) ^ ((a & 1) ? kPoly : 0);
}

constexpr std::array<uint32_t, 256> makeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) crc = timesX(crc);
    table[i] = crc;
  }
  return table;
}

constexpr auto kTable = makeTable();

#ifdef FDD_CRC32C_SSE42
/// a * b mod P.
constexpr uint32_t multModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t bit = 1u << 31; bit != 0; bit >>= 1, b = timesX(b))
    if (a & bit) product ^= b;
  return product;
}

/// The linear map a raw (uninverted) CRC register undergoes when N zero
/// bytes are appended, i.e. multiplication by x^(8N) mod P, as four
/// byte-indexed tables (4 KiB).
struct ZeroShift {
  std::array<std::array<uint32_t, 256>, 4> bytes{};

  [[nodiscard]] uint32_t operator()(uint32_t crc) const {
    return bytes[0][crc & 0xFF] ^ bytes[1][(crc >> 8) & 0xFF] ^
           bytes[2][(crc >> 16) & 0xFF] ^ bytes[3][crc >> 24];
  }
};

/// x^n mod P, by repeated squaring.
constexpr uint32_t xPowModP(uint64_t n) {
  uint32_t result = 1u << 31;  // x^0
  for (uint32_t square = 1u << 30; n != 0;  // x^1, x^2, x^4, ...
       n >>= 1, square = multModP(square, square))
    if (n & 1) result = multModP(result, square);
  return result;
}

constexpr ZeroShift makeZeroShift(size_t zeroBytes) {
  const uint32_t xPow = xPowModP(8 * uint64_t{zeroBytes});
  ZeroShift shift;
  for (uint32_t k = 0; k < 4; ++k)
    for (uint32_t b = 0; b < 256; ++b)
      shift.bytes[k][b] = multModP(xPow, b << (8 * k));
  return shift;
}

// Built at compile time, so no first call pays for them and no thread can
// observe them half-filled.
constexpr ZeroShift kLongShift = makeZeroShift(detail::kCrc32cLongBlock);
constexpr ZeroShift kShortShift = makeZeroShift(detail::kCrc32cShortBlock);

uint64_t load64(const uint8_t* p) {
  uint64_t word = 0;
  std::memcpy(&word, p, sizeof word);
  return word;
}

// One size class of the three-stream loop: while 3 * kBlock bytes remain,
// stream 0 extends the running register over the first kBlock bytes while
// streams 1 and 2 start from 0 over the next two. The crc32 instruction is
// linear in its register, so the running CRC of all 3 * kBlock bytes is
// shift(shift(c0) ^ c1) ^ c2, shift appending kBlock zero bytes.
template <size_t kBlock>
__attribute__((target("sse4.2"))) uint64_t extendStreams(
    uint64_t c0, const uint8_t*& p, size_t& n, const ZeroShift& shift) {
  for (; n >= 3 * kBlock; p += 3 * kBlock, n -= 3 * kBlock) {
    uint64_t c1 = 0;
    uint64_t c2 = 0;
    for (size_t i = 0; i < kBlock; i += 8) {
      c0 = _mm_crc32_u64(c0, load64(p + i));
      c1 = _mm_crc32_u64(c1, load64(p + kBlock + i));
      c2 = _mm_crc32_u64(c2, load64(p + 2 * kBlock + i));
    }
    c0 = shift(static_cast<uint32_t>(c0)) ^ c1;
    c0 = shift(static_cast<uint32_t>(c0)) ^ c2;
  }
  return c0;
}

// The SSE4.2 crc32 instruction computes exactly this polynomial (reflected,
// no pre/post inversion). One instruction has a 3-cycle latency and issues
// every cycle, so three independent streams keep it busy where one
// dependency chain would wait. Words are memcpy'd so the input needs no
// alignment; x86 is little-endian, so a word's bytes enter the CRC in memory
// order, as in the table loop.
__attribute__((target("sse4.2"))) uint32_t extendSse42x3(uint32_t crc,
                                                         ByteView data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint32_t c32 = ~crc;
  // Bytes up to an 8-byte boundary, so no word load splits a cache line.
  for (; n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0; ++p, --n)
    c32 = _mm_crc32_u8(c32, *p);
  uint64_t c = c32;
  c = extendStreams<detail::kCrc32cLongBlock>(c, p, n, kLongShift);
  c = extendStreams<detail::kCrc32cShortBlock>(c, p, n, kShortShift);
  for (; n >= 8; p += 8, n -= 8) c = _mm_crc32_u64(c, load64(p));
  c32 = static_cast<uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, ByteView);

struct CrcKernel {
  ExtendFn fn;
  const char* name;
};

CrcKernel pickKernel() {
#ifdef FDD_CRC32C_SSE42
  // Explicit init: this may run from another translation unit's static
  // constructor, before libgcc has filled in the CPU model.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return {extendSse42x3, "sse42-3x"};
#endif
  return {detail::crc32cExtendTable, "table"};
}

/// Chosen on first use, so no static-initialisation order can observe an
/// unset kernel.
const CrcKernel& crcKernel() {
  static const CrcKernel kernel = pickKernel();
  return kernel;
}

}  // namespace

namespace detail {

uint32_t crc32cExtendTable(uint32_t crc, ByteView data) {
  crc = ~crc;
  for (uint8_t b : data) crc = (crc >> 8) ^ kTable[(crc ^ b) & 0xFF];
  return ~crc;
}

const char* crc32cKernelName() { return crcKernel().name; }

}  // namespace detail

uint32_t crc32cExtend(uint32_t crc, ByteView data) {
  return crcKernel().fn(crc, data);
}

uint32_t crc32c(ByteView data) { return crc32cExtend(0, data); }

}  // namespace freqdedup
