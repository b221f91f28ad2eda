#include "common/hash.h"

#include <openssl/core_names.h>
#include <openssl/evp.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "common/check.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define FDD_SHA256_NI 1
#endif

namespace freqdedup {

namespace {

struct MdDeleter {
  void operator()(EVP_MD* md) const { EVP_MD_free(md); }
};
struct MdCtxDeleter {
  void operator()(EVP_MD_CTX* ctx) const { EVP_MD_CTX_free(ctx); }
};
using MdCtxPtr = std::unique_ptr<EVP_MD_CTX, MdCtxDeleter>;

/// SHA-256, fetched on first use. Initialising a context with the
/// EVP_sha256() handle instead looks the implementation up in OpenSSL's
/// shared algorithm table on every call.
const EVP_MD* sha256Md() {
  static const std::unique_ptr<EVP_MD, MdDeleter> md(
      EVP_MD_fetch(nullptr, "SHA256", nullptr));
  if (!md) throw std::runtime_error("EVP_MD_fetch(SHA256) failed");
  return md.get();
}

void initSha256(EVP_MD_CTX* ctx) {
  if (EVP_DigestInit_ex2(ctx, sha256Md(), nullptr) != 1)
    throw std::runtime_error("EVP_DigestInit_ex2 failed");
}

/// This thread's one-shot digest context, re-initialised by every sha256().
EVP_MD_CTX* threadMdCtx() {
  thread_local const MdCtxPtr ctx(EVP_MD_CTX_new());
  if (!ctx) throw std::runtime_error("EVP_MD_CTX_new failed");
  return ctx.get();
}

struct MacCtxDeleter {
  void operator()(EVP_MAC_CTX* ctx) const { EVP_MAC_CTX_free(ctx); }
};
using MacCtxPtr = std::unique_ptr<EVP_MAC_CTX, MacCtxDeleter>;

/// An unkeyed HMAC-SHA-256 context, built on first use. Fetching the HMAC
/// and SHA-256 implementations goes through OpenSSL's shared algorithm
/// table; every hmacSha256 call instead duplicates this context, which
/// holds both already fetched.
const EVP_MAC_CTX* hmacSha256Template() {
  static const MacCtxPtr tmpl = [] {
    EVP_MAC* mac = EVP_MAC_fetch(nullptr, "HMAC", nullptr);
    if (mac == nullptr) throw std::runtime_error("EVP_MAC_fetch failed");
    MacCtxPtr ctx(EVP_MAC_CTX_new(mac));
    EVP_MAC_free(mac);  // the context holds its own reference
    char digest[] = "SHA256";
    const OSSL_PARAM params[] = {
        OSSL_PARAM_construct_utf8_string(OSSL_MAC_PARAM_DIGEST, digest, 0),
        OSSL_PARAM_construct_end()};
    if (!ctx || EVP_MAC_CTX_set_params(ctx.get(), params) != 1)
      throw std::runtime_error("HMAC-SHA-256 set-up failed");
    return ctx;
  }();
  return tmpl.get();
}

#ifdef FDD_SHA256_NI
#define FDD_SHA_NI_TARGET __attribute__((target("sha,sse4.1,ssse3")))

alignas(16) constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

/// A message as a sequence of 64-byte SHA-256 blocks: its whole blocks are
/// read in place, the last one or two (the message's end, the 0x80 marker,
/// zeros and the big-endian bit length) from `tail`.
struct PaddedMessage {
  explicit PaddedMessage(ByteView m)
      : data(m.data()), wholeBlocks(m.size() / 64) {
    const size_t rest = m.size() % 64;
    const size_t tailBytes = rest < 56 ? 64 : 128;
    blocks = wholeBlocks + tailBytes / 64;
    if (rest > 0) std::memcpy(tail, m.data() + wholeBlocks * 64, rest);
    tail[rest] = 0x80;
    uint64_t bits = static_cast<uint64_t>(m.size()) * 8;
    for (size_t i = 1; i <= 8; ++i, bits >>= 8)
      tail[tailBytes - i] = static_cast<uint8_t>(bits);
  }

  [[nodiscard]] const uint8_t* block(size_t j) const {
    return j < wholeBlocks ? data + 64 * j : tail + 64 * (j - wholeBlocks);
  }

  const uint8_t* data;
  size_t wholeBlocks;
  size_t blocks = 0;
  uint8_t tail[128] = {};
};

/// One lane's chaining state in the operand layout of sha256rnds2: words
/// {A, B, E, F} and {C, D, G, H}, A and C in the highest 32 bits.
struct LaneState {
  __m128i abef;
  __m128i cdgh;
};

FDD_SHA_NI_TARGET inline __m128i byteSwapWords() {
  return _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
}

/// Runs one 64-byte block through each of `Lanes` states. The lanes share
/// no data, so with two lanes every step's instructions form two
/// independent chains that the CPU overlaps.
template <size_t Lanes>
FDD_SHA_NI_TARGET __attribute__((always_inline)) inline void compressBlock(
    LaneState* state, const uint8_t* const* block) {
  const __m128i swap = byteSwapWords();
  LaneState saved[Lanes];
  __m128i w[Lanes][4];  // the message schedule, four words per entry
  for (size_t l = 0; l < Lanes; ++l) saved[l] = state[l];
#pragma GCC unroll 16
  for (size_t g = 0; g < 16; ++g) {  // rounds 4g .. 4g+3
    const __m128i k = _mm_load_si128(
        reinterpret_cast<const __m128i*>(kRoundConstants + 4 * g));
    __m128i msg[Lanes];
    for (size_t l = 0; l < Lanes; ++l) {
      if (g < 4)
        w[l][g] = _mm_shuffle_epi8(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(block[l] + 16 * g)),
            swap);
      msg[l] = _mm_add_epi32(w[l][g % 4], k);
      state[l].cdgh =
          _mm_sha256rnds2_epu32(state[l].cdgh, state[l].abef, msg[l]);
    }
    if (g >= 3 && g <= 14) {  // finish the words of rounds 4g+4 .. 4g+7
      for (size_t l = 0; l < Lanes; ++l) {
        const __m128i carried =
            _mm_alignr_epi8(w[l][g % 4], w[l][(g + 3) % 4], 4);
        w[l][(g + 1) % 4] = _mm_sha256msg2_epu32(
            _mm_add_epi32(w[l][(g + 1) % 4], carried), w[l][g % 4]);
      }
    }
    for (size_t l = 0; l < Lanes; ++l)
      state[l].abef = _mm_sha256rnds2_epu32(
          state[l].abef, state[l].cdgh, _mm_shuffle_epi32(msg[l], 0x0E));
    if (g >= 1 && g <= 12) {  // start the words of rounds 4g+12 .. 4g+15
      for (size_t l = 0; l < Lanes; ++l)
        w[l][(g + 3) % 4] =
            _mm_sha256msg1_epu32(w[l][(g + 3) % 4], w[l][g % 4]);
    }
  }
  for (size_t l = 0; l < Lanes; ++l) {
    state[l].abef = _mm_add_epi32(state[l].abef, saved[l].abef);
    state[l].cdgh = _mm_add_epi32(state[l].cdgh, saved[l].cdgh);
  }
}

FDD_SHA_NI_TARGET Digest digestOf(const LaneState& s) {
  const __m128i feba = _mm_shuffle_epi32(s.abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(s.cdgh, 0xB1);
  const __m128i dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  const __m128i hgfe = _mm_alignr_epi8(dchg, feba, 8);
  Digest d;
  const __m128i swap = byteSwapWords();
  _mm_storeu_si128(reinterpret_cast<__m128i*>(d.bytes.data()),
                   _mm_shuffle_epi8(dcba, swap));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(d.bytes.data() + 16),
                   _mm_shuffle_epi8(hgfe, swap));
  d.size = 32;
  return d;
}

/// Both messages go through the rounds in lockstep over their common block
/// count, padding blocks included; the longer one then finishes alone.
FDD_SHA_NI_TARGET std::array<Digest, 2> sha256PairShaNi(ByteView a,
                                                       ByteView b) {
  const PaddedMessage msgs[2] = {PaddedMessage(a), PaddedMessage(b)};
  // The initial hash value H0..H7 in the sha256rnds2 layout.
  const LaneState init{
      _mm_set_epi32(0x6a09e667, 0xbb67ae85, 0x510e527f,
                    static_cast<int>(0x9b05688c)),
      _mm_set_epi32(0x3c6ef372, static_cast<int>(0xa54ff53a), 0x1f83d9ab,
                    0x5be0cd19)};
  LaneState state[2] = {init, init};
  const size_t common = std::min(msgs[0].blocks, msgs[1].blocks);
  for (size_t j = 0; j < common; ++j) {
    const uint8_t* const blocks[2] = {msgs[0].block(j), msgs[1].block(j)};
    compressBlock<2>(state, blocks);
  }
  const size_t longer = msgs[0].blocks > msgs[1].blocks ? 0 : 1;
  for (size_t j = common; j < msgs[longer].blocks; ++j) {
    const uint8_t* const block = msgs[longer].block(j);
    compressBlock<1>(&state[longer], &block);
  }
  return {digestOf(state[0]), digestOf(state[1])};
}
#endif

using PairFn = std::array<Digest, 2> (*)(ByteView, ByteView);

struct PairKernel {
  PairFn fn;
  const char* name;
};

PairKernel pickPairKernel() {
#ifdef FDD_SHA256_NI
  // Explicit init: this may run from another translation unit's static
  // constructor, before libgcc has filled in the CPU model.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
      __builtin_cpu_supports("ssse3"))
    return {sha256PairShaNi, "sha-ni-2x"};
#endif
  return {detail::sha256PairPortable, "portable"};
}

/// Chosen on first use, so no static-initialisation order can observe an
/// unset kernel.
const PairKernel& pairKernel() {
  static const PairKernel kernel = pickPairKernel();
  return kernel;
}

}  // namespace

Digest sha256(ByteView data) {
  EVP_MD_CTX* ctx = threadMdCtx();
  initSha256(ctx);
  Digest d;
  unsigned int len = 0;
  if (EVP_DigestUpdate(ctx, data.data(), data.size()) != 1 ||
      EVP_DigestFinal_ex(ctx, d.bytes.data(), &len) != 1)
    throw std::runtime_error("SHA-256 failed");
  d.size = static_cast<uint8_t>(len);
  return d;
}

std::array<Digest, 2> sha256Pair(ByteView a, ByteView b) {
  return pairKernel().fn(a, b);
}

namespace detail {

std::array<Digest, 2> sha256PairPortable(ByteView a, ByteView b) {
  return {sha256(a), sha256(b)};
}

const char* sha256PairKernelName() { return pairKernel().name; }

}  // namespace detail

Digest hmacSha256(ByteView key, ByteView data) {
  const MacCtxPtr ctx(EVP_MAC_CTX_dup(hmacSha256Template()));
  Digest d;
  size_t len = 0;
  if (!ctx || EVP_MAC_init(ctx.get(), key.data(), key.size(), nullptr) != 1 ||
      EVP_MAC_update(ctx.get(), data.data(), data.size()) != 1 ||
      EVP_MAC_final(ctx.get(), d.bytes.data(), &len, d.bytes.size()) != 1)
    throw std::runtime_error("HMAC failed");
  d.size = static_cast<uint8_t>(len);
  return d;
}

Sha256Stream::Sha256Stream() : ctx_(EVP_MD_CTX_new()) {
  FDD_CHECK(ctx_ != nullptr);
  initSha256(static_cast<EVP_MD_CTX*>(ctx_));
}

Sha256Stream::~Sha256Stream() {
  EVP_MD_CTX_free(static_cast<EVP_MD_CTX*>(ctx_));
}

void Sha256Stream::update(ByteView data) {
  if (EVP_DigestUpdate(static_cast<EVP_MD_CTX*>(ctx_), data.data(),
                       data.size()) != 1)
    throw std::runtime_error("EVP_DigestUpdate failed");
}

Digest Sha256Stream::finish() {
  Digest d;
  unsigned int len = 0;
  auto* ctx = static_cast<EVP_MD_CTX*>(ctx_);
  if (EVP_DigestFinal_ex(ctx, d.bytes.data(), &len) != 1)
    throw std::runtime_error("EVP_DigestFinal_ex failed");
  d.size = static_cast<uint8_t>(len);
  initSha256(ctx);
  return d;
}

}  // namespace freqdedup
