#include "storage/codec.h"

#include <cstring>
#include <stdexcept>

namespace freqdedup {

namespace {

// --- Built-in LZ77 codec (ContainerCodec::kDeflate) ---
//
// LZ4-block-style framing, self-contained so the build needs no external
// compression library:
//
//   sequence := token literals [offset extMatch]
//   token    := 1 byte; high nibble = literal count, low nibble = match
//               length - kMinMatch; nibble value 15 extends with
//               255-continuation bytes (each byte adds 0..255, a byte < 255
//               terminates)
//   offset   := 2-byte little-endian backward distance, 1..65535
//
// The final sequence carries literals only: when input ends after the
// literals the match nibble must be 0 and no offset follows. Matches may
// overlap their own output (offset < match length), copied byte-by-byte.

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
constexpr size_t kHashBits = 16;

uint32_t load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t hash4(uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

void putLzLength(ByteVec& out, size_t extra) {
  while (extra >= 255) {
    out.push_back(255);
    extra -= 255;
  }
  out.push_back(static_cast<uint8_t>(extra));
}

ByteVec lzCompress(ByteView raw) {
  ByteVec out;
  out.reserve(raw.size() / 2);
  const uint8_t* const base = raw.data();
  const size_t size = raw.size();
  // Candidate positions of previously seen 4-byte sequences, by hash. A
  // stale or colliding slot is harmless: every candidate is verified
  // byte-for-byte before use.
  std::vector<uint32_t> table(size_t{1} << kHashBits, 0);
  std::vector<bool> seen(size_t{1} << kHashBits, false);

  size_t litStart = 0;  // first literal not yet emitted
  size_t i = 0;
  const size_t matchLimit = size >= kMinMatch ? size - kMinMatch + 1 : 0;
  while (i < matchLimit) {
    const uint32_t h = hash4(load32(base + i));
    const size_t cand = table[h];
    const bool usable = seen[h] && cand < i && i - cand <= kMaxOffset &&
                        load32(base + cand) == load32(base + i);
    table[h] = static_cast<uint32_t>(i);
    seen[h] = true;
    if (!usable) {
      ++i;
      continue;
    }
    size_t len = kMinMatch;
    while (i + len < size && base[cand + len] == base[i + len]) ++len;

    const size_t lits = i - litStart;
    const size_t litNibble = lits < 15 ? lits : 15;
    const size_t matchNibble = (len - kMinMatch) < 15 ? (len - kMinMatch) : 15;
    out.push_back(static_cast<uint8_t>((litNibble << 4) | matchNibble));
    if (litNibble == 15) putLzLength(out, lits - 15);
    out.insert(out.end(), base + litStart, base + i);
    const size_t offset = i - cand;
    out.push_back(static_cast<uint8_t>(offset & 0xFF));
    out.push_back(static_cast<uint8_t>(offset >> 8));
    if (matchNibble == 15) putLzLength(out, len - kMinMatch - 15);
    i += len;
    litStart = i;
  }
  // Trailing literals as a match-free final sequence.
  const size_t lits = size - litStart;
  const size_t litNibble = lits < 15 ? lits : 15;
  out.push_back(static_cast<uint8_t>(litNibble << 4));
  if (litNibble == 15) putLzLength(out, lits - 15);
  out.insert(out.end(), base + litStart, base + size);
  return out;
}

size_t getLzLength(ByteView in, size_t& at, size_t nibble) {
  size_t len = nibble;
  if (nibble != 15) return len;
  for (;;) {
    if (at >= in.size())
      throw std::runtime_error("codec: truncated length extension");
    const uint8_t b = in[at++];
    len += b;
    if (b < 255) return len;
    // A pathological run of 255s cannot claim more than the output bound
    // the caller enforces, but cap the loop against absurd streams anyway.
    if (len > (uint64_t{1} << 40))
      throw std::runtime_error("codec: length extension implausible");
  }
}

ByteVec lzDecompress(ByteView stored, uint64_t expectedRawSize) {
  ByteVec out;
  out.reserve(static_cast<size_t>(expectedRawSize));
  size_t at = 0;
  while (at < stored.size()) {
    const uint8_t token = stored[at++];
    const size_t lits = getLzLength(stored, at, token >> 4);
    if (lits > stored.size() - at)
      throw std::runtime_error("codec: literals overrun input");
    if (lits > expectedRawSize - out.size())
      throw std::runtime_error("codec: output overrun");
    out.insert(out.end(), stored.begin() + static_cast<ptrdiff_t>(at),
               stored.begin() + static_cast<ptrdiff_t>(at + lits));
    at += lits;
    if (at == stored.size()) {
      if ((token & 0x0F) != 0)
        throw std::runtime_error("codec: dangling match token");
      break;
    }
    if (stored.size() - at < 2)
      throw std::runtime_error("codec: truncated match offset");
    const size_t offset = static_cast<size_t>(stored[at]) |
                          (static_cast<size_t>(stored[at + 1]) << 8);
    at += 2;
    if (offset == 0 || offset > out.size())
      throw std::runtime_error("codec: match offset out of range");
    const size_t len = getLzLength(stored, at, token & 0x0F) + kMinMatch;
    if (len > expectedRawSize - out.size())
      throw std::runtime_error("codec: output overrun");
    // Byte-by-byte: matches may overlap the bytes they are producing.
    size_t src = out.size() - offset;
    for (size_t k = 0; k < len; ++k) out.push_back(out[src + k]);
  }
  if (out.size() != expectedRawSize)
    throw std::runtime_error("codec: decompressed size mismatch");
  return out;
}

}  // namespace

const char* codecName(ContainerCodec codec) {
  switch (codec) {
    case ContainerCodec::kNone:
      return "none";
    case ContainerCodec::kDeflate:
      return "deflate";
  }
  return "unknown";
}

std::optional<ContainerCodec> codecFromName(std::string_view name) {
  if (name == "none") return ContainerCodec::kNone;
  if (name == "deflate") return ContainerCodec::kDeflate;
  return std::nullopt;
}

std::optional<ByteVec> compressBytes(ContainerCodec codec, ByteView raw) {
  if (raw.empty() || codec != ContainerCodec::kDeflate) return std::nullopt;
  ByteVec compressed = lzCompress(raw);
  if (compressed.size() >= raw.size()) return std::nullopt;
  return compressed;
}

ByteVec decompressBytes(ContainerCodec codec, ByteView stored,
                        uint64_t expectedRawSize) {
  switch (codec) {
    case ContainerCodec::kNone: {
      if (stored.size() != expectedRawSize)
        throw std::runtime_error("codec: stored size mismatch");
      return ByteVec(stored.begin(), stored.end());
    }
    case ContainerCodec::kDeflate:
      return lzDecompress(stored, expectedRawSize);
  }
  throw std::runtime_error("codec: unknown codec");
}

}  // namespace freqdedup
