#include "common/bytes.h"

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "common/check.h"

namespace freqdedup {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string hexEncode(ByteView data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xF]);
  }
  return out;
}

ByteVec hexDecode(std::string_view hex) {
  if (hex.size() % 2 != 0)
    throw std::invalid_argument("hexDecode: odd-length input");
  ByteVec out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hexValue(hex[i]);
    const int lo = hexValue(hex[i + 1]);
    if (hi < 0 || lo < 0)
      throw std::invalid_argument("hexDecode: non-hex character");
    out.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return out;
}

ByteVec toBytes(std::string_view s) {
  return ByteVec(s.begin(), s.end());
}

std::string toString(ByteView data) {
  return std::string(data.begin(), data.end());
}

ByteVec readFile(const std::string& path) {
  std::unique_ptr<FILE, decltype(&fclose)> f(fopen(path.c_str(), "rb"),
                                             &fclose);
  if (!f) throw std::runtime_error("readFile: cannot open " + path);
  fseek(f.get(), 0, SEEK_END);
  const long size = ftell(f.get());
  if (size < 0) throw std::runtime_error("readFile: ftell failed on " + path);
  fseek(f.get(), 0, SEEK_SET);
  ByteVec data(static_cast<size_t>(size));
  if (size > 0 && fread(data.data(), 1, data.size(), f.get()) != data.size())
    throw std::runtime_error("readFile: short read on " + path);
  return data;
}

void writeFile(const std::string& path, ByteView data) {
  std::unique_ptr<FILE, decltype(&fclose)> f(fopen(path.c_str(), "wb"),
                                             &fclose);
  if (!f) throw std::runtime_error("writeFile: cannot open " + path);
  if (!data.empty() &&
      fwrite(data.data(), 1, data.size(), f.get()) != data.size())
    throw std::runtime_error("writeFile: short write on " + path);
  // A write smaller than the stdio buffer reaches the file only at the
  // final flush, so its ENOSPC or EIO shows up only here.
  if (fclose(f.release()) != 0)
    throw std::runtime_error("writeFile: flush failed on " + path);
}

void appendBytes(ByteVec& out, ByteView data) {
  out.insert(out.end(), data.begin(), data.end());
}

void putU32(ByteVec& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void putU64(ByteVec& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint32_t getU32(ByteView in, size_t offset) {
  FDD_CHECK_MSG(offset + 4 <= in.size(), "getU32 out of range");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<uint32_t>(in[offset + i]) << (8 * i);
  return v;
}

uint64_t getU64(ByteView in, size_t offset) {
  FDD_CHECK_MSG(offset + 8 <= in.size(), "getU64 out of range");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<uint64_t>(in[offset + i]) << (8 * i);
  return v;
}

}  // namespace freqdedup
