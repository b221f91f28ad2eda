#include "common/hash.h"

#include <openssl/core_names.h>
#include <openssl/evp.h>

#include <memory>
#include <stdexcept>

#include "common/check.h"

namespace freqdedup {

namespace {

Digest oneShot(const EVP_MD* md, ByteView data) {
  Digest d;
  unsigned int len = 0;
  if (EVP_Digest(data.data(), data.size(), d.bytes.data(), &len, md,
                 nullptr) != 1)
    throw std::runtime_error("EVP_Digest failed");
  d.size = static_cast<uint8_t>(len);
  return d;
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

}  // namespace

Digest sha256(ByteView data) { return oneShot(EVP_sha256(), data); }

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
  if (EVP_DigestInit_ex(static_cast<EVP_MD_CTX*>(ctx_), EVP_sha256(),
                        nullptr) != 1)
    throw std::runtime_error("EVP_DigestInit_ex failed");
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
  if (EVP_DigestInit_ex(ctx, EVP_sha256(), nullptr) != 1)
    throw std::runtime_error("EVP_DigestInit_ex (reset) failed");
  return d;
}

}  // namespace freqdedup
