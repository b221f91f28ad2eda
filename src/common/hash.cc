#include "common/hash.h"

#include <openssl/core_names.h>
#include <openssl/evp.h>

#include <memory>
#include <stdexcept>

#include "common/check.h"

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
