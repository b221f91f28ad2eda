#include "crypto/aes.h"

#include <openssl/evp.h>

#include <memory>
#include <stdexcept>

#include "common/hash.h"

namespace freqdedup {

namespace {

struct CipherDeleter {
  void operator()(EVP_CIPHER* cipher) const { EVP_CIPHER_free(cipher); }
};
struct CipherCtxDeleter {
  void operator()(EVP_CIPHER_CTX* ctx) const { EVP_CIPHER_CTX_free(ctx); }
};

/// AES-256-CTR, fetched on first use (EVP_aes_256_ctr() would look it up in
/// OpenSSL's shared algorithm table on every init).
const EVP_CIPHER* aes256Ctr() {
  static const std::unique_ptr<EVP_CIPHER, CipherDeleter> cipher(
      EVP_CIPHER_fetch(nullptr, "AES-256-CTR", nullptr));
  if (!cipher) throw std::runtime_error("EVP_CIPHER_fetch failed");
  return cipher.get();
}

/// This thread's cipher context, re-keyed by every ctrApply().
EVP_CIPHER_CTX* threadCipherCtx() {
  thread_local const std::unique_ptr<EVP_CIPHER_CTX, CipherCtxDeleter> ctx(
      EVP_CIPHER_CTX_new());
  if (!ctx) throw std::runtime_error("EVP_CIPHER_CTX_new failed");
  return ctx.get();
}

ByteVec ctrApply(const AesKey& key, const AesIv& iv, ByteView input) {
  EVP_CIPHER_CTX* ctx = threadCipherCtx();
  if (EVP_EncryptInit_ex2(ctx, aes256Ctr(), key.data(), iv.data(),
                          nullptr) != 1)
    throw std::runtime_error("EVP_EncryptInit_ex2 failed");
  ByteVec out(input.size());
  int outLen = 0;
  if (!input.empty() &&
      EVP_EncryptUpdate(ctx, out.data(), &outLen, input.data(),
                        static_cast<int>(input.size())) != 1)
    throw std::runtime_error("EVP_EncryptUpdate failed");
  int finalLen = 0;
  if (EVP_EncryptFinal_ex(ctx, out.data() + outLen, &finalLen) != 1)
    throw std::runtime_error("EVP_EncryptFinal_ex failed");
  out.resize(static_cast<size_t>(outLen + finalLen));
  return out;
}

}  // namespace

ByteVec aesCtrEncrypt(const AesKey& key, const AesIv& iv, ByteView plaintext) {
  return ctrApply(key, iv, plaintext);
}

ByteVec aesCtrDecrypt(const AesKey& key, const AesIv& iv, ByteView ciphertext) {
  return ctrApply(key, iv, ciphertext);
}

AesIv deterministicIv(const AesKey& key) {
  const Digest d = sha256(ByteView(key.data(), key.size()));
  AesIv iv{};
  std::copy(d.bytes.begin(), d.bytes.begin() + kAesIvBytes, iv.begin());
  return iv;
}

}  // namespace freqdedup
