#include "crypto/mle.h"

namespace freqdedup {

ByteVec MleScheme::encryptWithKey(const AesKey& key, ByteView plaintext) {
  return aesCtrEncrypt(key, deterministicIv(key), plaintext);
}

ByteVec MleScheme::decryptWithKey(const AesKey& key, ByteView ciphertext) {
  return aesCtrDecrypt(key, deterministicIv(key), ciphertext);
}

}  // namespace freqdedup
