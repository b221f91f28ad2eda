#include "crypto/key_manager.h"

#include <algorithm>

#include "common/check.h"
#include "common/hash.h"

namespace freqdedup {

KeyManager::KeyManager(ByteVec globalSecret)
    : secret_(std::move(globalSecret)) {
  FDD_CHECK_MSG(!secret_.empty(), "key manager needs a non-empty secret");
}

AesKey KeyManager::derive(ByteView domain, Fp fp) const {
  ByteVec msg(domain.begin(), domain.end());
  putU64(msg, fp);
  const Digest d = hmacSha256(secret_, msg);
  AesKey key{};
  std::copy(d.bytes.begin(), d.bytes.begin() + kAesKeyBytes, key.begin());
  return key;
}

AesKey KeyManager::deriveChunkKey(Fp fingerprint) const {
  return derive(toBytes("chunk-key"), fingerprint);
}

AesKey KeyManager::deriveSegmentKey(Fp minFingerprint) const {
  return derive(toBytes("segment-key"), minFingerprint);
}

}  // namespace freqdedup
