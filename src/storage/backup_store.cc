#include "storage/backup_store.h"

namespace freqdedup {

std::vector<ByteVec> BackupStore::getChunks(std::span<const Fp> cipherFps) {
  std::vector<ByteVec> out;
  out.reserve(cipherFps.size());
  for (const Fp fp : cipherFps) out.push_back(getChunk(fp));
  return out;
}

std::vector<std::optional<ChunkPlacement>> BackupStore::chunkLocator(
    std::span<const Fp> cipherFps) const {
  return std::vector<std::optional<ChunkPlacement>>(cipherFps.size());
}

}  // namespace freqdedup
