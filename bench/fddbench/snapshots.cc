#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "client/dedup_client.h"
#include "datagen/file_corpus.h"
#include "datagen/snapshot_gen.h"
#include "fddbench.h"

namespace fddbench {

using freqdedup::BackupOutcome;
using freqdedup::CorpusParams;
using freqdedup::FileCorpus;
using freqdedup::Fp;
using freqdedup::Rng;
using freqdedup::SnapshotGenParams;

freqdedup::AesKey userKey(uint64_t user) {
  return freqdedup::userKeyFromPassphrase("fddbench-user-" +
                                          std::to_string(user));
}

BackupOutcome sessionBackup(freqdedup::DedupClient& client,
                            const std::string& name, const Snapshot& snap) {
  freqdedup::BackupSession session = client.beginBackup(name);
  for (const ByteView piece : snap.pieces()) session.append(piece);
  return session.finish();
}

Digest recipeDigest(const BackupOutcome& outcome) {
  freqdedup::Sha256Stream stream;
  uint8_t buf[20];
  for (const freqdedup::RecipeEntry& e : outcome.fileRecipe.entries) {
    std::memcpy(buf, &e.cipherFp, 8);
    std::memcpy(buf + 8, &e.size, 4);
    std::memcpy(buf + 12, &e.plainFp, 8);
    stream.update(ByteView(buf, sizeof(buf)));
  }
  for (const freqdedup::AesKey& key : outcome.keyRecipe.keys)
    stream.update(ByteView(key.data(), key.size()));
  std::memcpy(buf, &outcome.fileRecipe.fileSize, 8);
  stream.update(ByteView(buf, 8));
  return stream.finish();
}

uint64_t newCipherBytes(const BackupOutcome& outcome) {
  std::unordered_map<Fp, uint32_t> sizes;
  for (const freqdedup::RecipeEntry& e : outcome.fileRecipe.entries)
    sizes.emplace(e.cipherFp, e.size);
  uint64_t total = 0;
  for (const Fp fp : outcome.newChunkFps) total += sizes.at(fp);
  return total;
}

std::vector<ByteView> Snapshot::pieces() const {
  std::vector<ByteView> out;
  for (const auto& file : files) {
    const ByteView bytes(*file);
    for (size_t off = 0; off < bytes.size(); off += kAppendBytes)
      out.push_back(bytes.subspan(off, std::min(kAppendBytes,
                                                bytes.size() - off)));
  }
  return out;
}

namespace {

using SharedFiles = std::map<std::string, std::shared_ptr<const ByteVec>>;

Snapshot toSnapshot(const SharedFiles& files) {
  Snapshot snap;
  for (const auto& [name, content] : files) {
    snap.files.push_back(content);
    snap.bytes += content->size();
  }
  return snap;
}

}  // namespace

std::vector<std::vector<Snapshot>> makeChains(const ChainParams& params,
                                              uint64_t driftSeed, int users) {
  // The base image is the same for every seed — the public image every
  // user starts from, as in the paper's synthetic dataset — so image size
  // and duplication do not vary between seeds.
  CorpusParams corpus;
  corpus.fileCount = params.fileCount;
  corpus.targetBytes = params.imageBytes;
  // The default source-block pool is sized for a ~96 MB image; shrink it
  // with the image so small images still reuse blocks.
  corpus.poolBlocks = std::max<size_t>(
      16, corpus.poolBlocks * params.imageBytes / (96ull << 20));
  const FileCorpus base = generateCorpus(corpus);

  SharedFiles baseFiles;
  for (const auto& [name, content] : base)
    baseFiles.emplace(name, std::make_shared<const ByteVec>(content));

  SnapshotGenParams gen;
  gen.newBytesPerSnapshot = params.newBytesPerSnapshot;
  gen.newFileBytes = params.newFileBytes;

  std::vector<std::vector<Snapshot>> chains(static_cast<size_t>(users));
  for (int u = 0; u < users; ++u) {
    std::vector<Snapshot>& chain = chains[static_cast<size_t>(u)];
    FileCorpus work = base;
    Rng rng(subSeed(driftSeed, 100 + static_cast<uint64_t>(u)));
    SharedFiles prev = baseFiles;
    chain.push_back(toSnapshot(prev));
    for (int s = 1; s < params.snapshots; ++s) {
      freqdedup::mutateSnapshot(work, gen, rng, s);
      SharedFiles next;
      for (const auto& [name, content] : work) {
        const auto it = prev.find(name);
        if (it != prev.end() && *it->second == content) {
          next.emplace(name, it->second);
        } else {
          next.emplace(name, std::make_shared<const ByteVec>(content));
        }
      }
      chain.push_back(toSnapshot(next));
      prev = std::move(next);
    }
  }
  return chains;
}

}  // namespace fddbench
