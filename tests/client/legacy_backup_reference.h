// Frozen copy of the pre-PR4 one-shot backup path (BackupManager::backup as
// of commit b0fd2f3), kept verbatim as the equivalence oracle for the
// session-based streaming client: recipes and store contents produced by
// BackupSession must be bit-identical to this implementation for every
// scheme, chunker and append granularity. Only its serial branches are kept
// (the client has no parallel backup mode to compare against). Do not "fix"
// or modernize this file — it is a reference, same discipline as
// tests/analysis/legacy_reference.h.
#pragma once

#include <vector>

#include "chunking/chunker.h"
#include "chunking/segmenter.h"
#include "client/backup_session.h"  // EncryptionScheme/BackupOptions/Outcome
#include "common/rng.h"
#include "crypto/key_manager.h"
#include "crypto/mle.h"
#include "storage/backup_store.h"

namespace freqdedup::legacy {

namespace detail {

inline BackupOutcome backupMle(BackupStore& store, const KeyManager& km,
                               const std::string& name, ByteView content,
                               const std::vector<ChunkSpan>& spans) {
  BackupOutcome outcome;
  outcome.fileRecipe.fileName = name;
  outcome.fileRecipe.fileSize = content.size();
  outcome.chunkCount = spans.size();

  for (const ChunkSpan& span : spans) {
    const ByteView plain = chunkBytes(content, span);
    const Fp plainFp = fpOfContent(plain);
    const AesKey key = km.deriveChunkKey(plainFp);
    const ByteVec cipher = MleScheme::encryptWithKey(key, plain);
    const Fp cipherFp = fpOfContent(cipher);
    if (store.putChunk(cipherFp, cipher)) {
      ++outcome.newChunks;
    } else {
      ++outcome.duplicateChunks;
    }
    outcome.fileRecipe.entries.push_back(
        {cipherFp, static_cast<uint32_t>(cipher.size()), plainFp});
    outcome.keyRecipe.keys.push_back(key);
  }
  return outcome;
}

inline BackupOutcome backupMinHash(BackupStore& store, const KeyManager& km,
                                   const BackupOptions& options,
                                   const std::string& name, ByteView content,
                                   const std::vector<ChunkSpan>& spans,
                                   bool scramble) {
  std::vector<ByteVec> plainChunks;
  plainChunks.reserve(spans.size());
  for (const ChunkSpan& span : spans) {
    const ByteView bytes = chunkBytes(content, span);
    plainChunks.emplace_back(bytes.begin(), bytes.end());
  }

  std::vector<ChunkRecord> records;
  records.reserve(plainChunks.size());
  for (const auto& chunk : plainChunks)
    records.push_back(
        {fpOfContent(chunk), static_cast<uint32_t>(chunk.size())});
  const std::vector<Segment> segments =
      segmentRecords(records, options.segmentParams);

  std::vector<size_t> order;
  if (scramble) {
    Rng rng(options.scrambleSeed);
    order = scrambleOrder(records.size(), segments, rng);
  } else {
    order.resize(records.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  }

  std::vector<AesKey> keyOf(plainChunks.size());
  for (const Segment& seg : segments) {
    const Fp minFp = segmentMinFingerprint(records, seg);
    const AesKey segKey = km.deriveSegmentKey(minFp);
    for (size_t i = seg.begin; i < seg.end; ++i) keyOf[i] = segKey;
  }

  BackupOutcome outcome;
  outcome.fileRecipe.fileName = name;
  outcome.fileRecipe.fileSize = content.size();
  outcome.fileRecipe.entries.resize(plainChunks.size());
  outcome.keyRecipe.keys.resize(plainChunks.size());
  outcome.chunkCount = plainChunks.size();

  for (const size_t i : order) {
    const ByteVec cipher = MleScheme::encryptWithKey(keyOf[i], plainChunks[i]);
    const Fp cipherFp = fpOfContent(cipher);
    if (store.putChunk(cipherFp, cipher)) {
      ++outcome.newChunks;
    } else {
      ++outcome.duplicateChunks;
    }
    outcome.fileRecipe.entries[i] = {
        cipherFp, static_cast<uint32_t>(cipher.size()), records[i].fp};
    outcome.keyRecipe.keys[i] = keyOf[i];
  }
  return outcome;
}

}  // namespace detail

/// The pre-PR4 one-shot whole-buffer backup path.
inline BackupOutcome oneShotBackup(BackupStore& store, const KeyManager& km,
                                   const Chunker& chunker,
                                   const BackupOptions& options,
                                   const std::string& name, ByteView content) {
  const std::vector<ChunkSpan> spans = chunker.split(content);
  switch (options.scheme) {
    case EncryptionScheme::kMle:
      return detail::backupMle(store, km, name, content, spans);
    case EncryptionScheme::kMinHash:
      return detail::backupMinHash(store, km, options, name, content, spans,
                                   /*scramble=*/false);
    case EncryptionScheme::kMinHashScrambled:
      return detail::backupMinHash(store, km, options, name, content, spans,
                                   /*scramble=*/true);
  }
  return {};
}

}  // namespace freqdedup::legacy
