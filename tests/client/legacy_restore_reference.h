// Frozen copy of the pre-PR5 chunk-at-a-time restore path
// (RestoreSession::streamTo as of commit d1a8e2d), kept verbatim as the
// equivalence oracle for the batched, pipelined restore engine: restored
// bytes, verification semantics (which checks run, in what order, with what
// error messages) and size accounting must match this implementation for
// every scheme, chunker, thread count and cache size. Do not "fix" or
// modernize this file — it is a reference, same discipline as
// legacy_backup_reference.h. (The original took the client's store mutex
// around getChunk; the caller-provided store here is its own serialization
// domain, which is behavior-identical for a single restore.)
#pragma once

#include <stdexcept>

#include "client/restore_session.h"  // ByteSink
#include "crypto/mle.h"
#include "storage/backup_store.h"
#include "storage/recipe.h"

namespace freqdedup::legacy {

/// The pre-PR5 restore loop: one getChunk round trip and one serial decrypt
/// per recipe entry, verified end-to-end, emitted in order.
inline uint64_t chunkAtATimeRestore(BackupStore& store,
                                    const FileRecipe& fileRecipe,
                                    const KeyRecipe& keyRecipe,
                                    const ByteSink& sink) {
  if (fileRecipe.entries.size() != keyRecipe.keys.size())
    throw std::invalid_argument("RestoreSession: file and key recipes "
                                "disagree on chunk count");
  uint64_t streamed = 0;
  for (size_t i = 0; i < fileRecipe.entries.size(); ++i) {
    const RecipeEntry& entry = fileRecipe.entries[i];
    const ByteVec cipher = store.getChunk(entry.cipherFp);
    // End-to-end verification: the store must hand back exactly the
    // ciphertext the recipe names, and decryption must reproduce the
    // plaintext the recipe fingerprinted at backup time.
    if (fpOfContent(cipher) != entry.cipherFp)
      throw std::runtime_error(
          "restore: ciphertext fingerprint mismatch for " +
          fpToHex(entry.cipherFp));
    const ByteVec plain =
        MleScheme::decryptWithKey(keyRecipe.keys[i], cipher);
    if (entry.plainFp != 0 && fpOfContent(plain) != entry.plainFp)
      throw std::runtime_error(
          "restore: plaintext fingerprint mismatch for " +
          fpToHex(entry.cipherFp));
    streamed += plain.size();
    sink(ByteView(plain.data(), plain.size()));
  }
  if (streamed != fileRecipe.fileSize)
    throw std::runtime_error("restore: size mismatch for " +
                             fileRecipe.fileName);
  return streamed;
}

}  // namespace freqdedup::legacy
