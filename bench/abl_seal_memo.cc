// Ablation: seal memo capacity. DedupClient remembers the chunks it sealed
// most recently (an LRU keyed on the plaintext fingerprint), so a repeated
// chunk skips key derivation, encryption and the ciphertext fingerprint.
// This replays each dataset's backups in order through one memo per
// capacity, with the client's policy (look up every chunk, remember it after
// a miss), and reports the share of chunks the memo serves. "repeats" is the
// ceiling: the share of chunks seen earlier in the chain (an unbounded memo).
// "in backup" is the share of the chain's repeats that recur inside the same
// backup; the rest point back to an earlier backup and need a memo that
// spans one backup's distinct chunks.
#include <unordered_set>

#include "client/dedup_client.h"
#include "common/lru_cache.h"
#include "expcommon.h"

using namespace freqdedup;
using namespace freqdedup::exp;

namespace {

double pct(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) /
                                static_cast<double>(whole);
}

/// Share of the chain's chunks a memo of `capacity` entries serves.
double memoHitPct(const Dataset& dataset, size_t capacity) {
  LruCache<Fp, uint32_t, FpHash> memo(capacity);
  uint64_t chunks = 0, hits = 0;
  for (const BackupTrace& backup : dataset.backups) {
    for (const ChunkRecord& r : backup.records) {
      ++chunks;
      if (const auto size = memo.get(r.fp); size && *size == r.size) {
        ++hits;
      } else {
        memo.put(r.fp, r.size);
      }
    }
  }
  return pct(hits, chunks);
}

}  // namespace

int main() {
  printTitle("Ablation: seal memo capacity",
             "chunks served by the client's seal memo, by capacity");
  const std::vector<size_t> capacities = {1024, 4096, 16384, 65536, 262144,
                                          1048576};
  std::vector<std::string> header = {"dataset", "backups", "distinct/bkp",
                                     "repeats", "in backup"};
  for (const size_t c : capacities) header.push_back(std::to_string(c));
  printRow(header);

  for (const Dataset* dataset : {&fslDataset(), &vmDataset(), &synDataset()}) {
    uint64_t chunks = 0, repeats = 0, inBackup = 0, distinct = 0;
    std::unordered_set<Fp, FpHash> chain;
    for (const BackupTrace& backup : dataset->backups) {
      std::unordered_set<Fp, FpHash> seen;
      for (const ChunkRecord& r : backup.records) {
        ++chunks;
        const bool again = seen.contains(r.fp);
        if (!chain.insert(r.fp).second) ++repeats;
        if (again) ++inBackup;
        seen.insert(r.fp);
      }
      distinct += seen.size();
    }
    std::vector<std::string> row = {
        dataset->name, std::to_string(dataset->backupCount()),
        std::to_string(distinct / dataset->backupCount()),
        fmtPct(pct(repeats, chunks)), fmtPct(pct(inBackup, repeats))};
    for (const size_t c : capacities)
      row.push_back(fmtPct(memoHitPct(*dataset, c)));
    printRow(row);
  }
  printf("\nThe client's memo holds DedupClient::kSealMemoEntries = %zu "
         "entries.\n",
         DedupClient::kSealMemoEntries);
  return 0;
}
