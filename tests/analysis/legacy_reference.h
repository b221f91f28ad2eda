// Frozen copy of the pre-analysis-engine serial attack implementation
// (src/core/freq_tables.cc + src/core/attacks.cc as of PR 2), kept verbatim
// as the golden reference for the engine-equivalence tests. The analysis
// engine must reproduce these results bit-identically at every thread
// count; do NOT "fix" or optimize this file — its value is that it does not
// change.
#pragma once

#include <algorithm>
#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

#include "analysis/attack_engine.h"

namespace freqdedup::legacy {

using NeighborTable = std::unordered_map<Fp, FrequencyMap, FpHash>;

struct FrequencyTables {
  FrequencyMap freq;
  NeighborTable left;
  NeighborTable right;
  SizeMap sizeOf;
};

inline FrequencyTables countChunks(std::span<const ChunkRecord> records,
                                   bool withNeighbors) {
  FrequencyTables tables;
  tables.freq.reserve(records.size());
  tables.sizeOf.reserve(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const ChunkRecord& r = records[i];
    ++tables.freq[r.fp];
    tables.sizeOf.emplace(r.fp, r.size);
    if (!withNeighbors) continue;
    if (i > 0) ++tables.left[r.fp][records[i - 1].fp];
    if (i + 1 < records.size()) ++tables.right[r.fp][records[i + 1].fp];
  }
  return tables;
}

inline std::vector<std::pair<Fp, uint64_t>> sortByFrequency(
    const FrequencyMap& freq) {
  std::vector<std::pair<Fp, uint64_t>> sorted(freq.begin(), freq.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return sorted;
}

inline std::vector<InferredPair> freqAnalysis(const FrequencyMap& cipherFreq,
                                              const FrequencyMap& plainFreq,
                                              size_t x) {
  const auto cipherSorted = legacy::sortByFrequency(cipherFreq);
  const auto plainSorted = legacy::sortByFrequency(plainFreq);
  const size_t n = std::min({x, cipherSorted.size(), plainSorted.size()});
  std::vector<InferredPair> pairs;
  pairs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pairs.push_back({cipherSorted[i].first, plainSorted[i].first});
  }
  return pairs;
}

inline std::unordered_map<uint32_t, FrequencyMap> classifyBySize(
    const FrequencyMap& freq, const SizeMap& sizes) {
  std::unordered_map<uint32_t, FrequencyMap> buckets;
  for (const auto& [fp, count] : freq) {
    const auto it = sizes.find(fp);
    if (it == sizes.end()) continue;
    buckets[sizeClassOf(it->second)].emplace(fp, count);
  }
  return buckets;
}

inline std::vector<InferredPair> freqAnalysisSized(
    const FrequencyMap& cipherFreq, const FrequencyMap& plainFreq, size_t x,
    const SizeMap& cipherSizes, const SizeMap& plainSizes) {
  const auto cipherBuckets = classifyBySize(cipherFreq, cipherSizes);
  const auto plainBuckets = classifyBySize(plainFreq, plainSizes);
  std::vector<uint32_t> classes;
  classes.reserve(cipherBuckets.size());
  for (const auto& [sizeClass, bucket] : cipherBuckets) {
    if (plainBuckets.contains(sizeClass)) classes.push_back(sizeClass);
  }
  std::sort(classes.begin(), classes.end());
  std::vector<InferredPair> pairs;
  for (const uint32_t sizeClass : classes) {
    const auto classPairs = legacy::freqAnalysis(cipherBuckets.at(sizeClass),
                                         plainBuckets.at(sizeClass), x);
    pairs.insert(pairs.end(), classPairs.begin(), classPairs.end());
  }
  return pairs;
}

inline AttackResult basicAttack(std::span<const ChunkRecord> cipher,
                                std::span<const ChunkRecord> plain,
                                bool sizeAware) {
  const FrequencyTables fc = countChunks(cipher, /*withNeighbors=*/false);
  const FrequencyTables fm = countChunks(plain, /*withNeighbors=*/false);
  const size_t all = std::max(fc.freq.size(), fm.freq.size());
  const std::vector<InferredPair> pairs =
      sizeAware
          ? legacy::freqAnalysisSized(fc.freq, fm.freq, all, fc.sizeOf, fm.sizeOf)
          : legacy::freqAnalysis(fc.freq, fm.freq, all);
  AttackResult result;
  result.inferred.reserve(pairs.size());
  for (const InferredPair& p : pairs)
    result.inferred.emplace(p.cipher, p.plain);
  return result;
}

inline std::vector<InferredPair> neighborAnalysis(
    const NeighborTable& cipherTable, const NeighborTable& plainTable,
    Fp cipherFp, Fp plainFp, size_t v, bool sizeAware,
    const SizeMap& cipherSizes, const SizeMap& plainSizes) {
  const auto cIt = cipherTable.find(cipherFp);
  const auto mIt = plainTable.find(plainFp);
  if (cIt == cipherTable.end() || mIt == plainTable.end()) return {};
  if (sizeAware) {
    return legacy::freqAnalysisSized(cIt->second, mIt->second, v, cipherSizes,
                             plainSizes);
  }
  return legacy::freqAnalysis(cIt->second, mIt->second, v);
}

inline AttackResult localityAttack(std::span<const ChunkRecord> cipher,
                                   std::span<const ChunkRecord> plain,
                                   const AttackConfig& config) {
  const FrequencyTables fc = countChunks(cipher, /*withNeighbors=*/true);
  const FrequencyTables fm = countChunks(plain, /*withNeighbors=*/true);

  AttackResult result;
  std::deque<InferredPair> g;

  if (config.mode == AttackMode::kCiphertextOnly) {
    const std::vector<InferredPair> seeds =
        config.sizeAware ? legacy::freqAnalysisSized(fc.freq, fm.freq, config.u,
                                             fc.sizeOf, fm.sizeOf)
                         : legacy::freqAnalysis(fc.freq, fm.freq, config.u);
    for (const InferredPair& p : seeds) g.push_back(p);
  } else {
    for (const InferredPair& p : config.leakedPairs) {
      if (!fc.freq.contains(p.cipher)) continue;
      result.inferred.emplace(p.cipher, p.plain);
      if (fm.freq.contains(p.plain)) g.push_back(p);
    }
  }
  for (const InferredPair& p : g) result.inferred.emplace(p.cipher, p.plain);

  while (!g.empty()) {
    const InferredPair current = g.front();
    g.pop_front();
    ++result.processedPairs;

    for (const bool leftSide : {true, false}) {
      const NeighborTable& cipherTable = leftSide ? fc.left : fc.right;
      const NeighborTable& plainTable = leftSide ? fm.left : fm.right;
      const std::vector<InferredPair> found = neighborAnalysis(
          cipherTable, plainTable, current.cipher, current.plain, config.v,
          config.sizeAware, fc.sizeOf, fm.sizeOf);
      for (const InferredPair& p : found) {
        if (result.inferred.emplace(p.cipher, p.plain).second) {
          if (g.size() <= config.w) g.push_back(p);
        }
      }
    }
  }
  return result;
}

}  // namespace freqdedup::legacy
