#include "core/defense.h"

#include <algorithm>

#include "analysis/stream_index.h"
#include "common/hash.h"
#include "pipeline/thread_pool.h"

namespace freqdedup {

namespace {

Fp cipherFpMle(Fp plainFp, int fpBits) {
  ByteVec msg = toBytes("mle");
  putU64(msg, plainFp);
  return fpFromDigest(sha256(msg), fpBits);
}

Fp cipherFpMinHash(Fp minFp, Fp plainFp, int fpBits) {
  // Section 7.1: concatenate the segment's minimum fingerprint with the chunk
  // fingerprint, hash, and truncate to the trace's fingerprint width.
  ByteVec msg = toBytes("mh");
  putU64(msg, minFp);
  putU64(msg, plainFp);
  return fpFromDigest(sha256(msg), fpBits);
}

}  // namespace

EncryptedTrace mleEncryptTrace(std::span<const ChunkRecord> plain, int fpBits,
                               uint32_t threads) {
  // MLE is one-to-one per unique plaintext fingerprint: intern the stream,
  // derive each unique chunk's ciphertext fingerprint in parallel, then emit
  // the stream through the dense column.
  const analysis::ChunkStreamIndex stream =
      analysis::ChunkStreamIndex::build(plain);
  std::vector<Fp> cipherFps(stream.uniqueCount());
  parallelFor(threads, cipherFps.size(), [&](size_t begin, size_t end) {
    for (size_t id = begin; id < end; ++id) {
      cipherFps[id] =
          cipherFpMle(stream.fpOf(static_cast<analysis::ChunkId>(id)), fpBits);
    }
  });

  EncryptedTrace out;
  out.records.reserve(plain.size());
  out.truth.reserve(stream.uniqueCount());
  for (size_t i = 0; i < plain.size(); ++i) {
    const analysis::ChunkId id = stream.ids()[i];
    out.records.push_back({cipherFps[id], plain[i].size});
    out.truth.emplace(cipherFps[id], plain[i].fp);
  }
  return out;
}

std::vector<ChunkRecord> scrambleTrace(std::span<const ChunkRecord> records,
                                       const SegmentParams& params,
                                       Rng& rng) {
  const std::vector<Segment> segments = segmentRecords(records, params);
  std::vector<ChunkRecord> out;
  out.reserve(records.size());
  for (const size_t i : scrambleOrder(records.size(), segments, rng))
    out.push_back(records[i]);
  return out;
}

EncryptedTrace minHashEncryptTrace(std::span<const ChunkRecord> plain,
                                   const DefenseConfig& config) {
  // Segmentation is computed on the original order; scrambling permutes only
  // within segments, so the segment boundaries and minima are unchanged
  // (Section 6.2: "to be compatible with MinHash encryption, scrambling
  // works on a per-segment basis"), and output position p lies in the
  // segment whose range holds p.
  const std::vector<Segment> segments = segmentRecords(plain, config.segment);
  std::vector<size_t> source;  // output position -> plain record index
  if (config.scramble) {
    Rng rng(config.scrambleSeed);
    source = scrambleOrder(plain.size(), segments, rng);
  }
  const auto sourceOf = [&source](size_t pos) {
    return source.empty() ? pos : source[pos];
  };
  std::vector<Fp> minFpAt(plain.size());  // output position -> segment min
  for (const Segment& seg : segments) {
    std::fill(minFpAt.begin() + static_cast<ptrdiff_t>(seg.begin),
              minFpAt.begin() + static_cast<ptrdiff_t>(seg.end),
              segmentMinFingerprint(plain, seg));
  }

  // Parallel pass: the per-chunk SHA-256 re-keying, which dominates the
  // cost, is independent per output position.
  std::vector<Fp> cipherFps(plain.size());
  parallelFor(config.threads, plain.size(), [&](size_t begin, size_t end) {
    for (size_t pos = begin; pos < end; ++pos) {
      cipherFps[pos] = cipherFpMinHash(minFpAt[pos], plain[sourceOf(pos)].fp,
                                       config.fpBits);
    }
  });

  EncryptedTrace out;
  out.records.reserve(plain.size());
  out.truth.reserve(plain.size());
  for (size_t pos = 0; pos < plain.size(); ++pos) {
    const ChunkRecord& src = plain[sourceOf(pos)];
    out.records.push_back({cipherFps[pos], src.size});
    out.truth.emplace(cipherFps[pos], src.fp);
  }
  return out;
}

}  // namespace freqdedup
