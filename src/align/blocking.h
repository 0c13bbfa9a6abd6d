#ifndef OPENEA_ALIGN_BLOCKING_H_
#define OPENEA_ALIGN_BLOCKING_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/math/matrix.h"

namespace openea::align {

/// Random-hyperplane LSH blocker for cosine similarity — the blocking
/// technique the paper points to for large-scale entity alignment
/// (Sect. 7.2, "locality-sensitive hashing may be useful to narrow the
/// candidate space"). Each of `num_tables` hash tables assigns every
/// vector a `bits`-bit signature from sign projections; query candidates
/// are the union of same-bucket entries over the tables.
class LshBlocker {
 public:
  LshBlocker(size_t dim, int bits, int num_tables, uint64_t seed);

  /// Indexes the target embedding rows.
  void Index(const math::Matrix& targets);

  /// Returns the candidate target ids for `query`, deduplicated and sorted
  /// ascending — a deterministic function of (seed, indexed targets, query),
  /// independent of bucket iteration order. May be empty when no bucket
  /// matches.
  std::vector<int> Candidates(std::span<const float> query) const;

  size_t dim() const { return dim_; }

 private:
  uint64_t Signature(std::span<const float> vec, int table) const;

  size_t dim_;
  int bits_;
  int num_tables_;
  // Hyperplanes: [table][bit] -> dim floats, stored flat.
  std::vector<float> planes_;
  std::vector<std::unordered_map<uint64_t, std::vector<int>>> tables_;
};

}  // namespace openea::align

#endif  // OPENEA_ALIGN_BLOCKING_H_
