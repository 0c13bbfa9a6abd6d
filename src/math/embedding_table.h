#ifndef OPENEA_MATH_EMBEDDING_TABLE_H_
#define OPENEA_MATH_EMBEDDING_TABLE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/math/aligned.h"

namespace openea::math {

/// Embedding initialization schemes offered by the embedding module
/// (paper Sect. 4, "Embedding initialization": unit / uniform / orthogonal /
/// Xavier).
enum class InitScheme {
  kXavier,
  kUniform,
  kUnit,        // Uniform then row-normalized to unit L2 norm.
  kOrthogonal,  // Gaussian then Gram-Schmidt across the first min(n,d) rows.
};

/// A learnable table of row embeddings with per-row AdaGrad state. This is
/// the workhorse of every shallow model: training performs sparse updates
/// that touch only the rows of the sampled triples, as in the canonical C++
/// KG-embedding implementations.
class EmbeddingTable {
 public:
  EmbeddingTable() : num_rows_(0), dim_(0) {}

  /// Creates a (num_rows x dim) table initialized per `scheme`.
  EmbeddingTable(size_t num_rows, size_t dim, InitScheme scheme, Rng& rng);

  size_t num_rows() const { return num_rows_; }
  size_t dim() const { return dim_; }

  std::span<float> Row(size_t r) {
    return std::span<float>(data_.data() + r * dim_, dim_);
  }
  std::span<const float> Row(size_t r) const {
    return std::span<const float>(data_.data() + r * dim_, dim_);
  }

  std::span<const float> Data() const { return std::span<const float>(data_); }
  std::span<float> MutableData() { return std::span<float>(data_); }

  /// Applies one AdaGrad step to row `r`: row -= lr * g / sqrt(acc + eps),
  /// where acc accumulates squared gradients per coordinate.
  void ApplyGradient(size_t r, std::span<const float> grad, float lr);

  /// The `eps` of ApplyGradient.
  static constexpr float kAdagradEps = 1e-8f;

  /// Row `r` of the AdaGrad accumulator, for fused updates that apply
  /// ApplyGradient's step themselves (kernels::translation_update).
  std::span<float> AdagradRow(size_t r) {
    return std::span<float>(adagrad_.data() + r * dim_, dim_);
  }

  /// Plain SGD step without adaptive scaling.
  void ApplySgd(size_t r, std::span<const float> grad, float lr);

  /// Normalizes row `r` to unit L2 norm.
  void NormalizeRow(size_t r);

  /// Normalizes every row to unit L2 norm.
  void NormalizeAllRows();

  /// Rescales row `r` so its L2 norm is at most 1 (TransE-style constraint).
  void ClampRowNorm(size_t r);

  /// Returns a deep copy with fresh (zeroed) AdaGrad state.
  EmbeddingTable CloneValues() const;

  /// Raw AdaGrad accumulator (same shape as Data()), exposed for
  /// checkpointing: a resumed optimizer must continue from the saved
  /// accumulators or the post-resume step sizes diverge from an
  /// uninterrupted run.
  std::span<const float> AdagradData() const {
    return std::span<const float>(adagrad_);
  }

  /// Reconstructs a table from checkpointed parts. `data` and `adagrad`
  /// must each hold num_rows * dim floats.
  static EmbeddingTable FromParts(size_t num_rows, size_t dim,
                                  std::vector<float> data,
                                  std::vector<float> adagrad);

 private:
  size_t num_rows_;
  size_t dim_;
  // 64-byte-aligned so the dispatched SIMD kernels see aligned rows whenever
  // dim is a multiple of 16 floats (the default dim=32 qualifies).
  AlignedVector data_;
  AlignedVector adagrad_;  // Same shape as data_.
};

}  // namespace openea::math

#endif  // OPENEA_MATH_EMBEDDING_TABLE_H_
