#include "src/math/embedding_table.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/math/kernels.h"
#include "src/math/vec.h"

namespace openea::math {

EmbeddingTable::EmbeddingTable(size_t num_rows, size_t dim, InitScheme scheme,
                               Rng& rng)
    : num_rows_(num_rows),
      dim_(dim),
      data_(num_rows * dim),
      adagrad_(num_rows * dim, 0.0f) {
  OPENEA_CHECK_GT(dim, 0u);
  switch (scheme) {
    case InitScheme::kXavier: {
      const float scale = std::sqrt(6.0f / static_cast<float>(dim + dim));
      for (float& v : data_) v = rng.NextFloat(-scale, scale);
      break;
    }
    case InitScheme::kUniform: {
      const float scale = 6.0f / std::sqrt(static_cast<float>(dim));
      for (float& v : data_) v = rng.NextFloat(-scale, scale);
      break;
    }
    case InitScheme::kUnit: {
      const float scale = 6.0f / std::sqrt(static_cast<float>(dim));
      for (float& v : data_) v = rng.NextFloat(-scale, scale);
      NormalizeAllRows();
      break;
    }
    case InitScheme::kOrthogonal: {
      for (float& v : data_) v = static_cast<float>(rng.NextGaussian());
      // Gram–Schmidt over the first min(num_rows, dim) rows; remaining rows
      // are left Gaussian and normalized (a full orthonormal basis cannot
      // exceed the dimension).
      const size_t k = std::min(num_rows_, dim_);
      for (size_t i = 0; i < k; ++i) {
        auto ri = Row(i);
        for (size_t j = 0; j < i; ++j) {
          const auto rj = Row(j);
          const float proj = Dot(ri, rj);
          Axpy(-proj, rj, ri);
        }
        NormalizeL2(ri);
      }
      for (size_t i = k; i < num_rows_; ++i) NormalizeRow(i);
      break;
    }
  }
}

void EmbeddingTable::ApplyGradient(size_t r, std::span<const float> grad,
                                   float lr) {
  kernels::Active().adagrad_update(data_.data() + r * dim_,
                                   adagrad_.data() + r * dim_, grad.data(),
                                   dim_, lr, kAdagradEps);
}

void EmbeddingTable::ApplySgd(size_t r, std::span<const float> grad,
                              float lr) {
  kernels::Active().sgd_update(data_.data() + r * dim_, grad.data(), dim_, lr);
}

void EmbeddingTable::NormalizeRow(size_t r) { NormalizeL2(Row(r)); }

void EmbeddingTable::NormalizeAllRows() {
  for (size_t r = 0; r < num_rows_; ++r) NormalizeRow(r);
}

void EmbeddingTable::ClampRowNorm(size_t r) {
  auto row = Row(r);
  const float norm = L2Norm(row);
  if (norm > 1.0f) Scale(1.0f / norm, row);
}

EmbeddingTable EmbeddingTable::FromParts(size_t num_rows, size_t dim,
                                         std::vector<float> data,
                                         std::vector<float> adagrad) {
  OPENEA_CHECK_EQ(data.size(), num_rows * dim);
  OPENEA_CHECK_EQ(adagrad.size(), num_rows * dim);
  EmbeddingTable table;
  table.num_rows_ = num_rows;
  table.dim_ = dim;
  // Checkpoints hand over plain vectors; copy into the aligned storage.
  table.data_.assign(data.begin(), data.end());
  table.adagrad_.assign(adagrad.begin(), adagrad.end());
  return table;
}

EmbeddingTable EmbeddingTable::CloneValues() const {
  EmbeddingTable copy;
  copy.num_rows_ = num_rows_;
  copy.dim_ = dim_;
  copy.data_ = data_;
  copy.adagrad_.assign(data_.size(), 0.0f);
  return copy;
}

}  // namespace openea::math
