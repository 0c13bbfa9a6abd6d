#include "src/align/blocking.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/math/vec.h"

namespace openea::align {

LshBlocker::LshBlocker(size_t dim, int bits, int num_tables, uint64_t seed)
    : dim_(dim), bits_(bits), num_tables_(num_tables) {
  OPENEA_CHECK_GT(dim, 0u);
  OPENEA_CHECK_GT(bits, 0);
  OPENEA_CHECK_LE(bits, 63);
  OPENEA_CHECK_GT(num_tables, 0);
  Rng rng(seed);
  planes_.resize(static_cast<size_t>(num_tables) * bits * dim);
  for (float& v : planes_) v = static_cast<float>(rng.NextGaussian());
  tables_.resize(num_tables);
}

uint64_t LshBlocker::Signature(std::span<const float> vec, int table) const {
  uint64_t sig = 0;
  const float* base =
      planes_.data() + static_cast<size_t>(table) * bits_ * dim_;
  for (int b = 0; b < bits_; ++b) {
    const float* plane = base + static_cast<size_t>(b) * dim_;
    float dot = 0.0f;
    for (size_t i = 0; i < dim_; ++i) dot += plane[i] * vec[i];
    if (dot >= 0.0f) sig |= uint64_t{1} << b;
  }
  return sig;
}

void LshBlocker::Index(const math::Matrix& targets) {
  OPENEA_CHECK_EQ(targets.cols(), dim_);
  for (auto& table : tables_) table.clear();
  for (size_t row = 0; row < targets.rows(); ++row) {
    for (int t = 0; t < num_tables_; ++t) {
      tables_[t][Signature(targets.Row(row), t)].push_back(
          static_cast<int>(row));
    }
  }
}

std::vector<int> LshBlocker::Candidates(std::span<const float> query) const {
  // Sorted + deduplicated, NOT hash-set iteration order: LshSource breaks
  // score ties by candidate order, so the union must be a deterministic
  // function of the buckets.
  std::vector<int> out;
  for (int t = 0; t < num_tables_; ++t) {
    auto it = tables_[t].find(Signature(query, t));
    if (it == tables_[t].end()) continue;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace openea::align
