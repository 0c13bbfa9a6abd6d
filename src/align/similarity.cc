#include "src/align/similarity.h"

#include <algorithm>
#include <vector>

#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/common/telemetry.h"
#include "src/math/kernels.h"
#include "src/math/vec.h"

namespace openea::align {

const char* DistanceMetricName(DistanceMetric metric) {
  switch (metric) {
    case DistanceMetric::kCosine: return "cosine";
    case DistanceMetric::kEuclidean: return "euclidean";
    case DistanceMetric::kManhattan: return "manhattan";
    case DistanceMetric::kInner: return "inner";
  }
  return "?";
}

namespace detail {

void MetricRowBlock(DistanceMetric metric, const float* a, float na,
                    const float* b, size_t ldb, const float* tgt_norms,
                    float* out, size_t count, size_t n) {
  MetricRowScan(metric, a, na, b, ldb, tgt_norms, out, count, n, {}, nullptr);
}

float MetricCell(DistanceMetric metric, const float* a, float na,
                 const float* b, float nb, size_t n) {
  float out = 0.0f;
  MetricRowBlock(metric, a, na, b, n, &nb, &out, 1, n);
  return out;
}

StatusOr<std::vector<float>> RowNorms(const math::RowBanks& rows) {
  std::vector<float> norms(rows.rows());
  const size_t dim = rows.dim();
  // A matrix splits by the pool's auto grain, a table bank into 64-row
  // chunks: the job layouts the bench_diff gates pin (parallel/chunks).
  const size_t grain = rows.table() != nullptr ? 64 : 0;
  const Status status =
      rows.ForEachBank([&](const math::RowBanks::Bank& bank) {
        ParallelFor(0, bank.rows(), grain, [&](size_t begin, size_t end) {
          for (size_t r = begin; r < end; ++r) {
            norms[bank.first_row() + r] = math::L2Norm(std::span<const float>(
                bank.values() + r * bank.stride(), dim));
          }
        });
      });
  if (!status.ok()) return status;
  return norms;
}

void MetricRowScan(DistanceMetric metric, const float* a, float na,
                   const float* b, size_t ldb, const float* tgt_norms,
                   float* out, size_t count, size_t n,
                   math::kernels::ScanEpilogue scan,
                   math::kernels::ScanCounts* counts) {
  using math::kernels::CellFinish;
  const math::kernels::KernelTable& kt = math::kernels::Active();
  switch (metric) {
    case DistanceMetric::kCosine:
      // Same guard and final expression as math::CosineSimilarity (the
      // epilogue's kCosine finish); the norms are pure per-row functions,
      // so caching them is bitwise equivalent to recomputing per pair.
      kt.dot_rows(a, b, ldb, out, count, n);
      scan.finish = CellFinish::kCosine;
      scan.na = na;
      scan.tgt_norms = tgt_norms;
      break;
    case DistanceMetric::kEuclidean:
      kt.squared_l2_distance_rows(a, b, ldb, out, count, n);
      scan.finish = CellFinish::kNegSqrt;
      break;
    case DistanceMetric::kManhattan:
      kt.l1_distance_rows(a, b, ldb, out, count, n);
      scan.finish = CellFinish::kNegate;
      break;
    case DistanceMetric::kInner:
      kt.dot_rows(a, b, ldb, out, count, n);
      scan.finish = CellFinish::kNone;
      break;
  }
  kt.scan_epilogue(scan, out, count, counts);
}

}  // namespace detail

math::Matrix SimilarityMatrix(const math::Matrix& src,
                              const math::Matrix& tgt,
                              DistanceMetric metric) {
  OPENEA_CHECK_EQ(src.cols(), tgt.cols());
  telemetry::ScopedSpan span("similarity_matrix");
  telemetry::IncrCounter("align/sim_cells", src.rows() * tgt.rows());
  math::Matrix sim(src.rows(), tgt.rows());
  std::vector<float> tgt_norms;
  std::vector<float> src_norms;
  if (metric == DistanceMetric::kCosine) {
    src_norms = detail::RowNorms(src).value();
    tgt_norms = detail::RowNorms(tgt).value();
  }
  // Row-parallel: every similarity cell is written exactly once, so the
  // result is bit-identical at any thread count. Each output row is one
  // batched call over all targets.
  ParallelFor(0, src.rows(), 0, [&](size_t row_begin, size_t row_end) {
    for (size_t i = row_begin; i < row_end; ++i) {
      detail::MetricRowBlock(metric, src.Row(i).data(),
                             src_norms.empty() ? 0.0f : src_norms[i],
                             tgt.rows() > 0 ? tgt.Row(0).data() : nullptr,
                             tgt.cols(),
                             tgt_norms.empty() ? nullptr : tgt_norms.data(),
                             sim.Row(i).data(), tgt.rows(), tgt.cols());
    }
  });
  return sim;
}

void ApplyCsls(math::Matrix& sim, int k) {
  const size_t rows = sim.rows();
  const size_t cols = sim.cols();
  if (rows == 0 || cols == 0) return;
  // Per-direction neighbourhood clamp: psi_src ranks row i's `cols`
  // candidate targets, psi_tgt ranks column j's `rows` candidate sources.
  // A single clamp to max(rows, cols) lets an asymmetric matrix silently
  // use a different effective k per direction than requested.
  const size_t kk_src = std::min<size_t>(std::max(k, 1), cols);
  const size_t kk_tgt = std::min<size_t>(std::max(k, 1), rows);

  auto mean_topk = [&](std::vector<float>& values, size_t limit) -> float {
    const size_t take = std::min(limit, values.size());
    std::partial_sort(values.begin(),
                      values.begin() + static_cast<long>(take), values.end(),
                      std::greater<float>());
    float sum = 0.0f;
    for (size_t i = 0; i < take; ++i) sum += values[i];
    return take > 0 ? sum / static_cast<float>(take) : 0.0f;
  };

  // Both neighbourhood means and the final rescaling are per-row /
  // per-column independent, so each phase parallelizes with bit-identical
  // results at any thread count.
  // psi_t(s): mean similarity of source row s to its k nearest targets.
  std::vector<float> psi_src(rows, 0.0f);
  ParallelFor(0, rows, 0, [&](size_t begin, size_t end) {
    std::vector<float> row;
    for (size_t i = begin; i < end; ++i) {
      row.assign(sim.Row(i).begin(), sim.Row(i).end());
      psi_src[i] = mean_topk(row, kk_src);
    }
  });
  // psi_s(t): mean similarity of target column t to its k nearest sources.
  std::vector<float> psi_tgt(cols, 0.0f);
  ParallelFor(0, cols, 0, [&](size_t begin, size_t end) {
    std::vector<float> column(rows);
    for (size_t j = begin; j < end; ++j) {
      for (size_t i = 0; i < rows; ++i) column[i] = sim.At(i, j);
      psi_tgt[j] = mean_topk(column, kk_tgt);
    }
  });
  ParallelFor(0, rows, 0, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      auto row = sim.Row(i);
      for (size_t j = 0; j < cols; ++j) {
        row[j] = 2.0f * row[j] - psi_src[i] - psi_tgt[j];
      }
    }
  });
}

}  // namespace openea::align
