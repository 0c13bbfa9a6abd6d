#include "src/align/inference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <queue>
#include <vector>

#include "src/align/similarity.h"
#include "src/align/topk.h"
#include "src/common/logging.h"
#include "src/common/telemetry.h"

namespace openea::align {

const char* InferenceStrategyName(InferenceStrategy strategy) {
  switch (strategy) {
    case InferenceStrategy::kGreedy: return "greedy";
    case InferenceStrategy::kGreedyCsls: return "greedy+csls";
    case InferenceStrategy::kStableMarriage: return "stable-marriage";
    case InferenceStrategy::kStableMarriageCsls: return "stable-marriage+csls";
    case InferenceStrategy::kKuhnMunkres: return "kuhn-munkres";
  }
  return "?";
}

std::vector<int> GreedyMatch(const math::Matrix& sim) {
  std::vector<int> match(sim.rows(), -1);
  uint64_t nan_rows = 0;
  for (size_t i = 0; i < sim.rows(); ++i) {
    const auto row = sim.Row(i);
    // Explicit scan instead of std::max_element: NaN comparisons make the
    // standard algorithm's winner arbitrary, so NaN entries are skipped
    // deterministically and flagged. First (lowest-column) maximum wins.
    int best = -1;
    float best_value = 0.0f;
    bool saw_nan = false;
    for (size_t j = 0; j < row.size(); ++j) {
      if (std::isnan(row[j])) {
        saw_nan = true;
        continue;
      }
      if (best < 0 || row[j] > best_value) {
        best = static_cast<int>(j);
        best_value = row[j];
      }
    }
    if (saw_nan) ++nan_rows;
    match[i] = best;
  }
  if (nan_rows > 0) telemetry::IncrCounter("align/nan_rows", nan_rows);
  return match;
}

std::vector<int> StableMarriage(const math::Matrix& sim) {
  const size_t rows = sim.rows();
  const size_t cols = sim.cols();
  std::vector<int> row_match(rows, -1);
  if (rows == 0 || cols == 0) return row_match;

  // Preference lists of sources, best-first.
  std::vector<std::vector<int>> prefs(rows);
  for (size_t i = 0; i < rows; ++i) {
    prefs[i].resize(cols);
    for (size_t j = 0; j < cols; ++j) prefs[i][j] = static_cast<int>(j);
    const auto row = sim.Row(i);
    // Tie-break by column index: std::sort leaves the relative order of
    // equal similarities unspecified, which made the matching depend on the
    // libstdc++ sort implementation for tied inputs.
    std::sort(prefs[i].begin(), prefs[i].end(), [&](int a, int b) {
      if (row[a] != row[b]) return row[a] > row[b];
      return a < b;
    });
  }
  std::vector<size_t> next_proposal(rows, 0);
  std::vector<int> col_match(cols, -1);
  std::queue<int> free_rows;
  for (size_t i = 0; i < rows; ++i) free_rows.push(static_cast<int>(i));

  while (!free_rows.empty()) {
    const int i = free_rows.front();
    free_rows.pop();
    if (next_proposal[i] >= cols) continue;  // Exhausted; stays unmatched.
    const int j = prefs[i][next_proposal[i]++];
    const int current = col_match[j];
    if (current == -1) {
      col_match[j] = i;
      row_match[i] = j;
    } else if (sim.At(i, j) > sim.At(current, j)) {
      col_match[j] = i;
      row_match[i] = j;
      row_match[current] = -1;
      free_rows.push(current);
    } else {
      free_rows.push(i);
    }
  }
  return row_match;
}

std::vector<int> KuhnMunkres(const math::Matrix& sim) {
  const size_t rows = sim.rows();
  const size_t cols = sim.cols();
  std::vector<int> match(rows, -1);
  if (rows == 0 || cols == 0) return match;

  // Convert to a minimization problem on an n x m matrix with n <= m by
  // padding columns; the classical potentials algorithm (O(n^2 m)).
  float max_sim = sim.Data()[0];
  for (float v : sim.Data()) max_sim = std::max(max_sim, v);
  const size_t n = rows;
  const size_t m = std::max(rows, cols);
  auto cost = [&](size_t i, size_t j) -> double {
    if (j >= cols) return static_cast<double>(max_sim) + 1.0;  // Padding.
    return static_cast<double>(max_sim) - static_cast<double>(sim.At(i, j));
  };

  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> u(n + 1, 0.0), v(m + 1, 0.0);
  std::vector<int> p(m + 1, 0);      // p[j]: row matched to column j (1-based).
  std::vector<int> way(m + 1, 0);
  for (size_t i = 1; i <= n; ++i) {
    p[0] = static_cast<int>(i);
    size_t j0 = 0;
    std::vector<double> minv(m + 1, kInf);
    std::vector<char> used(m + 1, false);
    do {
      used[j0] = true;
      const size_t i0 = static_cast<size_t>(p[j0]);
      double delta = kInf;
      size_t j1 = 0;
      for (size_t j = 1; j <= m; ++j) {
        if (used[j]) continue;
        const double cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = static_cast<int>(j0);
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (size_t j = 0; j <= m; ++j) {
        if (used[j]) {
          u[static_cast<size_t>(p[j])] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      const size_t j1 = static_cast<size_t>(way[j0]);
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }
  for (size_t j = 1; j <= m; ++j) {
    if (p[j] > 0 && j <= cols) match[static_cast<size_t>(p[j]) - 1] =
        static_cast<int>(j) - 1;
  }
  return match;
}

std::vector<int> InferAlignment(const math::Matrix& sim,
                                InferenceStrategy strategy, int csls_k) {
  telemetry::ScopedSpan span("infer_alignment");
  telemetry::IncrCounter("align/inference_calls");
  switch (strategy) {
    case InferenceStrategy::kGreedy:
      return GreedyMatch(sim);
    case InferenceStrategy::kGreedyCsls: {
      math::Matrix adjusted = sim;
      ApplyCsls(adjusted, csls_k);
      return GreedyMatch(adjusted);
    }
    case InferenceStrategy::kStableMarriage:
      return StableMarriage(sim);
    case InferenceStrategy::kStableMarriageCsls: {
      math::Matrix adjusted = sim;
      ApplyCsls(adjusted, csls_k);
      return StableMarriage(adjusted);
    }
    case InferenceStrategy::kKuhnMunkres:
      return KuhnMunkres(sim);
  }
  return GreedyMatch(sim);
}

std::vector<int> InferAlignment(const CandidateSource& source,
                                const math::Matrix& queries,
                                InferenceStrategy strategy, int csls_k) {
  telemetry::ScopedSpan span("infer_alignment");
  telemetry::IncrCounter("align/inference_calls");
  switch (strategy) {
    case InferenceStrategy::kGreedy:
    case InferenceStrategy::kGreedyCsls: {
      const bool want_csls = strategy == InferenceStrategy::kGreedyCsls;
      OPENEA_CHECK_EQ(source.csls(), want_csls)
          << "InferAlignment(" << InferenceStrategyName(strategy)
          << ") needs a source with csls=" << want_csls
          << "; the ranking function lives in the CandidateSource config";
      const TopKResult top1 = source.TopK(queries, 1);
      std::vector<int> match(queries.rows(), -1);
      for (size_t i = 0; i < queries.rows(); ++i) match[i] = top1.BestIndex(i);
      return match;
    }
    default:
      break;
  }
  // Stable marriage needs full preference lists and Kuhn-Munkres the full
  // cost structure; both materialize the dense similarity matrix against
  // the source's indexed targets — exact regardless of the source kind.
  math::Matrix sim = SimilarityMatrix(queries, source.targets(),
                                      source.metric());
  switch (strategy) {
    case InferenceStrategy::kStableMarriage:
      return StableMarriage(sim);
    case InferenceStrategy::kStableMarriageCsls:
      ApplyCsls(sim, csls_k);
      return StableMarriage(sim);
    case InferenceStrategy::kKuhnMunkres:
      return KuhnMunkres(sim);
    default:
      return GreedyMatch(sim);
  }
}

}  // namespace openea::align
