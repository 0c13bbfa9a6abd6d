#ifndef OPENEA_ALIGN_INFERENCE_H_
#define OPENEA_ALIGN_INFERENCE_H_

#include <vector>

#include "src/align/candidate_source.h"
#include "src/align/similarity.h"
#include "src/math/matrix.h"

namespace openea::align {

/// Alignment inference strategies (paper Sect. 2.2.2 and Table 6).
enum class InferenceStrategy {
  kGreedy,            // Independent nearest neighbour per source entity.
  kGreedyCsls,        // Greedy over CSLS-adjusted similarities.
  kStableMarriage,    // Gale–Shapley stable matching.
  kStableMarriageCsls,
  kKuhnMunkres,       // Collective optimum (maximum-weight matching).
};

const char* InferenceStrategyName(InferenceStrategy strategy);

/// Greedy search: match[i] = argmax_j sim(i, j); ties break toward the
/// lower column. NaN entries are skipped deterministically (and counted
/// under the `align/nan_rows` telemetry counter per affected row); a row
/// whose entries are all NaN — the only case that returns -1 — would
/// otherwise get an arbitrary winner from `std::max_element`.
std::vector<int> GreedyMatch(const math::Matrix& sim);

/// Gale–Shapley stable marriage over the similarity matrix (sources
/// propose). Preference ties break toward the lower column, so the
/// matching is deterministic even with tied similarities. When
/// rows != cols, surplus parties stay unmatched (-1).
std::vector<int> StableMarriage(const math::Matrix& sim);

/// Kuhn–Munkres (Hungarian) maximum-weight bipartite matching; O(n^3).
/// When rows > cols, surplus rows get -1.
std::vector<int> KuhnMunkres(const math::Matrix& sim);

/// Dispatches to the strategy; CSLS variants copy and adjust `sim`.
std::vector<int> InferAlignment(const math::Matrix& sim,
                                InferenceStrategy strategy, int csls_k = 10);

/// Candidate-source overload — the unified inference path (DESIGN.md,
/// "Candidate generation & serving"). Greedy strategies take the source's
/// top-1 per query, so the scanned work is whatever the source's index
/// does (exhaustive, LSH, or IVF); the greedy CSLS variant requires a
/// source configured with csls=true (and vice versa — the ranking function
/// lives in the source, so a mismatch is CHECK-rejected). Stable marriage
/// and Kuhn-Munkres need the full preference structure and materialize
/// `SimilarityMatrix(queries, source.targets())` — exact regardless of the
/// source kind. `source` must be Index()ed.
std::vector<int> InferAlignment(const CandidateSource& source,
                                const math::Matrix& queries,
                                InferenceStrategy strategy, int csls_k = 10);

}  // namespace openea::align

#endif  // OPENEA_ALIGN_INFERENCE_H_
