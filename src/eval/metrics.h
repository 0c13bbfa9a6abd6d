#ifndef OPENEA_EVAL_METRICS_H_
#define OPENEA_EVAL_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/align/inference.h"
#include "src/align/similarity.h"
#include "src/core/task.h"
#include "src/kg/types.h"

namespace openea::eval {

/// Ranking metrics used throughout the paper: Hits@1, Hits@5, mean rank,
/// and mean reciprocal rank. Hits@1 equals precision for 1-to-1 alignment.
struct RankingMetrics {
  double hits1 = 0.0;
  double hits5 = 0.0;
  double mr = 0.0;
  double mrr = 0.0;
};

/// Extracts the rows of `emb` given by `ids` into a dense matrix.
math::Matrix GatherRows(const math::Matrix& emb,
                        const std::vector<kg::EntityId>& ids);

/// Ranks every test pair's true counterpart among the candidate set formed
/// by all right-side test entities (the paper's evaluation protocol) and
/// aggregates Hits@1/Hits@5/MR/MRR. Set `csls` to rank under CSLS-adjusted
/// similarities.
///
/// Tie convention: candidates whose similarity exactly equals the true
/// pair's count half a rank each (mid-rank), i.e.
/// rank = 1 + #strictly-better + #ties / 2. The optimistic convention
/// (ties never advance the rank) would report Hits@1 = 1 on collapsed
/// embeddings where every candidate is equidistant; mid-rank instead
/// yields the expected rank of a uniformly random tie-break, so degenerate
/// models score at chance level. Ranks (and MR) are therefore half-integral
/// in the presence of ties.
RankingMetrics EvaluateRanking(const core::AlignmentModel& model,
                               const kg::Alignment& test_pairs,
                               align::DistanceMetric metric,
                               bool csls = false);

/// Candidate-limited ranking through a CandidateSource: `source` is
/// (re)indexed over the right-side test embeddings (metric/CSLS come from
/// its config) and each pair's true counterpart is ranked within the
/// top-`candidate_k` list it returns — rank = 1 + #strictly-better +
/// #ties/2 among the returned candidates. A pair whose true counterpart
/// the source never surfaced (a recall miss, counted under
/// `eval/candidate_misses`) pessimistically scores rank = #targets + 1.
/// With the exact source and candidate_k >= the pair count this matches
/// the exhaustive overload; with a sublinear source it quantifies what the
/// recall loss costs in Hits@k/MR/MRR terms.
RankingMetrics EvaluateRanking(const core::AlignmentModel& model,
                               const kg::Alignment& test_pairs,
                               align::CandidateSource& source,
                               size_t candidate_k);

/// Distractor-aware candidate-limited ranking (the PR-9 robustness
/// protocol): the candidate pool is the right-side test embeddings plus the
/// `dangling2` distractor rows appended after them. Distractors compete in
/// the ranking — one that outranks the true counterpart pushes its rank
/// down — but the pessimistic rank of a candidate miss stays
/// test_pairs.size() + 1, the *matchable* pool size: a recall miss must not
/// be punished beyond last place among candidates that could have been the
/// answer, no matter how many dangling distractors inflate the indexed
/// pool. Pinned by the dangling+candidate-limited fixture in
/// tests/candidate_source_test.cc.
RankingMetrics EvaluateRanking(const core::AlignmentModel& model,
                               const kg::Alignment& test_pairs,
                               const std::vector<kg::EntityId>& dangling2,
                               align::CandidateSource& source,
                               size_t candidate_k);

/// Out-of-core ranking: streams the right-side test embeddings into a
/// shard-banked on-disk table at `shard_path` (src/math/sharded_table.h)
/// and ranks over its banks — async prefetch, at most `max_resident_banks`
/// banks mapped (0 = unlimited). The same body as
/// `EvaluateRanking(model, test_pairs, metric)` over N banks instead of
/// one, so bit-identical to it at any thread count. The shard file is left
/// in place: it is a serve-loadable artifact (align-serve --checkpoint
/// accepts it directly).
RankingMetrics EvaluateRankingSharded(const core::AlignmentModel& model,
                                      const kg::Alignment& test_pairs,
                                      align::DistanceMetric metric,
                                      const std::string& shard_path,
                                      size_t rows_per_bank = 4096,
                                      size_t max_resident_banks = 0);

/// Convenience: validation Hits@1 (early-stopping criterion).
double Hits1(const core::AlignmentModel& model, const kg::Alignment& pairs,
             align::DistanceMetric metric);

/// Accuracy of a full 1-to-1 matching produced by `strategy` over the test
/// sub-similarity matrix (Table 6: Greedy / Greedy+CSLS / SM / SM+CSLS).
double MatchAccuracy(const core::AlignmentModel& model,
                     const kg::Alignment& test_pairs,
                     align::DistanceMetric metric,
                     align::InferenceStrategy strategy);

/// Returns, for every test pair index, whether `strategy` matched it
/// correctly. Used by the complementarity analysis (Figure 12).
std::vector<bool> CorrectlyMatched(const core::AlignmentModel& model,
                                   const kg::Alignment& test_pairs,
                                   align::DistanceMetric metric,
                                   align::InferenceStrategy strategy);

/// Precision / recall / F1 of a predicted alignment against a reference
/// (conventional-approach protocol, Table 7).
struct PrfMetrics {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
};

PrfMetrics ComparePairs(const kg::Alignment& predicted,
                        const kg::Alignment& reference);

/// Abstention-aware evaluation for the robustness workload (ROADMAP
/// "robustness"): top-1 inference with a similarity "no-match" threshold.
/// A query whose best candidate similarity is below the threshold abstains
/// (predicts "no counterpart"); otherwise it predicts the best candidate.
/// Scored over matchable *and* dangling queries:
///  * precision = correct predictions / predictions made;
///  * recall    = correct predictions / matchable queries — a prediction on
///    a dangling query is a false positive, an abstention on a matchable
///    query is a miss;
///  * f1        = harmonic mean (0 when either is 0);
///  * dangling_recall = correctly-abstained dangling queries / dangling
///    queries (correct-rejection rate).
/// All counts are exact integers accumulated in index order, so the derived
/// ratios are bit-identical at any thread count.
struct AbstentionMetrics {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  double abstain_rate = 0.0;
  double dangling_recall = 0.0;
  uint64_t queries = 0;
  uint64_t matchable = 0;
  uint64_t dangling = 0;
  uint64_t predictions = 0;
  uint64_t correct = 0;
};

struct AbstentionOptions {
  align::DistanceMetric metric = align::DistanceMetric::kCosine;
  bool csls = false;
  /// Minimum top-1 similarity required to predict instead of abstain.
  double threshold = 0.5;
};

/// One point of the predict-or-abstain operating curve.
struct AbstentionOperatingPoint {
  double threshold = 0.0;
  AbstentionMetrics metrics;
};

/// Matrix-level core: `truth[i]` is the target row holding query i's true
/// counterpart, or -1 when query i is dangling (no counterpart exists in
/// `targets`). `targets` may contain extra distractor rows no truth points
/// at (dangling right-side entities stay in the candidate pool).
AbstentionMetrics EvaluateAbstention(const math::Matrix& queries,
                                     const math::Matrix& targets,
                                     const std::vector<int>& truth,
                                     const AbstentionOptions& options);

/// Model-level convenience mirroring the ranking protocol: queries are the
/// left test entities plus the left dangling entities; the candidate pool is
/// the right test entities plus the right dangling entities (distractors).
AbstentionMetrics EvaluateAbstention(const core::AlignmentModel& model,
                                     const kg::Alignment& test_pairs,
                                     const std::vector<kg::EntityId>& dangling1,
                                     const std::vector<kg::EntityId>& dangling2,
                                     const AbstentionOptions& options);

/// Threshold sweep over the same predict-or-abstain task: computes top-1
/// similarities once, then scores every threshold, reporting the operating
/// curve (one point per threshold, in input order).
std::vector<AbstentionOperatingPoint> SweepAbstentionThresholds(
    const core::AlignmentModel& model, const kg::Alignment& test_pairs,
    const std::vector<kg::EntityId>& dangling1,
    const std::vector<kg::EntityId>& dangling2,
    const AbstentionOptions& options, const std::vector<double>& thresholds);

/// Mean and sample standard deviation over fold results.
struct MeanStd {
  double mean = 0.0;
  double std = 0.0;
};

MeanStd Aggregate(const std::vector<double>& values);

}  // namespace openea::eval

#endif  // OPENEA_EVAL_METRICS_H_
