#include "src/eval/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "src/align/topk.h"
#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/common/stopwatch.h"
#include "src/common/telemetry.h"
#include "src/common/trace.h"
#include "src/math/sharded_table.h"

namespace openea::eval {
namespace {

/// Gathers the (test-left, test-right) embedding pair for `model`.
std::pair<math::Matrix, math::Matrix> TestEmbeddings(
    const core::AlignmentModel& model, const kg::Alignment& pairs) {
  std::vector<kg::EntityId> lefts, rights;
  lefts.reserve(pairs.size());
  rights.reserve(pairs.size());
  for (const auto& p : pairs) {
    lefts.push_back(p.left);
    rights.push_back(p.right);
  }
  return {GatherRows(model.emb1, lefts), GatherRows(model.emb2, rights)};
}

/// Where EvaluateRankingSharded streams the right-side test rows.
struct ShardTarget {
  const std::string& path;
  size_t rows_per_bank;
  size_t max_resident_banks;
};

/// Writes the right-side test rows straight to a shard file, so peak memory
/// for the target side is one bank, not N * dim; the file that remains is a
/// serve-loadable artifact.
std::shared_ptr<math::ShardedEmbeddingTable> WriteTestTargets(
    const core::AlignmentModel& model, const kg::Alignment& test_pairs,
    const ShardTarget& shard) {
  math::ShardedTableOptions shard_opts;
  shard_opts.rows_per_bank = shard.rows_per_bank;
  auto writer = math::ShardedTableWriter::Create(
      shard.path, test_pairs.size(), model.emb2.cols(), shard_opts);
  OPENEA_CHECK(writer.ok()) << writer.status().ToString();
  for (const auto& p : test_pairs) {
    OPENEA_CHECK_LT(static_cast<size_t>(p.right), model.emb2.rows());
    const Status append = (*writer)->AppendRow(model.emb2.Row(p.right));
    OPENEA_CHECK(append.ok()) << append.ToString();
  }
  const Status finalized = (*writer)->Finalize();
  OPENEA_CHECK(finalized.ok()) << finalized.ToString();
  math::ShardedEmbeddingTable::OpenOptions open_opts;
  open_opts.max_resident_banks = shard.max_resident_banks;
  auto table = math::ShardedEmbeddingTable::Open(shard.path, open_opts);
  OPENEA_CHECK(table.ok()) << table.status().ToString();
  return *std::move(table);
}

/// The one body of EvaluateRanking and EvaluateRankingSharded. Ranking
/// needs, per pair, only the true counterpart's similarity and the exact
/// greater/tie counts against it: the streaming engine produces those in
/// O(N) memory (no list kept, k = 0), with cell values bit-identical to the
/// dense SimilarityMatrix (+ ApplyCsls) path. The right-side rows are
/// gathered in RAM (`shard` null) or written to a shard file and scanned
/// bank by bank; StreamingTopK runs the same code over one bank or N, so
/// both rank identically.
RankingMetrics RankTestPairs(const core::AlignmentModel& model,
                             const kg::Alignment& test_pairs,
                             align::DistanceMetric metric, bool csls,
                             const ShardTarget* shard) {
  RankingMetrics metrics;
  if (test_pairs.empty()) return metrics;
  telemetry::ScopedSpan eval_span(shard != nullptr ? "eval_ranking_sharded"
                                                   : "eval_ranking");
  align::TopKResult topk;
  {
    telemetry::ScopedSpan span("similarity");
    std::vector<kg::EntityId> lefts, rights;
    lefts.reserve(test_pairs.size());
    rights.reserve(test_pairs.size());
    for (const auto& p : test_pairs) {
      lefts.push_back(p.left);
      rights.push_back(p.right);
    }
    std::shared_ptr<math::ShardedEmbeddingTable> table;
    if (shard != nullptr) table = WriteTestTargets(model, test_pairs, *shard);
    const math::Matrix src = GatherRows(model.emb1, lefts);
    const math::Matrix tgt =
        shard != nullptr ? math::Matrix() : GatherRows(model.emb2, rights);
    align::TopKOptions options;
    options.k = 0;
    options.metric = metric;
    options.csls = csls;
    options.true_cols.resize(test_pairs.size());
    for (size_t i = 0; i < test_pairs.size(); ++i) {
      options.true_cols[i] = static_cast<int>(i);
    }
    topk = align::StreamingTopK(
        src, table != nullptr ? math::RowBanks(*table) : math::RowBanks(tgt),
        options);
  }
  telemetry::ScopedSpan rank_span("rank_kernel");
  Stopwatch rank_watch;
  telemetry::IncrCounter("eval/ranking_calls");
  if (shard != nullptr) telemetry::IncrCounter("eval/sharded_evals");
  telemetry::IncrCounter("eval/test_pairs", test_pairs.size());
  telemetry::IncrCounter("eval/candidates",
                         test_pairs.size() * test_pairs.size());
  if (trace::Enabled()) {
    trace::Counter("eval/candidates", static_cast<double>(test_pairs.size() *
                                                          test_pairs.size()));
  }
  // Per-pair mid-rank (see EvaluateRanking's docs: tied candidates count
  // half a rank each), reduced in order with a fixed grain, so the metrics
  // are bit-identical at any thread count.
  struct Accum {
    double hits1 = 0, hits5 = 0, mr = 0, mrr = 0;
  };
  const Accum total = ParallelReduceOrdered(
      0, test_pairs.size(), 64, Accum{},
      [&](size_t begin, size_t end) {
        Accum acc;
        for (size_t i = begin; i < end; ++i) {
          const double rank = 1.0 + static_cast<double>(topk.num_greater[i]) +
                              0.5 * static_cast<double>(topk.num_ties[i]);
          if (rank <= 1.0) acc.hits1 += 1;
          if (rank <= 5.0) acc.hits5 += 1;
          acc.mr += rank;
          acc.mrr += 1.0 / rank;
        }
        return acc;
      },
      [](Accum acc, Accum part) {
        acc.hits1 += part.hits1;
        acc.hits5 += part.hits5;
        acc.mr += part.mr;
        acc.mrr += part.mrr;
        return acc;
      });
  const double n = static_cast<double>(test_pairs.size());
  metrics.hits1 = total.hits1 / n;
  metrics.hits5 = total.hits5 / n;
  metrics.mr = total.mr / n;
  metrics.mrr = total.mrr / n;
  if (telemetry::Enabled()) {
    telemetry::Observe("eval/rank_kernel_ms", rank_watch.ElapsedMillis());
  }
  return metrics;
}

}  // namespace

math::Matrix GatherRows(const math::Matrix& emb,
                        const std::vector<kg::EntityId>& ids) {
  math::Matrix out(ids.size(), emb.cols());
  ParallelFor(0, ids.size(), 0, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      OPENEA_CHECK_LT(static_cast<size_t>(ids[i]), emb.rows());
      const auto src = emb.Row(ids[i]);
      std::copy(src.begin(), src.end(), out.Row(i).begin());
    }
  });
  return out;
}

RankingMetrics EvaluateRanking(const core::AlignmentModel& model,
                               const kg::Alignment& test_pairs,
                               align::DistanceMetric metric, bool csls) {
  return RankTestPairs(model, test_pairs, metric, csls, nullptr);
}

RankingMetrics EvaluateRanking(const core::AlignmentModel& model,
                               const kg::Alignment& test_pairs,
                               align::CandidateSource& source,
                               size_t candidate_k) {
  return EvaluateRanking(model, test_pairs, std::vector<kg::EntityId>(),
                         source, candidate_k);
}

RankingMetrics EvaluateRanking(const core::AlignmentModel& model,
                               const kg::Alignment& test_pairs,
                               const std::vector<kg::EntityId>& dangling2,
                               align::CandidateSource& source,
                               size_t candidate_k) {
  RankingMetrics metrics;
  if (test_pairs.empty()) return metrics;
  OPENEA_CHECK_GT(candidate_k, 0u);
  telemetry::ScopedSpan eval_span("eval_ranking_candidates");
  align::TopKResult topk;
  {
    telemetry::ScopedSpan span("similarity");
    // Candidate pool: the right-side test embeddings, then the dangling
    // distractor rows. Distractors compete in the ranking (columns
    // >= test_pairs.size() can out-rank the true counterpart) but are never
    // anyone's answer.
    std::vector<kg::EntityId> lefts, pool_ids;
    lefts.reserve(test_pairs.size());
    pool_ids.reserve(test_pairs.size() + dangling2.size());
    for (const auto& p : test_pairs) {
      lefts.push_back(p.left);
      pool_ids.push_back(p.right);
    }
    pool_ids.insert(pool_ids.end(), dangling2.begin(), dangling2.end());
    const math::Matrix src = GatherRows(model.emb1, lefts);
    const math::Matrix tgt = GatherRows(model.emb2, pool_ids);
    OPENEA_CHECK(source.Index(tgt).ok());
    topk = source.TopK(src, candidate_k);
  }
  telemetry::IncrCounter("eval/ranking_calls");
  telemetry::IncrCounter("eval/test_pairs", test_pairs.size());

  struct Accum {
    double hits1 = 0, hits5 = 0, mr = 0, mrr = 0;
    uint64_t misses = 0;
  };
  // Pessimistic rank for a candidate miss: one past the *matchable* pool
  // (the test pairs), NOT the dangling-inflated pool the source indexed.
  // Distractor rows can push real ranks down by out-scoring the true
  // counterpart, but a recall miss must not be punished beyond last place
  // among candidates that could have been the answer — otherwise adding
  // distractors would silently deflate MR/MRR through the miss penalty
  // rather than through the ranking itself.
  const double miss_rank = static_cast<double>(test_pairs.size()) + 1.0;
  constexpr size_t kGrain = 64;
  const Accum total = ParallelReduceOrdered(
      0, test_pairs.size(), kGrain, Accum{},
      [&](size_t begin, size_t end) {
        Accum acc;
        for (size_t i = begin; i < end; ++i) {
          // Recover greater/tie counts from the returned (sorted) list; the
          // true counterpart of pair i is target column i.
          const auto row = topk.Row(i);
          double rank = miss_rank;
          for (size_t t = 0; t < row.size(); ++t) {
            if (row[t].index != static_cast<int>(i)) continue;
            size_t greater = 0, ties = 0;
            for (const auto& e : row) {
              if (e.index < 0 || e.index == static_cast<int>(i)) continue;
              if (e.value > row[t].value) ++greater;
              else if (e.value == row[t].value) ++ties;
            }
            rank = 1.0 + static_cast<double>(greater) +
                   0.5 * static_cast<double>(ties);
            break;
          }
          if (rank == miss_rank) ++acc.misses;
          if (rank <= 1.0) acc.hits1 += 1;
          if (rank <= 5.0) acc.hits5 += 1;
          acc.mr += rank;
          acc.mrr += 1.0 / rank;
        }
        return acc;
      },
      [](Accum acc, Accum part) {
        acc.hits1 += part.hits1;
        acc.hits5 += part.hits5;
        acc.mr += part.mr;
        acc.mrr += part.mrr;
        acc.misses += part.misses;
        return acc;
      });
  if (total.misses > 0) {
    telemetry::IncrCounter("eval/candidate_misses", total.misses);
  }
  const double n = static_cast<double>(test_pairs.size());
  metrics.hits1 = total.hits1 / n;
  metrics.hits5 = total.hits5 / n;
  metrics.mr = total.mr / n;
  metrics.mrr = total.mrr / n;
  return metrics;
}

RankingMetrics EvaluateRankingSharded(const core::AlignmentModel& model,
                                      const kg::Alignment& test_pairs,
                                      align::DistanceMetric metric,
                                      const std::string& shard_path,
                                      size_t rows_per_bank,
                                      size_t max_resident_banks) {
  const ShardTarget shard{shard_path, rows_per_bank, max_resident_banks};
  return RankTestPairs(model, test_pairs, metric, /*csls=*/false, &shard);
}

double Hits1(const core::AlignmentModel& model, const kg::Alignment& pairs,
             align::DistanceMetric metric) {
  return EvaluateRanking(model, pairs, metric).hits1;
}

std::vector<bool> CorrectlyMatched(const core::AlignmentModel& model,
                                   const kg::Alignment& test_pairs,
                                   align::DistanceMetric metric,
                                   align::InferenceStrategy strategy) {
  std::vector<bool> correct(test_pairs.size(), false);
  if (test_pairs.empty()) return correct;
  // Routes through the unified CandidateSource inference path (exact
  // source): greedy(+CSLS) stays at O(N*k) memory, stable marriage /
  // Kuhn-Munkres materialize the dense matrix.
  const auto [src, tgt] = TestEmbeddings(model, test_pairs);
  align::CandidateSourceConfig config;
  config.metric = metric;
  config.csls = strategy == align::InferenceStrategy::kGreedyCsls;
  const std::unique_ptr<align::CandidateSource> source =
      align::CreateCandidateSourceOrDie(config);
  OPENEA_CHECK(source->Index(tgt).ok());
  const std::vector<int> match =
      align::InferAlignment(*source, src, strategy);
  // Byte buffer rather than vector<bool>: adjacent bits share a byte, so
  // parallel writes to distinct indices of vector<bool> would race.
  std::vector<uint8_t> flags(test_pairs.size(), 0);
  ParallelFor(0, test_pairs.size(), 0, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      flags[i] = match[i] == static_cast<int>(i) ? 1 : 0;
    }
  });
  correct.assign(flags.begin(), flags.end());
  return correct;
}

double MatchAccuracy(const core::AlignmentModel& model,
                     const kg::Alignment& test_pairs,
                     align::DistanceMetric metric,
                     align::InferenceStrategy strategy) {
  const auto correct = CorrectlyMatched(model, test_pairs, metric, strategy);
  if (correct.empty()) return 0.0;
  size_t hits = 0;
  for (bool c : correct) {
    if (c) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(correct.size());
}

PrfMetrics ComparePairs(const kg::Alignment& predicted,
                        const kg::Alignment& reference) {
  PrfMetrics out;
  if (predicted.empty() || reference.empty()) return out;
  // Pack via zero-extended uint32_t halves: sign-extending the right id
  // (EntityId is int32_t and kInvalidId is negative) corrupts the upper 32
  // bits, so distinct pairs could collide and inflate precision.
  const auto pair_key = [](const kg::AlignmentPair& p) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(p.left)) << 32) |
           static_cast<uint64_t>(static_cast<uint32_t>(p.right));
  };
  std::unordered_set<uint64_t> ref_set;
  ref_set.reserve(reference.size() * 2);
  for (const auto& p : reference) ref_set.insert(pair_key(p));
  size_t correct = 0;
  for (const auto& p : predicted) {
    if (ref_set.count(pair_key(p)) > 0) ++correct;
  }
  out.precision = static_cast<double>(correct) /
                  static_cast<double>(predicted.size());
  out.recall = static_cast<double>(correct) /
               static_cast<double>(reference.size());
  out.f1 = (out.precision + out.recall) > 0
               ? 2 * out.precision * out.recall /
                     (out.precision + out.recall)
               : 0.0;
  return out;
}

namespace {

/// Per-query top-1 candidate (index -1 when no finite candidate exists).
struct Top1 {
  std::vector<int> index;
  std::vector<float> value;
};

Top1 ComputeTop1(const math::Matrix& queries, const math::Matrix& targets,
                 const AbstentionOptions& options) {
  Top1 top1;
  top1.index.assign(queries.rows(), -1);
  top1.value.assign(queries.rows(),
                    -std::numeric_limits<float>::infinity());
  if (queries.rows() == 0 || targets.rows() == 0) return top1;
  align::TopKOptions topk_options;
  topk_options.k = 1;
  topk_options.metric = options.metric;
  topk_options.csls = options.csls;
  const align::TopKResult topk =
      align::StreamingTopK(queries, targets, topk_options);
  for (size_t i = 0; i < queries.rows(); ++i) {
    top1.index[i] = topk.BestIndex(i);
    top1.value[i] = topk.Row(i)[0].value;
  }
  return top1;
}

AbstentionMetrics ScoreAbstention(const Top1& top1,
                                  const std::vector<int>& truth,
                                  double threshold) {
  AbstentionMetrics out;
  out.queries = truth.size();
  if (truth.empty()) return out;
  // Integer counts in a serial index-order scan: trivially bit-identical at
  // any thread count, and cheap next to the similarity pass above.
  uint64_t abstained_dangling = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    const bool is_dangling = truth[i] < 0;
    if (is_dangling) ++out.dangling;
    else ++out.matchable;
    const bool predicts = top1.index[i] >= 0 &&
                          static_cast<double>(top1.value[i]) >= threshold;
    if (!predicts) {
      if (is_dangling) ++abstained_dangling;
      continue;
    }
    ++out.predictions;
    if (!is_dangling && top1.index[i] == truth[i]) ++out.correct;
  }
  const auto ratio = [](uint64_t num, uint64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
  };
  out.precision = ratio(out.correct, out.predictions);
  out.recall = ratio(out.correct, out.matchable);
  out.f1 = (out.precision + out.recall) > 0
               ? 2 * out.precision * out.recall /
                     (out.precision + out.recall)
               : 0.0;
  out.abstain_rate = ratio(out.queries - out.predictions, out.queries);
  out.dangling_recall = ratio(abstained_dangling, out.dangling);
  return out;
}

/// Assembles the model-level query/target matrices and truth vector: test
/// lefts then dangling lefts as queries; test rights then dangling rights
/// as the candidate pool (the latter are pure distractors).
void BuildAbstentionTask(const core::AlignmentModel& model,
                         const kg::Alignment& test_pairs,
                         const std::vector<kg::EntityId>& dangling1,
                         const std::vector<kg::EntityId>& dangling2,
                         math::Matrix* queries, math::Matrix* targets,
                         std::vector<int>* truth) {
  std::vector<kg::EntityId> lefts, rights;
  lefts.reserve(test_pairs.size() + dangling1.size());
  rights.reserve(test_pairs.size() + dangling2.size());
  truth->clear();
  truth->reserve(test_pairs.size() + dangling1.size());
  for (size_t i = 0; i < test_pairs.size(); ++i) {
    lefts.push_back(test_pairs[i].left);
    rights.push_back(test_pairs[i].right);
    truth->push_back(static_cast<int>(i));
  }
  for (kg::EntityId e : dangling1) {
    lefts.push_back(e);
    truth->push_back(-1);
  }
  for (kg::EntityId e : dangling2) rights.push_back(e);
  *queries = GatherRows(model.emb1, lefts);
  *targets = GatherRows(model.emb2, rights);
}

}  // namespace

AbstentionMetrics EvaluateAbstention(const math::Matrix& queries,
                                     const math::Matrix& targets,
                                     const std::vector<int>& truth,
                                     const AbstentionOptions& options) {
  OPENEA_CHECK_EQ(truth.size(), queries.rows());
  telemetry::ScopedSpan span("eval_abstention");
  telemetry::IncrCounter("eval/abstention_calls");
  telemetry::IncrCounter("eval/abstention_queries", truth.size());
  return ScoreAbstention(ComputeTop1(queries, targets, options), truth,
                         options.threshold);
}

AbstentionMetrics EvaluateAbstention(const core::AlignmentModel& model,
                                     const kg::Alignment& test_pairs,
                                     const std::vector<kg::EntityId>& dangling1,
                                     const std::vector<kg::EntityId>& dangling2,
                                     const AbstentionOptions& options) {
  math::Matrix queries, targets;
  std::vector<int> truth;
  BuildAbstentionTask(model, test_pairs, dangling1, dangling2, &queries,
                      &targets, &truth);
  return EvaluateAbstention(queries, targets, truth, options);
}

std::vector<AbstentionOperatingPoint> SweepAbstentionThresholds(
    const core::AlignmentModel& model, const kg::Alignment& test_pairs,
    const std::vector<kg::EntityId>& dangling1,
    const std::vector<kg::EntityId>& dangling2,
    const AbstentionOptions& options, const std::vector<double>& thresholds) {
  telemetry::ScopedSpan span("eval_abstention_sweep");
  math::Matrix queries, targets;
  std::vector<int> truth;
  BuildAbstentionTask(model, test_pairs, dangling1, dangling2, &queries,
                      &targets, &truth);
  // One similarity pass; each operating point is just a re-count.
  const Top1 top1 = ComputeTop1(queries, targets, options);
  std::vector<AbstentionOperatingPoint> curve;
  curve.reserve(thresholds.size());
  for (double t : thresholds) {
    curve.push_back({t, ScoreAbstention(top1, truth, t)});
  }
  return curve;
}

MeanStd Aggregate(const std::vector<double>& values) {
  MeanStd out;
  if (values.empty()) return out;
  double sum = 0;
  for (double v : values) sum += v;
  out.mean = sum / static_cast<double>(values.size());
  if (values.size() > 1) {
    double sq = 0;
    for (double v : values) sq += (v - out.mean) * (v - out.mean);
    out.std = std::sqrt(sq / static_cast<double>(values.size() - 1));
  }
  return out;
}

}  // namespace openea::eval
