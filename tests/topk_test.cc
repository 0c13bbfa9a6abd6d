// Equivalence suite for the streaming top-k similarity engine
// (src/align/topk.h), registered under the `topk` ctest label (the
// sanitize presets run it too). The engine's contract is *bit*-identity
// with the dense SimilarityMatrix (+ ApplyCsls) path on NaN-free inputs,
// for all four metrics, with and without CSLS, at 1 and 8 threads — so
// every comparison below is exact (EXPECT_EQ on floats/doubles), never
// approximate.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/align/inference.h"
#include "src/align/similarity.h"
#include "src/align/topk.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/eval/metrics.h"
#include "src/math/kernels.h"
#include "src/math/kernels_internal.h"
#include "src/math/sharded_table.h"

namespace openea::align {
namespace {

math::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  math::Matrix m(rows, cols);
  m.FillUniform(rng, 1.0f);
  return m;
}

/// Copies row `from` of `src` over row `to` of `dst`.
void CopyRowTo(const math::Matrix& src, size_t from, math::Matrix& dst,
               size_t to) {
  std::copy(src.Row(from).begin(), src.Row(from).end(), dst.Row(to).begin());
}

/// Restores the serial default when a test body returns or fails.
struct ThreadGuard {
  explicit ThreadGuard(int threads) { SetThreads(threads); }
  ~ThreadGuard() { SetThreads(1); }
};

/// Dense reference: the exact path the streaming engine replaces.
math::Matrix DenseSim(const math::Matrix& src, const math::Matrix& tgt,
                      DistanceMetric metric, bool csls, int csls_k) {
  math::Matrix sim = SimilarityMatrix(src, tgt, metric);
  if (csls) ApplyCsls(sim, csls_k);
  return sim;
}

/// Dense top-k of one row under the engine's selection order
/// (value desc, index asc).
std::vector<TopKEntry> DenseRowTopK(std::span<const float> row, size_t k) {
  std::vector<TopKEntry> entries;
  entries.reserve(row.size());
  for (size_t j = 0; j < row.size(); ++j) {
    entries.push_back({row[j], static_cast<int>(j)});
  }
  std::sort(entries.begin(), entries.end(),
            [](const TopKEntry& a, const TopKEntry& b) {
              if (a.value != b.value) return a.value > b.value;
              return a.index < b.index;
            });
  entries.resize(std::min(k, entries.size()), TopKEntry{});
  return entries;
}

const DistanceMetric kAllMetrics[] = {
    DistanceMetric::kCosine, DistanceMetric::kEuclidean,
    DistanceMetric::kManhattan, DistanceMetric::kInner};

TEST(StreamingTopKTest, BitIdenticalToDenseAllMetricsCslsThreads) {
  // Asymmetric (rows != cols) and not a multiple of any block size, with a
  // small col_block to exercise tile boundaries.
  const size_t rows = 37, cols = 53, dim = 16, k = 7;
  const math::Matrix src = RandomMatrix(rows, dim, 11);
  const math::Matrix tgt = RandomMatrix(cols, dim, 22);
  for (DistanceMetric metric : kAllMetrics) {
    for (bool csls : {false, true}) {
      const math::Matrix sim = DenseSim(src, tgt, metric, csls, 10);
      for (int threads : {1, 8}) {
        ThreadGuard guard(threads);
        TopKOptions options;
        options.k = k;
        options.metric = metric;
        options.csls = csls;
        options.col_block = 16;
        options.true_cols.resize(rows);
        for (size_t i = 0; i < rows; ++i) {
          options.true_cols[i] = static_cast<int>(i % cols);
        }
        const TopKResult result = StreamingTopK(src, tgt, options);
        ASSERT_EQ(result.rows, rows);
        ASSERT_EQ(result.k, k);
        EXPECT_EQ(result.nan_cells, 0u);
        for (size_t i = 0; i < rows; ++i) {
          const auto dense_row = sim.Row(i);
          const auto dense_topk = DenseRowTopK(dense_row, k);
          const auto streamed = result.Row(i);
          for (size_t t = 0; t < k; ++t) {
            EXPECT_EQ(streamed[t].value, dense_topk[t].value)
                << DistanceMetricName(metric) << " csls=" << csls
                << " threads=" << threads << " row=" << i << " t=" << t;
            EXPECT_EQ(streamed[t].index, dense_topk[t].index)
                << DistanceMetricName(metric) << " csls=" << csls
                << " threads=" << threads << " row=" << i << " t=" << t;
          }
          // True-column similarity and exact greater/tie counts.
          const int tc = options.true_cols[i];
          const float true_sim = dense_row[static_cast<size_t>(tc)];
          EXPECT_EQ(result.true_sim[i], true_sim);
          uint32_t greater = 0, ties = 0;
          for (size_t j = 0; j < cols; ++j) {
            if (static_cast<int>(j) == tc) continue;
            if (dense_row[j] > true_sim) {
              ++greater;
            } else if (dense_row[j] == true_sim) {
              ++ties;
            }
          }
          EXPECT_EQ(result.num_greater[i], greater);
          EXPECT_EQ(result.num_ties[i], ties);
        }
      }
    }
  }
}

TEST(StreamingTopKTest, GreedyBitIdenticalToDensePath) {
  const math::Matrix src = RandomMatrix(41, 24, 5);
  const math::Matrix tgt = RandomMatrix(29, 24, 6);
  for (DistanceMetric metric : kAllMetrics) {
    for (bool csls : {false, true}) {
      math::Matrix sim = DenseSim(src, tgt, metric, csls, 10);
      const std::vector<int> dense_match = GreedyMatch(sim);
      for (int threads : {1, 8}) {
        ThreadGuard guard(threads);
        EXPECT_EQ(StreamingGreedyMatch(src, tgt, metric, csls, 10),
                  dense_match)
            << DistanceMetricName(metric) << " csls=" << csls
            << " threads=" << threads;
      }
    }
  }
}

TEST(StreamingTopKTest, InferAlignmentOverloadMatchesDenseAllStrategies) {
  const math::Matrix src = RandomMatrix(20, 16, 7);
  const math::Matrix tgt = RandomMatrix(20, 16, 8);
  const math::Matrix sim =
      SimilarityMatrix(src, tgt, DistanceMetric::kCosine);
  for (auto strategy :
       {InferenceStrategy::kGreedy, InferenceStrategy::kGreedyCsls,
        InferenceStrategy::kStableMarriage,
        InferenceStrategy::kStableMarriageCsls,
        InferenceStrategy::kKuhnMunkres}) {
    CandidateSourceConfig config;
    config.csls = strategy == InferenceStrategy::kGreedyCsls;
    auto source = CreateCandidateSourceOrDie(config);
    ASSERT_TRUE(source->Index(tgt).ok());
    EXPECT_EQ(InferAlignment(*source, src, strategy),
              InferAlignment(sim, strategy))
        << InferenceStrategyName(strategy);
  }
}

TEST(StreamingTopKTest, PadsRowsWhenFewerCandidatesThanK) {
  const math::Matrix src = RandomMatrix(4, 8, 3);
  const math::Matrix tgt = RandomMatrix(2, 8, 4);
  TopKOptions options;
  options.k = 5;
  const TopKResult result = StreamingTopK(src, tgt, options);
  for (size_t i = 0; i < 4; ++i) {
    const auto row = result.Row(i);
    EXPECT_GE(row[0].index, 0);
    EXPECT_GE(row[1].index, 0);
    for (size_t t = 2; t < 5; ++t) {
      EXPECT_EQ(row[t].index, -1);
      EXPECT_EQ(row[t].value, -std::numeric_limits<float>::infinity());
    }
  }
}

TEST(StreamingTopKTest, NanCellsAreSkippedDeterministically) {
  math::Matrix src = RandomMatrix(3, 4, 9);
  math::Matrix tgt = RandomMatrix(5, 4, 10);
  // Poison target row 2: every similarity against it is NaN.
  for (float& v : tgt.Row(2)) v = std::numeric_limits<float>::quiet_NaN();
  // Poison source row 1: all of its candidates are NaN.
  for (float& v : src.Row(1)) v = std::numeric_limits<float>::quiet_NaN();
  TopKOptions options;
  options.k = 5;
  options.metric = DistanceMetric::kEuclidean;
  const TopKResult result = StreamingTopK(src, tgt, options);
  // Rows 0 and 2 lose exactly the poisoned target; row 1 loses everything.
  EXPECT_EQ(result.nan_cells, 5u + 2u);
  EXPECT_EQ(result.BestIndex(1), -1);
  for (size_t i : {size_t{0}, size_t{2}}) {
    EXPECT_GE(result.BestIndex(i), 0);
    for (const TopKEntry& e : result.Row(i)) {
      EXPECT_NE(e.index, 2) << "row " << i << " kept a NaN candidate";
    }
  }
}

TEST(StreamingTopKTest, NanTrueColumnRanksLast) {
  math::Matrix src = RandomMatrix(2, 4, 13);
  const math::Matrix tgt = RandomMatrix(6, 4, 14);
  for (float& v : src.Row(0)) v = std::numeric_limits<float>::quiet_NaN();
  TopKOptions options;
  options.k = 0;
  options.metric = DistanceMetric::kInner;
  options.true_cols = {0, 1};
  const TopKResult result = StreamingTopK(src, tgt, options);
  EXPECT_TRUE(std::isnan(result.true_sim[0]));
  EXPECT_EQ(result.num_greater[0], 6u);  // Worst possible rank.
  EXPECT_EQ(result.num_ties[0], 0u);
  EXPECT_LT(result.num_greater[1], 6u);  // Clean row unaffected.
}

/// Replicates the dense evaluation path EvaluateRanking used before the
/// streaming engine: materialize the full test similarity matrix, apply
/// CSLS, mid-rank every pair, and accumulate in the same 64-row chunk
/// order.
eval::RankingMetrics DenseEvaluateRanking(const core::AlignmentModel& model,
                                          const kg::Alignment& pairs,
                                          DistanceMetric metric, bool csls) {
  std::vector<kg::EntityId> lefts, rights;
  for (const auto& p : pairs) {
    lefts.push_back(p.left);
    rights.push_back(p.right);
  }
  math::Matrix sim = SimilarityMatrix(eval::GatherRows(model.emb1, lefts),
                                      eval::GatherRows(model.emb2, rights),
                                      metric);
  if (csls) ApplyCsls(sim);
  const size_t n = pairs.size();
  double hits1 = 0, hits5 = 0, mr = 0, mrr = 0;
  for (size_t chunk = 0; chunk < n; chunk += 64) {
    double c_hits1 = 0, c_hits5 = 0, c_mr = 0, c_mrr = 0;
    for (size_t i = chunk; i < std::min(n, chunk + 64); ++i) {
      const auto row = sim.Row(i);
      const float true_sim = row[i];
      size_t greater = 0, ties = 0;
      for (size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        if (row[j] > true_sim) {
          ++greater;
        } else if (row[j] == true_sim) {
          ++ties;
        }
      }
      const double rank = 1.0 + static_cast<double>(greater) +
                          0.5 * static_cast<double>(ties);
      if (rank <= 1.0) c_hits1 += 1;
      if (rank <= 5.0) c_hits5 += 1;
      c_mr += rank;
      c_mrr += 1.0 / rank;
    }
    hits1 += c_hits1;
    hits5 += c_hits5;
    mr += c_mr;
    mrr += c_mrr;
  }
  eval::RankingMetrics metrics;
  metrics.hits1 = hits1 / static_cast<double>(n);
  metrics.hits5 = hits5 / static_cast<double>(n);
  metrics.mr = mr / static_cast<double>(n);
  metrics.mrr = mrr / static_cast<double>(n);
  return metrics;
}

TEST(StreamingTopKTest, EvaluateRankingBitIdenticalToDensePath) {
  const size_t n = 150, dim = 16;
  Rng rng(17);
  core::AlignmentModel model;
  model.emb1 = math::Matrix(n, dim);
  model.emb2 = math::Matrix(n, dim);
  model.emb1.FillUniform(rng, 1.0f);
  model.emb2.FillUniform(rng, 1.0f);
  // Half the pairs embed identically so hits1 is non-trivial.
  for (size_t i = 0; i < n / 2; ++i) {
    std::copy(model.emb1.Row(i).begin(), model.emb1.Row(i).end(),
              model.emb2.Row(i).begin());
  }
  kg::Alignment pairs;
  for (size_t i = 0; i < n; ++i) {
    pairs.push_back(
        {static_cast<kg::EntityId>(i), static_cast<kg::EntityId>(i)});
  }
  for (DistanceMetric metric : kAllMetrics) {
    for (bool csls : {false, true}) {
      const eval::RankingMetrics dense =
          DenseEvaluateRanking(model, pairs, metric, csls);
      for (int threads : {1, 8}) {
        ThreadGuard guard(threads);
        const eval::RankingMetrics streamed =
            eval::EvaluateRanking(model, pairs, metric, csls);
        EXPECT_EQ(streamed.hits1, dense.hits1)
            << DistanceMetricName(metric) << " csls=" << csls
            << " threads=" << threads;
        EXPECT_EQ(streamed.hits5, dense.hits5)
            << DistanceMetricName(metric) << " csls=" << csls
            << " threads=" << threads;
        EXPECT_EQ(streamed.mr, dense.mr)
            << DistanceMetricName(metric) << " csls=" << csls
            << " threads=" << threads;
        EXPECT_EQ(streamed.mrr, dense.mrr)
            << DistanceMetricName(metric) << " csls=" << csls
            << " threads=" << threads;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The scan epilogue (DESIGN.md, "Streaming top-k similarity"): top-k pruning
// against the k-th kept value, ties, NaN cells and true-column lanes. Every
// case compares StreamingTopK at 1 and 8 threads, in RAM and over banks
// whose sizes are not multiples of 8, with the dense path.
// ---------------------------------------------------------------------------

class ScanEpilogueTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    // The pid keeps concurrent runs of the suite (topk_tests and
    // topk_tests_scalar under ctest -j) out of each other's directories.
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("openea_topk_scan_") + info->name() + "_" +
            std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Checks the streaming and sharded scans of `options` against the dense
  /// similarity matrix: the same entries bit for bit (NaN cells skipped,
  /// short rows padded), the same NaN cell count, and exact greater/tie
  /// counts against the true column (a NaN true cell ranks last).
  void ExpectScansMatchDense(const math::Matrix& src, const math::Matrix& tgt,
                             const TopKOptions& options,
                             const std::string& label,
                             const std::vector<int>& thread_counts = {1, 8},
                             const std::vector<size_t>& bank_sizes = {5, 13}) {
    const math::Matrix sim =
        DenseSim(src, tgt, options.metric, options.csls, options.csls_k);
    const size_t cols = tgt.rows();
    uint64_t nan_cells = 0;
    for (float v : sim.Data()) nan_cells += std::isnan(v);
    auto check = [&](const TopKResult& got, const std::string& run) {
      const std::string where = label + " " + run;
      ASSERT_EQ(got.rows, src.rows()) << where;
      EXPECT_EQ(got.nan_cells, nan_cells) << where;
      for (size_t i = 0; i < src.rows(); ++i) {
        const auto row = sim.Row(i);
        std::vector<TopKEntry> want;
        for (size_t j = 0; j < cols; ++j) {
          if (!std::isnan(row[j])) want.push_back({row[j], static_cast<int>(j)});
        }
        std::sort(want.begin(), want.end(),
                  [](const TopKEntry& a, const TopKEntry& b) {
                    return detail::TopKBetter(a.value, a.index, b);
                  });
        want.resize(options.k, TopKEntry{});
        const auto entries = got.Row(i);
        for (size_t t = 0; t < options.k; ++t) {
          EXPECT_TRUE(SameFloat(entries[t].value, want[t].value))
              << where << " row=" << i << " t=" << t;
          EXPECT_EQ(entries[t].index, want[t].index)
              << where << " row=" << i << " t=" << t;
        }
        if (options.true_cols.empty()) continue;
        const size_t tc = static_cast<size_t>(options.true_cols[i]);
        const float true_sim = row[tc];
        uint32_t greater = 0, ties = 0;
        if (std::isnan(true_sim)) {
          greater = static_cast<uint32_t>(cols);
        } else {
          for (size_t j = 0; j < cols; ++j) {
            if (j == tc) continue;
            greater += row[j] > true_sim;
            ties += row[j] == true_sim;
          }
        }
        EXPECT_TRUE(SameFloat(got.true_sim[i], true_sim))
            << where << " row=" << i;
        EXPECT_EQ(got.num_greater[i], greater) << where << " row=" << i;
        EXPECT_EQ(got.num_ties[i], ties) << where << " row=" << i;
      }
    };
    for (int threads : thread_counts) {
      ThreadGuard guard(threads);
      check(StreamingTopK(src, tgt, options),
            "streaming threads=" + std::to_string(threads));
    }
    if (options.csls) return;  // CSLS needs the targets in one bank.
    for (size_t rows_per_bank : bank_sizes) {
      math::ShardedTableOptions shard_options;
      shard_options.rows_per_bank = rows_per_bank;
      const std::string path =
          (dir_ / ("tgt_" + std::to_string(rows_per_bank) + ".shard"))
              .string();
      ASSERT_TRUE(math::WriteShardedTable(path, tgt, shard_options).ok());
      auto banked = math::ShardedEmbeddingTable::Open(path);
      ASSERT_TRUE(banked.ok()) << banked.status().ToString();
      for (int threads : thread_counts) {
        ThreadGuard guard(threads);
        check(StreamingTopK(src, **banked, options),
              "sharded bank=" + std::to_string(rows_per_bank) +
                  " threads=" + std::to_string(threads));
      }
    }
  }

  static bool SameFloat(float a, float b) {
    return std::isnan(a) ? std::isnan(b)
                         : std::memcmp(&a, &b, sizeof(float)) == 0;
  }

  static void CopyRow(math::Matrix& m, size_t from, size_t to) {
    std::copy(m.Row(from).begin(), m.Row(from).end(), m.Row(to).begin());
  }

  std::filesystem::path dir_;
};

TEST_F(ScanEpilogueTest, TiesWithTheKthValueStraddleGroupAndTileBoundaries) {
  // Target columns 5..14 copy column 30, so every source row sees eleven
  // equal cells. Source row 0 is column 30 itself (cosine 1 everywhere in
  // the run, the top of the list) and row 1 a multiple of it: with k = 6
  // the list is columns 5..10, and the equal cells 11..14 and 30 — in the
  // same 8-lane group, past the col_block = 12 tile boundary and in a later
  // tile — tie the k-th value and must lose to the lower columns.
  const size_t rows = 6, cols = 45, dim = 16;
  math::Matrix src = RandomMatrix(rows, dim, 41);
  math::Matrix tgt = RandomMatrix(cols, dim, 42);
  for (size_t j = 5; j <= 14; ++j) CopyRow(tgt, 30, j);
  std::copy(tgt.Row(30).begin(), tgt.Row(30).end(), src.Row(0).begin());
  for (size_t d = 0; d < dim; ++d) src.Row(1)[d] = 2.0f * tgt.Row(30)[d];
  for (DistanceMetric metric : kAllMetrics) {
    for (bool csls : {false, true}) {
      TopKOptions options;
      options.k = 6;
      options.metric = metric;
      options.csls = csls;
      options.col_block = 12;
      options.true_cols = {9, 9, 9, 30, 0, 44};
      ExpectScansMatchDense(src, tgt, options,
                            std::string(DistanceMetricName(metric)) +
                                " csls=" + std::to_string(csls));
    }
  }
}

TEST_F(ScanEpilogueTest, NanCellsAreSkippedInEveryLanePosition) {
  // NaN target rows at the first and last lane of several groups and in the
  // padded last group (37 columns), a source row that is NaN throughout,
  // and true columns that are NaN.
  const size_t rows = 5, cols = 37, dim = 8;
  math::Matrix src = RandomMatrix(rows, dim, 51);
  math::Matrix tgt = RandomMatrix(cols, dim, 52);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (size_t j : {0u, 7u, 8u, 15u, 16u, 23u, 33u, 36u}) tgt.Row(j)[j % dim] = nan;
  for (float& v : src.Row(3)) v = nan;
  for (DistanceMetric metric : kAllMetrics) {
    TopKOptions options;
    options.k = 4;
    options.metric = metric;
    options.col_block = 16;
    options.true_cols = {7, 8, 9, 10, 36};
    ExpectScansMatchDense(src, tgt, options, DistanceMetricName(metric));
  }
}

TEST_F(ScanEpilogueTest, TrueColumnInEveryLanePosition) {
  // Source row i ranks against true column i, so the true column takes
  // every lane of every group; columns 8..23 copy columns 0..15, so each
  // true cell of rows 0..23 ties a cell in another group.
  const size_t n = 40, dim = 12;
  const math::Matrix src = RandomMatrix(n, dim, 61);
  math::Matrix tgt = RandomMatrix(n, dim, 62);
  for (size_t j = 0; j < 16; ++j) CopyRow(tgt, j, j + 8);
  for (DistanceMetric metric : kAllMetrics) {
    for (size_t col_block : {0u, 12u}) {
      TopKOptions options;
      options.k = 3;
      options.metric = metric;
      options.col_block = col_block;
      options.true_cols.resize(n);
      for (size_t i = 0; i < n; ++i) options.true_cols[i] = static_cast<int>(i);
      ExpectScansMatchDense(src, tgt, options,
                            std::string(DistanceMetricName(metric)) +
                                " col_block=" + std::to_string(col_block));
    }
  }
}

TEST_F(ScanEpilogueTest, ColumnCountsThatAreNotMultiplesOfEight) {
  // Short and ragged rows of cells (every tile ends in a padded group), an
  // odd row length, and more list slots than some rows have columns.
  const size_t rows = 9, dim = 5;
  const math::Matrix src = RandomMatrix(rows, dim, 71);
  for (size_t cols : {1u, 3u, 7u, 9u, 17u, 31u}) {
    const math::Matrix tgt = RandomMatrix(cols, dim, 72 + cols);
    for (DistanceMetric metric : kAllMetrics) {
      for (bool csls : {false, true}) {
        TopKOptions options;
        options.k = 4;
        options.metric = metric;
        options.csls = csls;
        options.true_cols.resize(rows);
        for (size_t i = 0; i < rows; ++i) {
          options.true_cols[i] = static_cast<int>((i * 5) % cols);
        }
        ExpectScansMatchDense(src, tgt, options,
                              std::string(DistanceMetricName(metric)) +
                                  " cols=" + std::to_string(cols) +
                                  " csls=" + std::to_string(csls));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Ranking by decision (DESIGN.md, "Streaming top-k similarity"): a cosine
// ranking scan (k = 0, no CSLS) counts greater and tied cells through the
// bound kernel `rank_cosine`, which computes exact cells only near each
// row's true cell. Every case checks the counts against the dense exact
// cells at 1, 2 and 4 threads, in RAM and over banks of 5, 8, 13, 16 and 17
// rows, and runs each body of the AVX2 table's kernel that this CPU has (8
// lanes; 16 with AVX-512F) by itself against the AVX2 exact scan.
// ---------------------------------------------------------------------------

/// Every cosine cell of row `a` (norm `na`) against `cols` targets at `b`
/// (norms `nb`), as `kt`'s exact scan computes them: dot_rows, then the
/// epilogue's kCosine finish.
std::vector<float> ExactCosineCells(const math::kernels::KernelTable& kt,
                                    const float* a, float na, const float* b,
                                    const float* nb, size_t cols,
                                    size_t dim) {
  std::vector<float> cells(cols);
  kt.dot_rows(a, b, dim, cells.data(), cols, dim);
  math::kernels::ScanEpilogue tile;
  tile.finish = math::kernels::CellFinish::kCosine;
  tile.na = na;
  tile.tgt_norms = nb;
  kt.scan_epilogue(tile, cells.data(), cols, nullptr);
  return cells;
}

/// The epilogue's NaN, greater and tie tallies of finished `cells` against
/// `true_val`, skipping `true_pos` (a position past the cells skips none).
math::kernels::ScanCounts ExactCounts(const math::kernels::KernelTable& kt,
                                      std::vector<float> cells,
                                      float true_val, size_t true_pos) {
  math::kernels::ScanEpilogue tile;
  tile.count_true = true;
  tile.true_val = true_val;
  tile.true_pos = true_pos;
  math::kernels::ScanCounts counts;
  kt.scan_epilogue(tile, cells.data(), cells.size(), &counts);
  return counts;
}

/// The bodies of the AVX2 table's `rank_cosine` that this CPU runs, by
/// their lane counts.
std::vector<std::pair<size_t, math::kernels::RankCosineFn>> RankBodies() {
  std::vector<std::pair<size_t, math::kernels::RankCosineFn>> bodies;
  for (size_t lanes : {size_t{8}, size_t{16}}) {
    if (auto body = math::kernels::RankCosineBodyForTesting(lanes)) {
      bodies.emplace_back(lanes, body);
    }
  }
  return bodies;
}

/// Runs `body` over a cosine ranking of `src` against `tgt` the way
/// StreamingTopK groups it: banks of `bank_rows` targets whose norms all lie
/// in the kernel's guard, and in each bank the rows inside the guard,
/// kRankGroup at a time. Checks every decided row's tallies against the
/// AVX2 backend's exact scan of the same bank.
void ExpectBodyMatchesExactScan(math::kernels::RankCosineFn body,
                                const math::Matrix& src,
                                const math::Matrix& tgt,
                                const std::vector<int>& true_cols,
                                size_t bank_rows, const std::string& label) {
  using namespace math::kernels;
  const KernelTable& kt = Table(Backend::kAvx2);
  const size_t rows = src.rows(), cols = tgt.rows(), dim = src.cols();
  auto in_guard = [](float norm) {
    return norm >= kRankMinNorm && norm <= kRankMaxNorm;
  };
  std::vector<float> na(rows), nb(cols), true_vals(rows);
  for (size_t j = 0; j < cols; ++j) {
    nb[j] = std::sqrt(kt.squared_l2(tgt.Row(j).data(), dim));
  }
  for (size_t i = 0; i < rows; ++i) {
    na[i] = std::sqrt(kt.squared_l2(src.Row(i).data(), dim));
    true_vals[i] = ExactCosineCells(kt, src.Row(i).data(), na[i],
                                    tgt.Row(0).data(), nb.data(), cols,
                                    dim)[static_cast<size_t>(true_cols[i])];
  }
  std::vector<float> scratch(kRankGroup * dim);
  for (size_t first = 0; first < cols; first += bank_rows) {
    const size_t bank = std::min(bank_rows, cols - first);
    if (!std::all_of(nb.begin() + static_cast<long>(first),
                     nb.begin() + static_cast<long>(first + bank), in_guard)) {
      continue;
    }
    const float* b = tgt.Row(first).data();
    std::vector<size_t> group;
    auto flush = [&] {
      if (group.empty()) return;
      const float* group_rows[kRankGroup];
      float norms[kRankGroup], trues[kRankGroup];
      size_t pos[kRankGroup];
      for (size_t g = 0; g < group.size(); ++g) {
        group_rows[g] = src.Row(group[g]).data();
        norms[g] = na[group[g]];
        trues[g] = true_vals[group[g]];
        pos[g] = static_cast<size_t>(true_cols[group[g]]) - first;
      }
      RankTile tile;
      tile.count = group.size();
      tile.rows = group_rows;
      tile.row_norms = norms;
      tile.true_vals = trues;
      tile.true_pos = pos;
      tile.b = b;
      tile.ldb = dim;
      tile.tgt_norms = nb.data() + first;
      tile.cols = bank;
      tile.n = dim;
      tile.scratch = scratch.data();
      ScanCounts got[kRankGroup];
      body(tile, got);
      for (size_t g = 0; g < group.size(); ++g) {
        const ScanCounts want = ExactCounts(
            kt,
            ExactCosineCells(kt, group_rows[g], norms[g], b, tile.tgt_norms,
                             bank, dim),
            trues[g], pos[g]);
        const std::string where = label + " bank_rows=" +
                                  std::to_string(bank_rows) + " first=" +
                                  std::to_string(first) +
                                  " row=" + std::to_string(group[g]);
        EXPECT_EQ(got[g].greater, want.greater) << where;
        EXPECT_EQ(got[g].ties, want.ties) << where;
        EXPECT_EQ(got[g].nan, want.nan) << where;
      }
      group.clear();
    };
    for (size_t i = 0; i < rows; ++i) {
      if (!in_guard(na[i]) || !(std::fabs(true_vals[i]) <= 2.0f)) continue;
      group.push_back(i);
      if (group.size() == kRankGroup) flush();
    }
    flush();
  }
}

class RankByDecisionTest : public ScanEpilogueTest {
 protected:
  /// A cosine ranking of `src` with row i's true column `true_cols[i]`.
  static TopKOptions Ranking(std::vector<int> true_cols) {
    TopKOptions options;
    options.k = 0;
    options.metric = DistanceMetric::kCosine;
    options.true_cols = std::move(true_cols);
    return options;
  }

  void ExpectExactCounts(const math::Matrix& src, const math::Matrix& tgt,
                         const std::vector<int>& true_cols,
                         const std::string& label) {
    ExpectScansMatchDense(src, tgt, Ranking(true_cols), label, {1, 2, 4},
                          {5, 8, 13, 16, 17});
    for (const auto& [lanes, body] : RankBodies()) {
      for (size_t bank_rows : {tgt.rows(), size_t{5}, size_t{8}, size_t{13},
                               size_t{16}, size_t{17}}) {
        ExpectBodyMatchesExactScan(
            body, src, tgt, true_cols, bank_rows,
            label + " lanes=" + std::to_string(lanes));
      }
    }
  }

  /// `v` scaled so that its float L2 norm is `norm` within a few ulps.
  static void ScaleToNorm(std::span<float> v, double norm) {
    double sum = 0.0;
    for (float x : v) sum += static_cast<double>(x) * x;
    const double scale = norm / std::sqrt(sum);
    for (float& x : v) x = static_cast<float>(x * scale);
  }
};

/// Targets that tie or nearly tie each row's true cell: rows 0..R-1 are
/// the true targets; then, per true target, two exact copies, copies
/// scaled by 1 + k 2^-23 for k = +-1..+-6 (the same cosine, rounded
/// differently) and copies with one of the first components moved one ulp
/// either way.
math::Matrix NearTieTargets(const math::Matrix& truth) {
  const size_t rows = truth.rows(), dim = truth.cols();
  const size_t per_row = 2 + 12 + 2 * std::min<size_t>(dim, 6);
  math::Matrix tgt(rows * (1 + per_row), dim);
  size_t next = rows;
  auto emit = [&](size_t i, auto&& edit) {
    auto out = tgt.Row(next++);
    std::copy(truth.Row(i).begin(), truth.Row(i).end(), out.begin());
    edit(out);
  };
  for (size_t i = 0; i < rows; ++i) {
    std::copy(truth.Row(i).begin(), truth.Row(i).end(), tgt.Row(i).begin());
    for (int c = 0; c < 2; ++c) emit(i, [](std::span<float>) {});
    for (int k = -6; k <= 6; ++k) {
      if (k == 0) continue;
      const float scale = 1.0f + static_cast<float>(k) * 0x1p-23f;
      emit(i, [&](std::span<float> out) {
        for (float& x : out) x *= scale;
      });
    }
    for (size_t d = 0; d < std::min<size_t>(dim, 6); ++d) {
      for (float toward : {-1.0f, 1.0f}) {
        emit(i, [&](std::span<float> out) {
          out[d] = std::nextafter(out[d], toward * 2.0f);
        });
      }
    }
  }
  return tgt;
}

TEST_F(RankByDecisionTest, NearTiesMatchExactCellsAtEveryWidth) {
  // Each row's true target has copies whose cells tie it or sit an ulp or
  // a few either side of it. Rows and target counts are not multiples of 8.
  const size_t rows = 19;
  for (size_t dim : {1u, 7u, 8u, 31u, 32u, 33u, 128u}) {
    const math::Matrix truth = RandomMatrix(rows, dim, 300 + dim);
    math::Matrix src = RandomMatrix(rows, dim, 400 + dim);
    for (size_t i = 0; i < rows; ++i) {
      for (size_t d = 0; d < dim; ++d) {
        src.Row(i)[d] = truth.Row(i)[d] + 0.25f * src.Row(i)[d];
      }
    }
    const math::Matrix tgt = NearTieTargets(truth);
    std::vector<int> true_cols(rows);
    for (size_t i = 0; i < rows; ++i) true_cols[i] = static_cast<int>(i);
    if (dim >= 8) {
      // The fixture holds cells one ulp above and below the true cells.
      const math::Matrix sim =
          SimilarityMatrix(src, tgt, DistanceMetric::kCosine);
      size_t above = 0, below = 0;
      for (size_t i = 0; i < rows; ++i) {
        const float t = sim.Row(i)[i];
        for (float v : sim.Row(i)) {
          above += v == std::nextafter(t, 2.0f);
          below += v == std::nextafter(t, -2.0f);
        }
      }
      EXPECT_GT(above, 0u) << "dim=" << dim;
      EXPECT_GT(below, 0u) << "dim=" << dim;
    }
    ExpectExactCounts(src, tgt, true_cols, "dim=" + std::to_string(dim));
  }
}

TEST_F(RankByDecisionTest, NormsAtAndJustOutsideTheGuardedRange) {
  // Rows and targets scaled to the edges of [2^-20, 2^20] and just past
  // them, and far past them (2^-70 trips the cosine's 1e-12 guard, 2^70
  // overflows the squared norm). A target outside the range sends its bank
  // to the exact scan; a source row outside it takes the exact scan alone.
  const size_t rows = 11, cols = 29, dim = 16;
  math::Matrix src = RandomMatrix(rows, dim, 81);
  math::Matrix tgt = RandomMatrix(cols, dim, 82);
  const double lo = 0x1p-20, hi = 0x1p20;
  const double edges[] = {lo * 1.001, lo * 0.999, hi * 0.999, hi * 1.001,
                          0x1p-70, 0x1p70};
  for (size_t e = 0; e < 6; ++e) ScaleToNorm(src.Row(e), edges[e]);
  std::vector<int> true_cols(rows);
  for (size_t i = 0; i < rows; ++i) true_cols[i] = static_cast<int>(i * 2);
  ExpectExactCounts(src, tgt, true_cols, "rows at the edges");
  // Target edges at columns 3, 12, 20 and 27: inside at 3 and 12, outside
  // at 20 and 27, so some banks keep the bound kernel and some do not.
  for (const auto& [j, norm] :
       {std::pair<size_t, double>{3, lo * 1.001}, {12, hi * 0.999},
        {20, lo * 0.999}, {27, hi * 1.001}}) {
    ScaleToNorm(tgt.Row(j), norm);
  }
  ExpectExactCounts(src, tgt, true_cols, "rows and targets at the edges");
  for (size_t j : {20u, 27u}) ScaleToNorm(tgt.Row(j), 1.0);
  ExpectExactCounts(src, tgt, true_cols, "targets inside the range");
}

TEST_F(RankByDecisionTest, NanInfAndZeroRowsAndTargets) {
  const size_t rows = 13, cols = 35, dim = 9;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  math::Matrix src = RandomMatrix(rows, dim, 91);
  math::Matrix clean = RandomMatrix(cols, dim, 92);
  src.Row(1)[3] = nan;
  src.Row(4)[0] = inf;
  src.Row(6)[8] = -inf;
  for (float& v : src.Row(9)) v = 0.0f;
  std::vector<int> true_cols(rows);
  for (size_t i = 0; i < rows; ++i) true_cols[i] = static_cast<int>(i + 3);
  // Clean targets: the other rows take the bound kernel.
  ExpectExactCounts(src, clean, true_cols, "bad rows, clean targets");
  // Bad targets, among them the true columns of rows 0 and 2.
  math::Matrix tgt = clean;
  tgt.Row(3)[2] = nan;
  tgt.Row(17)[0] = inf;
  for (float& v : tgt.Row(5)) v = 0.0f;
  tgt.Row(30)[5] = -inf;
  ExpectExactCounts(src, tgt, true_cols, "bad rows, bad targets");
}

TEST_F(RankByDecisionTest, RaggedShapesAtEveryWidth) {
  // Row counts just under, at and past one group of 8 and of 16 and past
  // two, bank sizes that are not multiples of 8, a single target, and true
  // columns in every lane and block position.
  for (size_t dim : {1u, 7u, 8u, 31u, 32u, 33u, 128u}) {
    for (const auto& [rows, cols] :
         {std::pair<size_t, size_t>{1, 1}, {7, 9}, {9, 17}, {15, 41},
          {16, 41}, {17, 70}, {33, 41}}) {
      const math::Matrix src = RandomMatrix(rows, dim, 500 + dim + rows);
      math::Matrix tgt = RandomMatrix(cols, dim, 600 + dim + cols);
      // Copies give each row's true cell a tie somewhere.
      for (size_t j = 0; j + 8 < cols; j += 3) CopyRow(tgt, j, j + 8);
      std::vector<int> true_cols(rows);
      for (size_t i = 0; i < rows; ++i) {
        true_cols[i] = static_cast<int>((i * 5) % cols);
      }
      ExpectExactCounts(src, tgt, true_cols,
                        "dim=" + std::to_string(dim) +
                            " rows=" + std::to_string(rows) +
                            " cols=" + std::to_string(cols));
    }
  }
}

/// `rank` against `kt`'s exact scan (dot_rows plus the epilogue's
/// kCosine finish and counts), for groups of every size from 1 to
/// kRankGroup and a true column inside and outside the tile.
void ExpectRankKernelMatchesExactScan(const math::kernels::KernelTable& kt,
                                      math::kernels::RankCosineFn rank,
                                      const std::string& name) {
  using namespace math::kernels;
  for (size_t dim : {1u, 7u, 8u, 31u, 32u, 33u, 128u}) {
    // Row j of the group is copied to column 5j, so the tile holds every
    // row's copy whatever the group size.
    const size_t cols = 5 * kRankGroup + 5;
    const math::Matrix a = RandomMatrix(kRankGroup, dim, 700 + dim);
    math::Matrix b = RandomMatrix(cols, dim, 800 + dim);
    for (size_t j = 0; j < kRankGroup; ++j) CopyRowTo(a, j, b, 5 * j);
    std::vector<float> na(kRankGroup), nb(cols);
    for (size_t r = 0; r < kRankGroup; ++r) {
      na[r] = std::sqrt(kt.squared_l2(a.Row(r).data(), dim));
    }
    for (size_t j = 0; j < cols; ++j) {
      nb[j] = std::sqrt(kt.squared_l2(b.Row(j).data(), dim));
    }
    std::vector<float> scratch(kRankGroup * dim);
    for (size_t count = 1; count <= kRankGroup; ++count) {
      const float* rows[kRankGroup];
      float true_vals[kRankGroup];
      size_t true_pos[kRankGroup];
      ScanCounts want[kRankGroup];
      for (size_t r = 0; r < count; ++r) {
        rows[r] = a.Row(r).data();
        // Row r ranks against its own copy (a tie of 1 with itself),
        // except the last row, whose true column lies outside the tile.
        true_pos[r] = r + 1 < count ? 5 * r : cols + 3;
        const std::vector<float> cells = ExactCosineCells(
            kt, rows[r], na[r], b.Row(0).data(), nb.data(), cols, dim);
        true_vals[r] = true_pos[r] < cols ? cells[true_pos[r]] : 0.5f;
        want[r] = ExactCounts(kt, cells, true_vals[r], true_pos[r]);
      }
      RankTile tile;
      tile.count = count;
      tile.rows = rows;
      tile.row_norms = na.data();
      tile.true_vals = true_vals;
      tile.true_pos = true_pos;
      tile.b = b.Row(0).data();
      tile.ldb = dim;
      tile.tgt_norms = nb.data();
      tile.cols = cols;
      tile.n = dim;
      tile.scratch = scratch.data();
      ScanCounts got[kRankGroup];
      rank(tile, got);
      for (size_t r = 0; r < count; ++r) {
        const std::string where = name + " dim=" + std::to_string(dim) +
                                  " count=" + std::to_string(count) +
                                  " row=" + std::to_string(r);
        EXPECT_EQ(got[r].greater, want[r].greater) << where;
        EXPECT_EQ(got[r].ties, want[r].ties) << where;
        EXPECT_EQ(got[r].nan, want[r].nan) << where;
      }
    }
  }
}

TEST(RankCosineKernelTest, ProvenMarginDecidesLikeTheExactCells) {
  // The kernel of each backend's table against the exact scan of the same
  // backend, then each body of the AVX2 table's kernel that this CPU runs
  // against the AVX2 exact scan.
  using namespace math::kernels;
  for (Backend backend : {Backend::kScalar, Backend::kAvx2}) {
    const KernelTable& kt = Table(backend);
    ExpectRankKernelMatchesExactScan(kt, kt.rank_cosine, BackendName(backend));
  }
  const auto bodies = RankBodies();
  for (const auto& [lanes, body] : bodies) {
    ExpectRankKernelMatchesExactScan(Table(Backend::kAvx2), body,
                                     "lanes=" + std::to_string(lanes));
  }
  if (bodies.size() < 2) {
    std::printf("note: skipped the %s rank_cosine body: this CPU lacks %s\n",
                bodies.empty() ? "8- and 16-lane" : "16-lane",
                bodies.empty() ? "AVX2 and FMA" : "AVX-512F");
  }
}

TEST(RankCosineKernelTest, MarginIsTheDerivedBound) {
  // DESIGN.md: about (4n + 10) u to first order, u = 2^-24, and +inf past
  // the guarded width.
  using math::kernels::RankMargin;
  for (size_t n : {1u, 8u, 32u, 128u, 4096u}) {
    const double first_order = (4.0 * static_cast<double>(n) + 10.0) * 0x1p-24;
    EXPECT_GT(RankMargin(n), first_order) << "n=" << n;
    EXPECT_LT(RankMargin(n), 1.01 * first_order + 0x1p-40) << "n=" << n;
  }
  EXPECT_EQ(RankMargin(math::kernels::kRankMaxDim + 1),
            std::numeric_limits<double>::infinity());
  float lo = 0.0f, hi = 0.0f;
  math::kernels::RankBand(0.5f, RankMargin(32), &lo, &hi);
  EXPECT_LE(static_cast<double>(hi), 0.5 + RankMargin(32) + 0x1p-24);
  EXPECT_GE(static_cast<double>(hi), 0.5 + RankMargin(32));
  EXPECT_LE(static_cast<double>(lo), 0.5 - RankMargin(32));
}

}  // namespace
}  // namespace openea::align
