// Contract suite for the CandidateSource API (src/align/candidate_source.h),
// registered under the `ann` ctest label. Pins:
//  * the exact source is *bit*-identical to StreamingTopK at 1 and 8 threads
//  * sublinear sources score their candidates through the shared cell
//    kernel, so every (id, value) they return matches the exact scores
//  * the IVF index recovers >= 95% of the exact top-10 on clustered data
//    while scanning a sublinear fraction of the targets
//  * LshBlocker::Candidates returns a sorted, deduplicated id list (the
//    determinism regression this PR fixed)
//  * config validation rejects out-of-range values with field-naming errors
//  * the IVF probe admits cells that tie the k-th kept value (finite, -inf
//    or +inf), so a lower id from a later list wins as in a brute force
//  * the IVF k-means assignment, decided by `top1_cosine`, builds the list
//    layout of the exact Lloyd loop bit for bit: exact and near ties, rows
//    outside the kernel's guard, ragged groups and banks, 1-4 threads

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <utility>
#include <vector>
#include <unistd.h>

#include "src/align/ann_ivf.h"
#include "src/align/blocking.h"
#include "src/align/candidate_source.h"
#include "src/align/inference.h"
#include "src/align/similarity.h"
#include "src/align/topk.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/common/telemetry.h"
#include "src/eval/metrics.h"
#include "src/math/kernels.h"
#include "src/math/kernels_internal.h"
#include "src/math/sharded_table.h"
#include "src/math/vec.h"

namespace openea::align {
namespace {

math::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  math::Matrix m(rows, cols);
  m.FillUniform(rng, 1.0f);
  return m;
}

/// Clustered targets (same regime as bench_ann_recall): tight Gaussian
/// blobs around uniform centers, where exact neighbours are same-cluster.
math::Matrix ClusteredMatrix(size_t rows, size_t cols, size_t clusters,
                             uint64_t seed) {
  Rng rng(seed);
  math::Matrix centers(clusters, cols);
  centers.FillUniform(rng, 1.0f);
  math::Matrix out(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    const auto center = centers.Row(i % clusters);
    auto row = out.Row(i);
    for (size_t d = 0; d < cols; ++d) {
      row[d] = center[d] + 0.05f * static_cast<float>(rng.NextGaussian());
    }
  }
  return out;
}

struct ThreadGuard {
  explicit ThreadGuard(int threads) { SetThreads(threads); }
  ~ThreadGuard() { SetThreads(1); }
};

void ExpectBitIdentical(const TopKResult& a, const TopKResult& b) {
  ASSERT_EQ(a.rows, b.rows);
  ASSERT_EQ(a.k, b.k);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].index, b.entries[i].index) << "entry " << i;
    // Bit-level: distinguishes -0.0/0.0 and compares NaN payloads equal.
    EXPECT_EQ(std::bit_cast<uint32_t>(a.entries[i].value),
              std::bit_cast<uint32_t>(b.entries[i].value))
        << "entry " << i;
  }
}

TEST(ExactSourceTest, BitIdenticalToStreamingTopKAtAnyThreadCount) {
  const math::Matrix tgt = RandomMatrix(157, 24, 11);
  const math::Matrix queries = RandomMatrix(63, 24, 12);
  for (const bool csls : {false, true}) {
    for (const auto metric :
         {DistanceMetric::kCosine, DistanceMetric::kEuclidean,
          DistanceMetric::kManhattan, DistanceMetric::kInner}) {
      TopKOptions options;
      options.k = 7;
      options.metric = metric;
      options.csls = csls;
      CandidateSourceConfig config;
      config.metric = metric;
      config.csls = csls;
      auto source = CreateCandidateSourceOrDie(config);
      ASSERT_TRUE(source->Index(tgt).ok());
      EXPECT_STREQ(source->Name(), "exact");
      EXPECT_EQ(source->csls(), csls);
      for (const int threads : {1, 8}) {
        ThreadGuard guard(threads);
        const TopKResult expected = StreamingTopK(queries, tgt, options);
        const TopKResult got = source->TopK(queries, 7);
        ExpectBitIdentical(expected, got);
      }
    }
  }
}

TEST(ExactSourceTest, EmptyIndexReturnsAllPadding) {
  CandidateSourceConfig config;
  auto source = CreateCandidateSourceOrDie(config);
  ASSERT_TRUE(source->Index(math::Matrix(0, 16)).ok());
  EXPECT_TRUE(source->indexed());
  EXPECT_EQ(source->num_targets(), 0u);
  const TopKResult result = source->TopK(RandomMatrix(5, 16, 3), 4);
  ASSERT_EQ(result.entries.size(), 20u);
  for (const auto& entry : result.entries) {
    EXPECT_EQ(entry.index, -1);
    EXPECT_TRUE(std::isinf(entry.value) && entry.value < 0);
  }
}

TEST(LshBlockerTest, CandidatesAreSortedAndDeduplicated) {
  // Regression: the bucket union used to surface in unordered_set iteration
  // order, which made every downstream tie-break (and therefore the matches
  // of blocked inference) run-to-run nondeterministic.
  const math::Matrix targets = RandomMatrix(300, 16, 21);
  LshBlocker blocker(16, /*bits=*/4, /*num_tables=*/6, /*seed=*/5);
  blocker.Index(targets);
  bool saw_multi = false;
  for (size_t q = 0; q < 50; ++q) {
    const std::vector<int> candidates = blocker.Candidates(targets.Row(q));
    EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
    EXPECT_TRUE(std::adjacent_find(candidates.begin(), candidates.end()) ==
                candidates.end())
        << "duplicate id in candidate set";
    if (candidates.size() > 1) saw_multi = true;
    // Self-query must find itself: identical vectors share every signature.
    EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(),
                                   static_cast<int>(q)));
  }
  EXPECT_TRUE(saw_multi) << "degenerate blocking: every bucket a singleton";
}

TEST(LshSourceTest, ScoresMatchExactSourceForReturnedIds) {
  const math::Matrix tgt = RandomMatrix(220, 16, 31);
  const math::Matrix queries = RandomMatrix(40, 16, 32);
  CandidateSourceConfig lsh_config;
  lsh_config.kind = CandidateSourceKind::kLsh;
  lsh_config.lsh_bits = 4;
  auto lsh = CreateCandidateSourceOrDie(lsh_config);
  ASSERT_TRUE(lsh->Index(tgt).ok());

  CandidateSourceConfig exact_config;
  auto exact = CreateCandidateSourceOrDie(exact_config);
  ASSERT_TRUE(exact->Index(tgt).ok());
  // k = N: the exact result enumerates every target's score.
  const TopKResult full = exact->TopK(queries, tgt.rows());

  const TopKResult got = lsh->TopK(queries, 5);
  ASSERT_EQ(got.rows, queries.rows());
  for (size_t i = 0; i < got.rows; ++i) {
    for (const TopKEntry& entry : got.Row(i)) {
      if (entry.index < 0) continue;
      const auto all = full.Row(i);
      const auto it = std::find_if(
          all.begin(), all.end(),
          [&](const TopKEntry& e) { return e.index == entry.index; });
      ASSERT_NE(it, all.end());
      EXPECT_EQ(std::bit_cast<uint32_t>(entry.value),
                std::bit_cast<uint32_t>(it->value))
          << "shared-kernel score mismatch for id " << entry.index;
    }
  }
}

TEST(AnnIvfSourceTest, HighRecallOnClusteredDataWithSublinearScan) {
  constexpr size_t kN = 2000, kDim = 24, kQueries = 128, kK = 10;
  const math::Matrix tgt = ClusteredMatrix(kN, kDim, 16, 7);
  math::Matrix queries(kQueries, kDim);
  for (size_t q = 0; q < kQueries; ++q) {
    const auto src = tgt.Row((q * kN) / kQueries);
    std::copy(src.begin(), src.end(), queries.Row(q).begin());
  }

  CandidateSourceConfig exact_config;
  auto exact = CreateCandidateSourceOrDie(exact_config);
  ASSERT_TRUE(exact->Index(tgt).ok());
  const TopKResult truth = exact->TopK(queries, kK);

  CandidateSourceConfig ann_config;
  ann_config.kind = CandidateSourceKind::kAnnIvf;
  ann_config.ivf_nprobe = 8;
  auto ann = CreateCandidateSourceOrDie(ann_config);
  telemetry::ResetForTesting();
  telemetry::SetCollectForTesting(true);
  ASSERT_TRUE(ann->Index(tgt).ok());
  EXPECT_STREQ(ann->Name(), "ann_ivf");
  const TopKResult got = ann->TopK(queries, kK);
  const auto snapshot = telemetry::SnapshotMetrics();
  telemetry::SetCollectForTesting(false);
  telemetry::ResetForTesting();

  double recall = 0.0;
  for (size_t i = 0; i < kQueries; ++i) {
    const auto want = truth.Row(i);
    const auto have = got.Row(i);
    size_t hit = 0;
    for (const TopKEntry& w : want) {
      if (w.index < 0) continue;
      for (const TopKEntry& h : have) {
        if (h.index == w.index) {
          ++hit;
          break;
        }
      }
    }
    recall += static_cast<double>(hit) / kK;
  }
  recall /= kQueries;
  EXPECT_GE(recall, 0.95);

  // Sublinear scan accounting: strictly less than a quarter of the
  // exhaustive N-per-query work, as gated by bench_ann_recall.
  const auto scanned = snapshot.counters.find("cand/ann_ivf/scanned");
  ASSERT_NE(scanned, snapshot.counters.end());
  EXPECT_LT(scanned->second, kQueries * kN / 4);
  EXPECT_EQ(snapshot.counters.at("cand/ann_ivf/queries"), kQueries);
  // The k-means assignment computes each row's cell to its seed centroid
  // and, by decision, few of the other 44 per pass.
  const auto assign_cells =
      snapshot.counters.find("cand/ann_ivf/assign_exact_cells");
  ASSERT_NE(assign_cells, snapshot.counters.end());
  EXPECT_GE(assign_cells->second, kN * 10);
  EXPECT_LT(assign_cells->second, kN * 45 * 10 / 4);
}

TEST(AnnIvfSourceTest, DeterministicAcrossThreadCounts) {
  const math::Matrix tgt = ClusteredMatrix(900, 16, 12, 3);
  const math::Matrix queries = RandomMatrix(37, 16, 4);
  CandidateSourceConfig config;
  config.kind = CandidateSourceKind::kAnnIvf;
  config.ivf_nprobe = 4;

  TopKResult serial;
  {
    ThreadGuard guard(1);
    auto source = CreateCandidateSourceOrDie(config);
    ASSERT_TRUE(source->Index(tgt).ok());
    serial = source->TopK(queries, 6);
  }
  {
    ThreadGuard guard(8);
    auto source = CreateCandidateSourceOrDie(config);
    ASSERT_TRUE(source->Index(tgt).ok());
    const TopKResult parallel = source->TopK(queries, 6);
    ExpectBitIdentical(serial, parallel);
  }
}

TEST(AnnIvfSourceTest, DegenerateInputs) {
  CandidateSourceConfig config;
  config.kind = CandidateSourceKind::kAnnIvf;
  {
    auto source = CreateCandidateSourceOrDie(config);
    ASSERT_TRUE(source->Index(math::Matrix(0, 8)).ok());
    const TopKResult result = source->TopK(RandomMatrix(3, 8, 2), 5);
    for (const auto& entry : result.entries) EXPECT_EQ(entry.index, -1);
  }
  {
    // Fewer rows than the requested list count: lists clamp to N and the
    // index stays exhaustive-equivalent.
    config.ivf_lists = 64;
    config.ivf_nprobe = 64;
    auto source = CreateCandidateSourceOrDie(config);
    const math::Matrix tgt = RandomMatrix(5, 8, 9);
    ASSERT_TRUE(source->Index(tgt).ok());
    CandidateSourceConfig exact_config;
    auto exact = CreateCandidateSourceOrDie(exact_config);
    ASSERT_TRUE(exact->Index(tgt).ok());
    const math::Matrix queries = RandomMatrix(4, 8, 10);
    ExpectBitIdentical(exact->TopK(queries, 5), source->TopK(queries, 5));
  }
}

TEST(AnnIvfSourceTest, SingleTargetPadsKPastN) {
  CandidateSourceConfig config;
  config.kind = CandidateSourceKind::kAnnIvf;
  auto source = CreateCandidateSourceOrDie(config);
  ASSERT_TRUE(source->Index(RandomMatrix(1, 8, 13)).ok());
  const TopKResult result = source->TopK(RandomMatrix(3, 8, 14), 5);
  ASSERT_EQ(result.rows, 3u);
  ASSERT_EQ(result.k, 5u);  // As requested, even though N = 1.
  for (size_t i = 0; i < result.rows; ++i) {
    const auto row = result.Row(i);
    EXPECT_EQ(row[0].index, 0);
    EXPECT_TRUE(std::isfinite(row[0].value));
    for (size_t t = 1; t < row.size(); ++t) {
      EXPECT_EQ(row[t].index, -1);
      EXPECT_TRUE(std::isinf(row[t].value) && row[t].value < 0);
    }
  }
}

TEST(AnnIvfSourceTest, NprobePastListCountClampsToExhaustive) {
  // nprobe far beyond the list count (default lists = ceil(sqrt(5000)) = 71)
  // must clamp to "probe everything", making the index exhaustive — i.e.
  // bit-identical to the exact source — rather than reading past the list
  // array or returning an ill-defined subset.
  constexpr size_t kN = 5000;
  const math::Matrix tgt = RandomMatrix(kN, 8, 15);
  const math::Matrix queries = RandomMatrix(16, 8, 16);
  CandidateSourceConfig config;
  config.kind = CandidateSourceKind::kAnnIvf;
  config.ivf_nprobe = 100;
  auto ann = CreateCandidateSourceOrDie(config);
  ASSERT_TRUE(ann->Index(tgt).ok());
  CandidateSourceConfig exact_config;
  auto exact = CreateCandidateSourceOrDie(exact_config);
  ASSERT_TRUE(exact->Index(tgt).ok());
  ExpectBitIdentical(exact->TopK(queries, 10), ann->TopK(queries, 10));
}

TEST(AnnIvfSourceTest, AllNanTargetsYieldAllPadding) {
  // Every similarity cell is NaN, so every probe list comes back empty; the
  // result must still be well-formed: full rows of {-inf, -1} padding, never
  // a NaN score or an arbitrary "winner".
  math::Matrix tgt(12, 8);
  for (auto& v : tgt.Data()) v = std::numeric_limits<float>::quiet_NaN();
  CandidateSourceConfig config;
  config.kind = CandidateSourceKind::kAnnIvf;
  config.ivf_nprobe = 100;  // Also exercises the clamp on the NaN path.
  auto source = CreateCandidateSourceOrDie(config);
  ASSERT_TRUE(source->Index(tgt).ok());
  const TopKResult result = source->TopK(RandomMatrix(4, 8, 17), 3);
  ASSERT_EQ(result.entries.size(), 12u);
  for (const auto& entry : result.entries) {
    EXPECT_EQ(entry.index, -1);
    EXPECT_TRUE(std::isinf(entry.value) && entry.value < 0);
  }
}

// ---------------------------------------------------------------------------
// The probe's admission bound. Packed ids ascend within an inverted list but
// not across lists, so a cell that ties the k-th kept value may arrive later
// with a lower id and must still win. Each fixture probes every list and
// checks the index against a brute-force top-k over all rows (the rows of
// the probed lists), batched (several chunks) and one row at a time (one
// chunk).
// ---------------------------------------------------------------------------

/// Every row's cell for query `q` under the shared cell kernel, non-NaN
/// cells ranked by TopKBetter, padded to k.
std::vector<TopKEntry> BruteForceTopK(const math::Matrix& tgt,
                                      std::span<const float> q,
                                      DistanceMetric metric, size_t k) {
  const float nq = math::L2Norm(q);
  std::vector<TopKEntry> cells;
  for (size_t j = 0; j < tgt.rows(); ++j) {
    const float v =
        detail::MetricCell(metric, q.data(), nq, tgt.Row(j).data(),
                           math::L2Norm(tgt.Row(j)), q.size());
    if (!std::isnan(v)) cells.push_back({v, static_cast<int>(j)});
  }
  std::sort(cells.begin(), cells.end(),
            [](const TopKEntry& a, const TopKEntry& b) {
              return detail::TopKBetter(a.value, a.index, b);
            });
  cells.resize(k, TopKEntry{});
  return cells;
}

/// Indexes `tgt` under `metric` with `lists` lists, all probed, and checks
/// the top-k of `query` against the brute force: in one call of twelve
/// copies of the query and in a call of the one row.
void ExpectProbeMatchesBruteForce(const math::Matrix& tgt,
                                  std::span<const float> query,
                                  DistanceMetric metric, size_t lists,
                                  size_t k) {
  CandidateSourceConfig config;
  config.kind = CandidateSourceKind::kAnnIvf;
  config.metric = metric;
  config.ivf_lists = lists;
  config.ivf_nprobe = lists;
  auto source = CreateCandidateSourceOrDie(config);
  ASSERT_TRUE(source->Index(tgt).ok());
  const std::vector<TopKEntry> want = BruteForceTopK(tgt, query, metric, k);

  math::Matrix batch(12, query.size());
  for (size_t i = 0; i < batch.rows(); ++i) {
    std::copy(query.begin(), query.end(), batch.Row(i).begin());
  }
  const TopKResult batched = source->TopK(batch, k);
  math::Matrix one(1, query.size());
  std::copy(query.begin(), query.end(), one.Row(0).begin());
  const TopKResult single = source->TopK(one, k);
  for (const auto& [result, row] :
       {std::pair{&batched, size_t{11}}, std::pair{&single, size_t{0}}}) {
    const auto got = result->Row(row);
    for (size_t t = 0; t < k; ++t) {
      EXPECT_EQ(got[t].index, want[t].index) << "rank " << t;
      EXPECT_EQ(std::bit_cast<uint32_t>(got[t].value),
                std::bit_cast<uint32_t>(want[t].value))
          << "rank " << t;
    }
  }
}

/// `rows` in a seeded random order, so the ids of a cluster are scattered.
math::Matrix ShuffledRows(const std::vector<std::vector<float>>& rows,
                          uint64_t seed) {
  std::vector<size_t> order(rows.size());
  std::iota(order.begin(), order.end(), size_t{0});
  Rng rng(seed);
  rng.Shuffle(order);
  math::Matrix out(rows.size(), rows[0].size());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::copy(rows[order[i]].begin(), rows[order[i]].end(),
              out.Row(i).begin());
  }
  return out;
}

TEST(AnnIvfProbeBoundTest, EqualCellsInDifferentListsBreakTiesByLowerId) {
  // Fourteen clusters around the directions e0 +- e_m (m = 1..7). Each
  // holds its exact direction twice, whose cosine to the query e0 is
  // 1/sqrt(2) bit for bit in every cluster, and 20 rows farther from e0.
  // The top-5 are five of the 28 equal cells, the five lowest ids, spread
  // over lists the probe visits in centroid order.
  constexpr size_t kDim = 8;
  for (uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    std::vector<std::vector<float>> rows;
    for (size_t m = 1; m < kDim; ++m) {
      for (float sign : {1.0f, -1.0f}) {
        std::vector<float> tie(kDim, 0.0f);
        tie[0] = 1.0f;
        tie[m] = sign;
        rows.push_back(tie);
        rows.push_back(tie);
        for (int r = 0; r < 20; ++r) {
          std::vector<float> row(kDim);
          for (size_t d = 1; d < kDim; ++d) {
            row[d] = 0.1f * static_cast<float>(rng.NextGaussian());
          }
          row[0] = 1.0f;
          row[m] = sign * (1.25f + 0.25f * std::fabs(static_cast<float>(
                                               rng.NextGaussian())));
          rows.push_back(row);
        }
      }
    }
    const math::Matrix tgt = ShuffledRows(rows, seed);
    std::vector<float> query(kDim, 0.0f);
    query[0] = 1.0f;
    SCOPED_TRACE(seed);
    ExpectProbeMatchesBruteForce(tgt, query, DistanceMetric::kCosine, 14, 5);
  }
}

TEST(AnnIvfProbeBoundTest, KthValueOfMinusInfinityAdmitsLowerIds) {
  // Euclidean: three rows of unit scale lie 1.5e19 from the query (a finite
  // squared distance of 2.25e38, equal for all three), and 60 rows around
  // 1e19 * e_m (m = 1..3) lie farther, where the squared distance
  // overflows and the similarity is -inf. With k = 8 the k-th kept value
  // is -inf, and the -inf rows of later lists must still win on lower ids.
  constexpr size_t kDim = 4;
  for (uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    std::vector<std::vector<float>> rows;
    for (int r = 0; r < 3; ++r) {
      std::vector<float> row(kDim);
      for (float& v : row) v = static_cast<float>(rng.NextGaussian());
      rows.push_back(row);
    }
    for (size_t m = 1; m < kDim; ++m) {
      for (int r = 0; r < 20; ++r) {
        std::vector<float> row(kDim);
        for (float& v : row) v = 1e17f * static_cast<float>(rng.NextGaussian());
        row[0] -= 1e19f;
        row[m] += 1e19f;
        rows.push_back(row);
      }
    }
    const math::Matrix tgt = ShuffledRows(rows, seed);
    const std::vector<float> query = {1.5e19f, 0.0f, 0.0f, 0.0f};
    SCOPED_TRACE(seed);
    const std::vector<TopKEntry> want =
        BruteForceTopK(tgt, query, DistanceMetric::kEuclidean, 8);
    ASSERT_TRUE(std::isfinite(want[2].value));
    ASSERT_TRUE(std::isinf(want[7].value) && want[7].value < 0);
    ExpectProbeMatchesBruteForce(tgt, query, DistanceMetric::kEuclidean, 6,
                                 8);
  }
}

TEST(AnnIvfProbeBoundTest, KthValueOfPlusInfinityAdmitsLowerIds) {
  // Inner product: rows in six clusters around 2 e0 +- 5 e_m (m = 1..3),
  // and a query of 3e38 * e0, so every product overflows to +inf except
  // those of the four rows with a coordinate 0 of 0.5. With k = 5 the k-th
  // kept value is +inf: only a tie can enter, and it must win on a lower
  // id.
  constexpr size_t kDim = 4;
  for (uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    std::vector<std::vector<float>> rows;
    for (size_t m = 1; m < kDim; ++m) {
      for (float sign : {1.0f, -1.0f}) {
        for (int r = 0; r < 12; ++r) {
          std::vector<float> row(kDim);
          for (float& v : row) v = 0.3f * static_cast<float>(rng.NextGaussian());
          row[0] = r < 2 && m == 1 ? 0.5f : 2.0f;
          row[m] += sign * 5.0f;
          rows.push_back(row);
        }
      }
    }
    const math::Matrix tgt = ShuffledRows(rows, seed);
    const std::vector<float> query = {3e38f, 0.0f, 0.0f, 0.0f};
    SCOPED_TRACE(seed);
    const std::vector<TopKEntry> want =
        BruteForceTopK(tgt, query, DistanceMetric::kInner, 5);
    ASSERT_TRUE(std::isinf(want[4].value) && want[4].value > 0);
    ExpectProbeMatchesBruteForce(tgt, query, DistanceMetric::kInner, 6, 5);
  }
}

// ---------------------------------------------------------------------------
// The k-means assignment. A cosine pass takes each row's top-1 by decision
// (`top1_cosine`), seeded with the row's centroid of the pass before; the
// list layout must equal the one the exact Lloyd loop below builds, bit for
// bit, whichever decision body the active backend runs (the 16-lane one on
// one thread of an AVX-512F CPU, the 8-lane one otherwise, or the scalar
// one under OPENEA_KERNELS=scalar, which `candidate_source_tests_scalar`
// sets).
// ---------------------------------------------------------------------------

/// The exact Lloyd loop and list layout, as AnnIvfSource::Build ran them
/// before the assignment was decided: seeded init, `ivf_iters` passes of
/// every cell plus an argmax (ties and NaN cells toward the lower id),
/// centroid means in double, list members in ascending id.
internal::IvfLayout ReferenceIvfLayout(const math::Matrix& rows,
                                       const CandidateSourceConfig& config) {
  const size_t n = rows.rows(), dim = rows.cols();
  const bool cosine = config.metric == DistanceMetric::kCosine;
  size_t lists = config.ivf_lists;
  if (lists == 0) {
    lists = static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  }
  lists = std::min(std::max<size_t>(lists, 1), n);
  Rng rng(config.seed);
  std::vector<int> seeds(n);
  std::iota(seeds.begin(), seeds.end(), 0);
  rng.Shuffle(seeds);
  math::Matrix centroids(lists, dim);
  for (size_t c = 0; c < lists; ++c) {
    const auto seed = rows.Row(static_cast<size_t>(seeds[c]));
    std::copy(seed.begin(), seed.end(), centroids.Row(c).begin());
  }
  std::vector<float> row_norms;
  if (cosine) row_norms = detail::RowNorms(rows).value();
  std::vector<int> assign(n, 0);
  std::vector<float> sims(lists);
  for (int iter = 0; iter < config.ivf_iters; ++iter) {
    std::vector<float> centroid_norms;
    if (cosine) centroid_norms = detail::RowNorms(centroids).value();
    for (size_t i = 0; i < n; ++i) {
      detail::MetricRowBlock(
          config.metric, rows.Row(i).data(), cosine ? row_norms[i] : 0.0f,
          centroids.Row(0).data(), dim,
          cosine ? centroid_norms.data() : nullptr, sims.data(), lists, dim);
      int best = 0;
      for (size_t c = 1; c < lists; ++c) {
        if (sims[c] > sims[static_cast<size_t>(best)]) {
          best = static_cast<int>(c);
        }
      }
      assign[i] = best;
    }
    std::vector<double> sums(lists * dim, 0.0);
    std::vector<uint32_t> counts(lists, 0);
    for (size_t i = 0; i < n; ++i) {
      const size_t c = static_cast<size_t>(assign[i]);
      for (size_t d = 0; d < dim; ++d) sums[c * dim + d] += rows.Row(i)[d];
      ++counts[c];
    }
    for (size_t c = 0; c < lists; ++c) {
      if (counts[c] == 0) continue;
      for (size_t d = 0; d < dim; ++d) {
        centroids.Row(c)[d] =
            static_cast<float>(sums[c * dim + d] / counts[c]);
      }
    }
  }
  internal::IvfLayout layout;
  layout.list_offsets.assign(lists + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    ++layout.list_offsets[static_cast<size_t>(assign[i]) + 1];
  }
  for (size_t c = 0; c < lists; ++c) {
    layout.list_offsets[c + 1] += layout.list_offsets[c];
  }
  std::vector<size_t> cursor(layout.list_offsets.begin(),
                             layout.list_offsets.end() - 1);
  layout.packed_ids.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    layout.packed_ids[cursor[static_cast<size_t>(assign[i])]++] =
        static_cast<int>(i);
  }
  return layout;
}

class AnnIvfAssignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("openea_ivf_assign_") + info->name() + "_" +
            std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Indexes `rows` in RAM and as shard-banked tables of 5 and 17 rows per
  /// bank, at 1, 2 and 4 threads, and checks each list layout against the
  /// exact Lloyd loop's.
  void ExpectLayoutMatchesExactLoop(const math::Matrix& rows,
                                    const CandidateSourceConfig& config,
                                    const std::string& label) {
    const internal::IvfLayout want = ReferenceIvfLayout(rows, config);
    for (int threads : {1, 2, 4}) {
      ThreadGuard guard(threads);
      for (size_t bank_rows : {size_t{0}, size_t{5}, size_t{17}}) {
        const std::string where = label + " threads=" +
                                  std::to_string(threads) +
                                  " bank_rows=" + std::to_string(bank_rows);
        auto source = CreateCandidateSourceOrDie(config);
        if (bank_rows == 0) {
          ASSERT_TRUE(source->Index(rows).ok()) << where;
        } else {
          const std::string path = (dir_ / "rows.shard").string();
          math::ShardedTableOptions options;
          options.rows_per_bank = bank_rows;
          ASSERT_TRUE(math::WriteShardedTable(path, rows, options).ok())
              << where;
          auto table = math::ShardedEmbeddingTable::Open(path);
          ASSERT_TRUE(table.ok()) << where;
          ASSERT_TRUE(source->IndexSharded(*std::move(table)).ok()) << where;
        }
        const internal::IvfLayout got = internal::IvfLayoutForTesting(*source);
        EXPECT_EQ(got.list_offsets, want.list_offsets) << where;
        EXPECT_EQ(got.packed_ids, want.packed_ids) << where;
      }
    }
  }

  static CandidateSourceConfig Ivf(
      DistanceMetric metric = DistanceMetric::kCosine) {
    CandidateSourceConfig config;
    config.kind = CandidateSourceKind::kAnnIvf;
    config.metric = metric;
    return config;
  }

  std::filesystem::path dir_;
};

/// `n` rows, row i a copy of base row i % bases (or, with `near`, that copy
/// scaled by 1 + k 2^-23 for k = -6..6, or with one of its first components
/// moved one ulp, by turns), so equal and nearly equal cells abound.
math::Matrix CopiesOfBases(size_t n, size_t dim, size_t bases, bool near,
                           uint64_t seed) {
  const math::Matrix base = RandomMatrix(bases, dim, seed);
  math::Matrix rows(n, dim);
  for (size_t i = 0; i < n; ++i) {
    const auto from = base.Row(i % bases);
    auto row = rows.Row(i);
    std::copy(from.begin(), from.end(), row.begin());
    if (!near) continue;
    const size_t turn = (i / bases) % 20;
    if (turn < 13) {
      const float scale =
          1.0f + static_cast<float>(static_cast<int>(turn) - 6) * 0x1p-23f;
      for (float& v : row) v *= scale;
    } else {
      float& v = row[(turn - 13) % std::min<size_t>(dim, 4)];
      v = std::nextafter(v, turn % 2 == 0 ? 2.0f : -2.0f);
    }
  }
  return rows;
}

TEST_F(AnnIvfAssignTest, ExactTiesGoToTheLowerCentroid) {
  // 7 distinct rows and 15 lists: the seeds repeat rows, so centroids are
  // equal and every row ties between them on every pass. 213 = 13 * 16 + 5.
  for (size_t dim : {1u, 7u, 32u, 33u}) {
    ExpectLayoutMatchesExactLoop(CopiesOfBases(213, dim, 7, false, 40 + dim),
                                 Ivf(), "dim=" + std::to_string(dim));
  }
}

TEST_F(AnnIvfAssignTest, NearTiesMatchTheExactLoop) {
  // Scaled and one-ulp copies of 6 rows: centroids an ulp or a few apart,
  // and the cells of a row to them equal or nearly so. Euclidean keeps the
  // exact loop; it checks the reference itself.
  for (size_t dim : {7u, 32u, 33u, 128u}) {
    const math::Matrix rows = CopiesOfBases(327, dim, 6, true, 50 + dim);
    ExpectLayoutMatchesExactLoop(rows, Ivf(), "dim=" + std::to_string(dim));
    if (dim == 32) {
      ExpectLayoutMatchesExactLoop(rows, Ivf(DistanceMetric::kEuclidean),
                                   "euclidean");
    }
  }
}

TEST_F(AnnIvfAssignTest, RowsOutsideTheGuardTakeTheExactLoop) {
  // A zero row and a row of norm 2^21 take the exact loop alone. A NaN row
  // turns its centroid NaN after the first pass, which sends every later
  // pass to the exact loop.
  const size_t dim = 16;
  math::Matrix rows = ClusteredMatrix(250, dim, 9, 61);
  for (float& v : rows.Row(3)) v = 0.0f;
  const float big = 0x1p21f / std::sqrt(static_cast<float>(dim));
  for (float& v : rows.Row(40)) v = big;
  ExpectLayoutMatchesExactLoop(rows, Ivf(), "zero and large rows");
  rows.Row(77)[5] = std::numeric_limits<float>::quiet_NaN();
  ExpectLayoutMatchesExactLoop(rows, Ivf(), "and a NaN row");
}

TEST_F(AnnIvfAssignTest, RaggedRowCounts) {
  // Row counts just past a group of 16 and short of one, a single row, and
  // more lists than a block of 8 centroids evenly holds.
  for (size_t n : {1u, 15u, 17u, 33u, 100u}) {
    CandidateSourceConfig config = Ivf();
    if (n == 100) config.ivf_lists = 13;
    ExpectLayoutMatchesExactLoop(ClusteredMatrix(n, 24, 5, 70 + n), config,
                                 "n=" + std::to_string(n));
  }
}

/// For rows of `a` against the rows of `b`, checks `top1` against the
/// argmax of `kt`'s exact cells (dot_rows plus the kCosine finish), for
/// groups of 1 to kRankGroup rows and several seed columns per row.
void ExpectTop1MatchesExactArgmax(const math::kernels::KernelTable& kt,
                                  math::kernels::Top1CosineFn top1,
                                  const math::Matrix& a, const math::Matrix& b,
                                  const std::string& name) {
  using namespace math::kernels;
  const size_t cols = b.rows(), dim = a.cols();
  std::vector<float> na(kRankGroup), nb(cols);
  for (size_t r = 0; r < kRankGroup; ++r) {
    na[r] = std::sqrt(kt.squared_l2(a.Row(r).data(), dim));
  }
  for (size_t j = 0; j < cols; ++j) {
    nb[j] = std::sqrt(kt.squared_l2(b.Row(j).data(), dim));
  }
  std::vector<std::vector<float>> cells(kRankGroup, std::vector<float>(cols));
  std::vector<size_t> argmax(kRankGroup, 0);
  for (size_t r = 0; r < kRankGroup; ++r) {
    kt.dot_rows(a.Row(r).data(), b.Row(0).data(), dim, cells[r].data(), cols,
                dim);
    ScanEpilogue finish;
    finish.finish = CellFinish::kCosine;
    finish.na = na[r];
    finish.tgt_norms = nb.data();
    kt.scan_epilogue(finish, cells[r].data(), cols, nullptr);
    for (size_t j = 1; j < cols; ++j) {
      if (cells[r][j] > cells[r][argmax[r]]) argmax[r] = j;
    }
  }
  std::vector<float> scratch(kRankGroup * dim);
  for (size_t seed_turn = 0; seed_turn < 3; ++seed_turn) {
    for (size_t count = 1; count <= kRankGroup; ++count) {
      const float* rows[kRankGroup];
      float seed_vals[kRankGroup];
      size_t seed_pos[kRankGroup];
      for (size_t r = 0; r < count; ++r) {
        rows[r] = a.Row(r).data();
        // The first column, a column after the argmax, or the argmax.
        seed_pos[r] = seed_turn == 0   ? 0
                      : seed_turn == 1 ? (argmax[r] + 1 + 7 * r) % cols
                                       : argmax[r];
        seed_vals[r] = cells[r][seed_pos[r]];
      }
      RankTile tile;
      tile.count = count;
      tile.rows = rows;
      tile.row_norms = na.data();
      tile.true_vals = seed_vals;
      tile.true_pos = seed_pos;
      tile.b = b.Row(0).data();
      tile.ldb = dim;
      tile.tgt_norms = nb.data();
      tile.cols = cols;
      tile.n = dim;
      tile.scratch = scratch.data();
      RankTop1 best[kRankGroup];
      top1(tile, best);
      for (size_t r = 0; r < count; ++r) {
        const std::string where = name + " dim=" + std::to_string(dim) +
                                  " count=" + std::to_string(count) +
                                  " seed=" + std::to_string(seed_pos[r]) +
                                  " row=" + std::to_string(r);
        EXPECT_EQ(best[r].pos, argmax[r]) << where;
        EXPECT_EQ(std::bit_cast<uint32_t>(best[r].value),
                  std::bit_cast<uint32_t>(cells[r][argmax[r]]))
            << where;
        EXPECT_LT(best[r].exact, cols) << where;
      }
    }
  }
}

TEST(Top1CosineKernelTest, EveryBodyTakesTheExactArgmax) {
  // Each row's copy sits at column 5r + 2 with an exact duplicate at 5r + 4,
  // and a scaled copy and a one-ulp copy at 5r + 1 and 5r + 3, so the
  // greatest cell ties and nearly ties on both sides of the first copy.
  // The long rows give decision values several ulps off their exact cells.
  using namespace math::kernels;
  for (size_t dim : {1u, 7u, 8u, 31u, 32u, 33u, 128u, 512u, 1024u}) {
    const size_t cols = 5 * kRankGroup + 3;
    const math::Matrix a = RandomMatrix(kRankGroup, dim, 900 + dim);
    math::Matrix b = RandomMatrix(cols, dim, 950 + dim);
    for (size_t r = 0; r < kRankGroup; ++r) {
      const auto row = a.Row(r);
      for (size_t c = 1; c <= 4; ++c) {
        std::copy(row.begin(), row.end(), b.Row(5 * r + c).begin());
      }
      const float scale =
          1.0f + static_cast<float>(static_cast<int>(r % 7) - 3) * 0x1p-23f;
      for (float& v : b.Row(5 * r + 1)) v *= scale;
      float& v = b.Row(5 * r + 3)[r % dim];
      v = std::nextafter(v, r % 2 == 0 ? 2.0f : -2.0f);
    }
    for (Backend backend : {Backend::kScalar, Backend::kAvx2}) {
      const KernelTable& kt = Table(backend);
      ExpectTop1MatchesExactArgmax(kt, kt.top1_cosine, a, b,
                                   BackendName(backend));
    }
    for (size_t lanes : {size_t{8}, size_t{16}}) {
      if (Top1CosineFn body = Top1CosineBodyForTesting(lanes)) {
        ExpectTop1MatchesExactArgmax(Table(Backend::kAvx2), body, a, b,
                                     "lanes=" + std::to_string(lanes));
      } else if (dim == 1) {
        std::printf("note: skipped the %zu-lane top1_cosine body: this CPU "
                    "lacks it\n",
                    lanes);
      }
    }
  }
}

TEST(CandidateSourceConfigTest, ValidationErrorPaths) {
  const auto expect_invalid = [](const CandidateSourceConfig& config,
                                 const std::string& needle) {
    const auto source = CreateCandidateSource(config);
    ASSERT_FALSE(source.ok());
    EXPECT_EQ(source.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(source.status().message().find(needle), std::string::npos)
        << "message: " << source.status().message();
  };
  CandidateSourceConfig config;
  config.kind = CandidateSourceKind::kLsh;
  config.csls = true;
  expect_invalid(config, "csls");

  config = {};
  config.kind = CandidateSourceKind::kAnnIvf;
  config.csls = true;
  expect_invalid(config, "csls");

  config = {};
  config.kind = CandidateSourceKind::kExact;
  config.csls = true;
  config.csls_k = 0;
  expect_invalid(config, "csls_k");

  config = {};
  config.kind = CandidateSourceKind::kLsh;
  config.lsh_bits = 0;
  expect_invalid(config, "lsh_bits");
  config.lsh_bits = 64;
  expect_invalid(config, "lsh_bits");

  config = {};
  config.kind = CandidateSourceKind::kLsh;
  config.lsh_tables = 0;
  expect_invalid(config, "lsh_tables");

  config = {};
  config.kind = CandidateSourceKind::kAnnIvf;
  config.ivf_nprobe = 0;
  expect_invalid(config, "ivf_nprobe");

  config = {};
  config.kind = CandidateSourceKind::kAnnIvf;
  config.ivf_iters = 0;
  expect_invalid(config, "ivf_iters");
}

TEST(InferAlignmentTest, SourceOverloadMatchesLegacyEmbeddingOverload) {
  const math::Matrix src = RandomMatrix(48, 16, 41);
  const math::Matrix tgt = RandomMatrix(48, 16, 42);
  for (const auto strategy :
       {InferenceStrategy::kGreedy, InferenceStrategy::kGreedyCsls,
        InferenceStrategy::kStableMarriage, InferenceStrategy::kKuhnMunkres}) {
    const std::vector<int> legacy = InferAlignment(
        SimilarityMatrix(src, tgt, DistanceMetric::kCosine), strategy);
    CandidateSourceConfig config;
    config.csls = strategy == InferenceStrategy::kGreedyCsls;
    auto source = CreateCandidateSourceOrDie(config);
    ASSERT_TRUE(source->Index(tgt).ok());
    const std::vector<int> unified = InferAlignment(*source, src, strategy);
    EXPECT_EQ(legacy, unified)
        << "strategy " << InferenceStrategyName(strategy);
  }
}

TEST(InferAlignmentTest, BlockedGreedyMatchShimStaysDeterministic) {
  // Greedy matching over the kLsh source (what the removed
  // BlockedGreedyMatch shim wrapped): a fresh source per run, same answer.
  const math::Matrix src = RandomMatrix(120, 16, 51);
  const math::Matrix tgt = RandomMatrix(120, 16, 52);
  CandidateSourceConfig config;
  config.kind = CandidateSourceKind::kLsh;
  config.lsh_bits = 4;
  config.lsh_tables = 4;
  config.seed = 7;
  auto blocked_greedy = [&] {
    auto source = CreateCandidateSourceOrDie(config);
    EXPECT_TRUE(source->Index(tgt).ok());
    return InferAlignment(*source, src, InferenceStrategy::kGreedy);
  };
  const std::vector<int> first = blocked_greedy();
  for (int rep = 0; rep < 3; ++rep) EXPECT_EQ(first, blocked_greedy());
}

TEST(EvaluateRankingTest, CandidateLimitedAgreesWithExhaustiveOnExactSource) {
  core::AlignmentModel model;
  model.emb1 = RandomMatrix(60, 16, 61);
  model.emb2 = RandomMatrix(60, 16, 62);
  kg::Alignment pairs;
  for (int i = 0; i < 60; ++i) pairs.push_back({i, i});

  const eval::RankingMetrics exhaustive =
      eval::EvaluateRanking(model, pairs, DistanceMetric::kCosine);
  CandidateSourceConfig config;
  auto source = CreateCandidateSourceOrDie(config);
  // candidate_k = pair count: the exact source returns every candidate, so
  // the two protocols rank identical sets.
  const eval::RankingMetrics limited =
      eval::EvaluateRanking(model, pairs, *source, pairs.size());
  EXPECT_DOUBLE_EQ(exhaustive.hits1, limited.hits1);
  EXPECT_DOUBLE_EQ(exhaustive.hits5, limited.hits5);
  EXPECT_DOUBLE_EQ(exhaustive.mr, limited.mr);
  EXPECT_DOUBLE_EQ(exhaustive.mrr, limited.mrr);
}

TEST(EvaluateRankingTest, CandidateMissesScorePessimisticRank) {
  core::AlignmentModel model;
  model.emb1 = RandomMatrix(30, 16, 71);
  model.emb2 = RandomMatrix(30, 16, 72);
  kg::Alignment pairs;
  for (int i = 0; i < 30; ++i) pairs.push_back({i, i});

  CandidateSourceConfig config;
  auto source = CreateCandidateSourceOrDie(config);
  // k = 1 on random embeddings: most true counterparts are not the top-1
  // candidate, so misses dominate and MR approaches the pessimistic
  // #targets + 1 bound. MR must never exceed it.
  const eval::RankingMetrics limited =
      eval::EvaluateRanking(model, pairs, *source, 1);
  EXPECT_LE(limited.mr, 31.0);
  EXPECT_GT(limited.mr, 1.0);
}

/// Hand-computable distractor fixture for the dangling-aware overload:
/// 4 test pairs whose left/right embeddings are the unit basis vectors
/// e0..e3 (inner(true) = 1 for every pair), plus dangling distractor rows
/// appended to emb2. Under kInner the similarity table is trivial to read
/// off, so the expected metrics below are exact doubles.
struct DistractorFixture {
  core::AlignmentModel model;
  kg::Alignment pairs;
  std::vector<kg::EntityId> dangling;
};

DistractorFixture MakeDistractorFixture() {
  DistractorFixture f;
  constexpr size_t kPairs = 4, kDim = 4;
  f.model.emb1 = math::Matrix(kPairs, kDim);
  f.model.emb2 = math::Matrix(kPairs + 3, kDim);
  for (size_t i = 0; i < kPairs; ++i) {
    f.model.emb1.At(i, i) = 1.0f;
    f.model.emb2.At(i, i) = 1.0f;
    f.pairs.push_back(
        {static_cast<kg::EntityId>(i), static_cast<kg::EntityId>(i)});
  }
  // Distractor rows (pool columns 4..6 after the 4 true rights):
  //   row 4 = 2*e1  — inner 2 with query 1, out-scoring its true (inner 1);
  //   row 5 = e0/4, row 6 = e2/4 — sub-true scores for queries 0 and 2.
  f.model.emb2.At(4, 1) = 2.0f;
  f.model.emb2.At(5, 0) = 0.25f;
  f.model.emb2.At(6, 2) = 0.25f;
  f.dangling = {4, 5, 6};
  return f;
}

TEST(EvaluateRankingTest, CandidateMissUsesMatchablePoolNotInflatedPool) {
  // At candidate_k = 1, query 1's only candidate is distractor column 4
  // (inner 2 > 1): its true counterpart is missed. The pessimistic miss rank
  // must be one past the *matchable* pool — test_pairs.size() + 1 = 5 —
  // not one past the dangling-inflated indexed pool (7 + 1 = 8). Rank 5
  // still counts for hits@5, which is exactly what separates the two
  // conventions: mr 2.0 / hits5 1.0 here vs mr 2.75 / hits5 0.75 inflated.
  const DistractorFixture f = MakeDistractorFixture();
  CandidateSourceConfig config;
  config.metric = DistanceMetric::kInner;
  auto source = CreateCandidateSourceOrDie(config);
  const eval::RankingMetrics m =
      eval::EvaluateRanking(f.model, f.pairs, f.dangling, *source, 1);
  EXPECT_DOUBLE_EQ(m.hits1, 0.75);  // Queries 0, 2, 3 rank 1; query 1 missed.
  EXPECT_DOUBLE_EQ(m.hits5, 1.0);   // Miss rank 5 <= 5.
  EXPECT_DOUBLE_EQ(m.mr, (1.0 + 5.0 + 1.0 + 1.0) / 4.0);
  EXPECT_DOUBLE_EQ(m.mrr, (1.0 + 1.0 / 5.0 + 1.0 + 1.0) / 4.0);
}

TEST(EvaluateRankingTest, DistractorsCompeteInRankingWhenCandidatesCoverPool) {
  // With candidate_k covering the whole pool nothing is missed, but the
  // distractor that out-scores query 1's true counterpart pushes its rank
  // to 2 — distractors compete in the ranking even though they are never
  // anyone's answer.
  const DistractorFixture f = MakeDistractorFixture();
  CandidateSourceConfig config;
  config.metric = DistanceMetric::kInner;
  auto source = CreateCandidateSourceOrDie(config);
  const eval::RankingMetrics m =
      eval::EvaluateRanking(f.model, f.pairs, f.dangling, *source, 7);
  EXPECT_DOUBLE_EQ(m.hits1, 0.75);
  EXPECT_DOUBLE_EQ(m.hits5, 1.0);
  EXPECT_DOUBLE_EQ(m.mr, (1.0 + 2.0 + 1.0 + 1.0) / 4.0);
  EXPECT_DOUBLE_EQ(m.mrr, (1.0 + 1.0 / 2.0 + 1.0 + 1.0) / 4.0);
}

TEST(EvaluateRankingTest, DistractorTiedWithTrueScoresMidRank) {
  // A distractor identical to pair 0's right ties it at inner 1: mid-rank
  // convention gives 1 + 0 + 0.5*1 = 1.5 for query 0.
  DistractorFixture f = MakeDistractorFixture();
  f.model.emb2.At(4, 1) = 0.0f;  // Repurpose row 4 ...
  f.model.emb2.At(4, 0) = 1.0f;  // ... as an exact copy of right 0.
  CandidateSourceConfig config;
  config.metric = DistanceMetric::kInner;
  auto source = CreateCandidateSourceOrDie(config);
  const eval::RankingMetrics m =
      eval::EvaluateRanking(f.model, f.pairs, f.dangling, *source, 7);
  EXPECT_DOUBLE_EQ(m.hits1, 0.75);  // Rank 1.5 > 1 for query 0.
  EXPECT_DOUBLE_EQ(m.hits5, 1.0);
  EXPECT_DOUBLE_EQ(m.mr, (1.5 + 1.0 + 1.0 + 1.0) / 4.0);
  EXPECT_DOUBLE_EQ(m.mrr, (1.0 / 1.5 + 1.0 + 1.0 + 1.0) / 4.0);
}

TEST(EvaluateRankingTest, EmptyDanglingDelegatesToPlainCandidateOverload) {
  core::AlignmentModel model;
  model.emb1 = RandomMatrix(25, 16, 81);
  model.emb2 = RandomMatrix(25, 16, 82);
  kg::Alignment pairs;
  for (int i = 0; i < 25; ++i) pairs.push_back({i, i});
  CandidateSourceConfig config;
  auto a = CreateCandidateSourceOrDie(config);
  auto b = CreateCandidateSourceOrDie(config);
  const eval::RankingMetrics plain = eval::EvaluateRanking(model, pairs, *a, 5);
  const eval::RankingMetrics with_empty = eval::EvaluateRanking(
      model, pairs, std::vector<kg::EntityId>(), *b, 5);
  EXPECT_DOUBLE_EQ(plain.hits1, with_empty.hits1);
  EXPECT_DOUBLE_EQ(plain.hits5, with_empty.hits5);
  EXPECT_DOUBLE_EQ(plain.mr, with_empty.mr);
  EXPECT_DOUBLE_EQ(plain.mrr, with_empty.mrr);
}

}  // namespace
}  // namespace openea::align
