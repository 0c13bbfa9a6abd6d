// Tests for the runtime-dispatched kernel layer (src/math/kernels.h,
// DESIGN.md "Kernel dispatch"):
//  * the scalar and AVX2 backends agree bitwise on every elementwise kernel
//    (axpy/scale/add/sub/hadamard and the fused optimizer updates), on odd
//    tail lengths and unaligned spans included;
//  * reduction kernels (dot, norms, distances, GEMM) agree within a small
//    ULP tolerance (the AVX2 backend reassociates the accumulation);
//  * NaNs propagate instead of being masked;
//  * the alignment pipeline stays bit-identical at 1 vs 8 threads, and the
//    dense similarity matrix stays bit-identical to the streaming top-k,
//    under whichever backend is active. The ctest registration runs this
//    binary twice — once under the startup default and once with
//    OPENEA_KERNELS=scalar — so both dispatch settings are pinned.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "src/align/similarity.h"
#include "src/align/topk.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/math/embedding_table.h"
#include "src/math/kernels.h"
#include "src/math/matrix.h"

namespace openea::math::kernels {
namespace {

/// Distance between two floats in units in the last place, treating the
/// bit patterns as sign-magnitude integers. Infinity/NaN mismatches count
/// as far apart.
int64_t UlpDistance(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) {
    return (std::isnan(a) && std::isnan(b))
               ? 0
               : std::numeric_limits<int64_t>::max();
  }
  int32_t ia, ib;
  std::memcpy(&ia, &a, sizeof(ia));
  std::memcpy(&ib, &b, sizeof(ib));
  if (ia < 0) ia = std::numeric_limits<int32_t>::min() - ia;
  if (ib < 0) ib = std::numeric_limits<int32_t>::min() - ib;
  return std::llabs(static_cast<int64_t>(ia) - static_cast<int64_t>(ib));
}

/// Reduction tolerance: the AVX2 backend folds 32 partial sums, so a few
/// ULPs of reassociation drift per reduction is expected; anything larger
/// means a kernel bug, not float noise.
constexpr int64_t kReductionUlps = 64;

std::vector<float> RandomVec(size_t n, uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = rng.NextFloat(-scale, scale);
  return v;
}

/// The tail/alignment sweep: lengths around the 8- and 32-lane boundaries
/// plus an offset start to exercise unaligned loads.
const size_t kLengths[] = {1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100, 257};

class KernelsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!Avx2Supported()) {
      GTEST_SKIP() << "AVX2+FMA unavailable; single-backend build";
    }
  }
  const KernelTable& scalar_ = Table(Backend::kScalar);
  const KernelTable& avx2_ = Table(Backend::kAvx2);
};

TEST_F(KernelsTest, ReductionsAgreeWithinUlps) {
  for (size_t n : kLengths) {
    // offset 1 makes every span unaligned regardless of allocator.
    const auto a_buf = RandomVec(n + 1, 100 + n);
    const auto b_buf = RandomVec(n + 1, 200 + n);
    const float* a = a_buf.data() + 1;
    const float* b = b_buf.data() + 1;
    EXPECT_LE(UlpDistance(scalar_.dot(a, b, n), avx2_.dot(a, b, n)),
              kReductionUlps)
        << "dot n=" << n;
    EXPECT_LE(UlpDistance(scalar_.squared_l2(a, n), avx2_.squared_l2(a, n)),
              kReductionUlps)
        << "squared_l2 n=" << n;
    EXPECT_LE(UlpDistance(scalar_.l1(a, n), avx2_.l1(a, n)), kReductionUlps)
        << "l1 n=" << n;
    EXPECT_LE(UlpDistance(scalar_.squared_l2_distance(a, b, n),
                          avx2_.squared_l2_distance(a, b, n)),
              kReductionUlps)
        << "squared_l2_distance n=" << n;
    EXPECT_LE(UlpDistance(scalar_.l1_distance(a, b, n),
                          avx2_.l1_distance(a, b, n)),
              kReductionUlps)
        << "l1_distance n=" << n;
  }
}

TEST_F(KernelsTest, RowBatchesMatchTheirCellKernelExactly) {
  // The *_rows kernels must produce the same float as calling the cell
  // kernel per row — within one backend this is exact, which is what keeps
  // the dense similarity matrix and the streaming top-k bit-identical.
  const size_t rows = 13, n = 33, ldb = 40;
  const auto a = RandomVec(n, 1);
  const auto b = RandomVec(rows * ldb, 2);
  for (const KernelTable* kt : {&scalar_, &avx2_}) {
    std::vector<float> out(rows);
    kt->dot_rows(a.data(), b.data(), ldb, out.data(), rows, n);
    for (size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(out[r], kt->dot(a.data(), b.data() + r * ldb, n)) << r;
    }
    kt->squared_l2_distance_rows(a.data(), b.data(), ldb, out.data(), rows,
                                 n);
    for (size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(out[r],
                kt->squared_l2_distance(a.data(), b.data() + r * ldb, n))
          << r;
    }
    kt->l1_distance_rows(a.data(), b.data(), ldb, out.data(), rows, n);
    for (size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(out[r], kt->l1_distance(a.data(), b.data() + r * ldb, n))
          << r;
    }
  }
}

TEST_F(KernelsTest, ElementwiseKernelsBitIdenticalAcrossBackends) {
  for (size_t n : kLengths) {
    const auto x_buf = RandomVec(n + 1, 300 + n);
    const auto y0_buf = RandomVec(n + 1, 400 + n);
    const float* x = x_buf.data() + 1;

    auto ys = y0_buf;
    auto yv = y0_buf;
    scalar_.axpy(0.37f, x, ys.data() + 1, n);
    avx2_.axpy(0.37f, x, yv.data() + 1, n);
    ASSERT_EQ(ys, yv) << "axpy n=" << n;

    ys = y0_buf;
    yv = y0_buf;
    scalar_.scale(-1.73f, ys.data() + 1, n);
    avx2_.scale(-1.73f, yv.data() + 1, n);
    ASSERT_EQ(ys, yv) << "scale n=" << n;

    std::vector<float> os(n), ov(n);
    scalar_.add(x, y0_buf.data() + 1, os.data(), n);
    avx2_.add(x, y0_buf.data() + 1, ov.data(), n);
    ASSERT_EQ(os, ov) << "add n=" << n;
    scalar_.sub(x, y0_buf.data() + 1, os.data(), n);
    avx2_.sub(x, y0_buf.data() + 1, ov.data(), n);
    ASSERT_EQ(os, ov) << "sub n=" << n;
    scalar_.hadamard(x, y0_buf.data() + 1, os.data(), n);
    avx2_.hadamard(x, y0_buf.data() + 1, ov.data(), n);
    ASSERT_EQ(os, ov) << "hadamard n=" << n;
  }
}

TEST_F(KernelsTest, FusedOptimizerUpdatesBitIdenticalAcrossBackends) {
  for (size_t n : kLengths) {
    const auto grad = RandomVec(n, 500 + n, 0.1f);
    const auto row0 = RandomVec(n, 600 + n);
    auto acc0 = RandomVec(n, 700 + n, 0.5f);
    for (float& a : acc0) a = std::fabs(a);  // Accumulators are sums of g^2.

    auto rs = row0, as = acc0, rv = row0, av = acc0;
    scalar_.adagrad_update(rs.data(), as.data(), grad.data(), n, 0.01f,
                           1e-8f);
    avx2_.adagrad_update(rv.data(), av.data(), grad.data(), n, 0.01f, 1e-8f);
    ASSERT_EQ(rs, rv) << "adagrad row n=" << n;
    ASSERT_EQ(as, av) << "adagrad acc n=" << n;

    rs = row0;
    rv = row0;
    scalar_.sgd_update(rs.data(), grad.data(), n, 0.01f);
    avx2_.sgd_update(rv.data(), grad.data(), n, 0.01f);
    ASSERT_EQ(rs, rv) << "sgd n=" << n;
  }
}

TEST_F(KernelsTest, GemmBlockAgreesWithinUlpsAndKeepsZeroSkip) {
  const size_t m = 7, k = 33, n = 19;
  auto a = RandomVec(m * k, 11);
  // Exercise the scalar aik == 0 fast path.
  for (size_t i = 0; i < a.size(); i += 5) a[i] = 0.0f;
  const auto b = RandomVec(k * n, 12);
  std::vector<float> out_s(m * n), out_v(m * n);
  scalar_.gemm_block(a.data(), k, b.data(), n, out_s.data(), n, m, k, n);
  avx2_.gemm_block(a.data(), k, b.data(), n, out_v.data(), n, m, k, n);
  for (size_t i = 0; i < out_s.size(); ++i) {
    EXPECT_LE(UlpDistance(out_s[i], out_v[i]), kReductionUlps) << i;
  }
}

TEST_F(KernelsTest, NanPropagatesThroughBothBackends) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (size_t n : {1u, 8u, 9u, 33u}) {
    auto a = RandomVec(n, 800 + n);
    const auto b = RandomVec(n, 900 + n);
    a[n / 2] = nan;
    for (const KernelTable* kt : {&scalar_, &avx2_}) {
      EXPECT_TRUE(std::isnan(kt->dot(a.data(), b.data(), n))) << n;
      EXPECT_TRUE(std::isnan(kt->l1(a.data(), n))) << n;
      EXPECT_TRUE(std::isnan(kt->squared_l2_distance(a.data(), b.data(), n)))
          << n;
      std::vector<float> out(n, 0.0f);
      kt->hadamard(a.data(), b.data(), out.data(), n);
      EXPECT_TRUE(std::isnan(out[n / 2])) << n;
      out.assign(n, 0.0f);
      kt->axpy(1.0f, a.data(), out.data(), n);
      EXPECT_TRUE(std::isnan(out[n / 2])) << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch selection.
// ---------------------------------------------------------------------------

TEST(KernelDispatchTest, ActiveTableMatchesReportedBackend) {
  // Whatever OPENEA_KERNELS said at startup, the active table must be the
  // table of the reported backend and the name must round-trip.
  const Backend active = ActiveBackend();
  EXPECT_EQ(&Active(), &Table(active));
  const char* name = BackendName(active);
  EXPECT_TRUE(std::strcmp(name, "scalar") == 0 ||
              std::strcmp(name, "avx2") == 0);
  if (active == Backend::kAvx2) {
    EXPECT_TRUE(Avx2Supported());
  }
}

TEST(KernelDispatchTest, ForcingUnavailableBackendIsRejected) {
  if (Avx2Supported()) GTEST_SKIP() << "AVX2 available; nothing to reject";
  const KernelTable* before = &Active();
  EXPECT_FALSE(SetBackendForTesting(Backend::kAvx2));
  EXPECT_EQ(&Active(), before);
}

TEST(KernelDispatchTest, SetBackendForTestingSwitchesAndRestores) {
  const Backend original = ActiveBackend();
  ASSERT_TRUE(SetBackendForTesting(Backend::kScalar));
  EXPECT_EQ(ActiveBackend(), Backend::kScalar);
  EXPECT_EQ(&Active(), &Table(Backend::kScalar));
  ASSERT_TRUE(SetBackendForTesting(original));
  EXPECT_EQ(ActiveBackend(), original);
}

// ---------------------------------------------------------------------------
// Pipeline-level determinism pins, run under whichever backend the ctest
// registration selected via OPENEA_KERNELS.
// ---------------------------------------------------------------------------

struct ThreadGuard {
  int saved = Threads();
  ~ThreadGuard() { SetThreads(saved); }
};

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  m.FillUniform(rng, 1.0f);
  return m;
}

TEST(KernelDeterminismTest, SimilarityBitIdenticalAtOneVsEightThreads) {
  ThreadGuard guard;
  const auto src = RandomMatrix(70, 33, 21);  // Odd dim: tail path in play.
  const auto tgt = RandomMatrix(80, 33, 22);
  for (auto metric :
       {align::DistanceMetric::kCosine, align::DistanceMetric::kEuclidean,
        align::DistanceMetric::kManhattan, align::DistanceMetric::kInner}) {
    SetThreads(1);
    const Matrix serial = align::SimilarityMatrix(src, tgt, metric);
    SetThreads(8);
    const Matrix parallel = align::SimilarityMatrix(src, tgt, metric);
    const std::vector<float> want(serial.Data().begin(),
                                  serial.Data().end());
    const std::vector<float> got(parallel.Data().begin(),
                                 parallel.Data().end());
    ASSERT_EQ(got, want) << "metric "
                         << align::DistanceMetricName(metric) << " backend "
                         << BackendName(ActiveBackend());
  }
}

TEST(KernelDeterminismTest, StreamingTopKMatchesDenseArgmaxExactly) {
  ThreadGuard guard;
  SetThreads(8);
  const auto src = RandomMatrix(60, 33, 31);
  const auto tgt = RandomMatrix(90, 33, 32);
  for (auto metric :
       {align::DistanceMetric::kCosine, align::DistanceMetric::kEuclidean,
        align::DistanceMetric::kManhattan, align::DistanceMetric::kInner}) {
    const Matrix sim = align::SimilarityMatrix(src, tgt, metric);
    align::TopKOptions options;
    options.k = 1;
    options.metric = metric;
    const align::TopKResult result = align::StreamingTopK(src, tgt, options);
    for (size_t i = 0; i < src.rows(); ++i) {
      const auto row = sim.Row(i);
      size_t best = 0;
      for (size_t j = 1; j < row.size(); ++j) {
        if (row[j] > row[best]) best = j;
      }
      ASSERT_EQ(result.entries[i].index, static_cast<int>(best)) << i;
      // Same cells through the same table kernels: exact equality.
      ASSERT_EQ(result.entries[i].value, row[best]) << i;
    }
  }
}

TEST(KernelDeterminismTest, EmbeddingUpdatesBitIdenticalAtOneVsEightThreads) {
  ThreadGuard guard;
  auto run = [&](int threads) {
    SetThreads(threads);
    Rng rng(77);
    EmbeddingTable table(50, 33, InitScheme::kUnit, rng);
    const auto grad = RandomVec(33, 5, 0.1f);
    for (int step = 0; step < 20; ++step) {
      table.ApplyGradient(static_cast<size_t>(step) % 50, grad, 0.01f);
      table.ApplySgd(static_cast<size_t>(step + 7) % 50, grad, 0.01f);
    }
    return std::vector<float>(table.Data().begin(), table.Data().end());
  };
  ASSERT_EQ(run(1), run(8)) << "backend " << BackendName(ActiveBackend());
}

}  // namespace
}  // namespace openea::math::kernels
