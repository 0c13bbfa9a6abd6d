// Tests for the runtime-dispatched kernel layer (src/math/kernels.h,
// DESIGN.md "Kernel dispatch"):
//  * the scalar and AVX2 backends agree bitwise on every elementwise kernel
//    (axpy/scale/add/sub/hadamard, the fused optimizer updates and the
//    TransE residual/update pair), on odd tail lengths and unaligned spans
//    included;
//  * reduction kernels (dot, norms, distances, GEMM) agree within a small
//    ULP tolerance (the AVX2 backend reassociates the accumulation);
//  * NaNs propagate instead of being masked;
//  * the alignment pipeline stays bit-identical at 1 vs 8 threads, and the
//    dense similarity matrix stays bit-identical to the streaming top-k,
//    under whichever backend is active;
//  * the fused TransE pair step equals the unfused one it replaced, every
//    registered approach trains to pinned embeddings (and the bootstrapping
//    ones to pinned traces), and every triple model scores pinned values
//    after seeded pair steps.
// The ctest registration runs this binary twice — once under the startup
// default and once with OPENEA_KERNELS=scalar — so both dispatch settings
// are pinned.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/align/similarity.h"
#include "src/align/topk.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/core/registry.h"
#include "src/datagen/kg_pair.h"
#include "src/embedding/translational.h"
#include "src/eval/folds.h"
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

/// Bit patterns mixed into the exactness sweeps: two NaNs of either sign,
/// the infinities, both zeros and subnormals.
float FromBits(uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}
const float kSpecials[] = {FromBits(0x7FC00001u), FromBits(0xFFC12345u),
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity(),
                           0.0f, -0.0f, FromBits(0x00000003u),
                           FromBits(0x807FFFFFu)};

/// RandomVec with a special value every `every` elements (cycling through
/// kSpecials from a seed-dependent start).
std::vector<float> MixedVec(size_t n, uint64_t seed, size_t every) {
  std::vector<float> v = RandomVec(n, seed);
  size_t s = seed % std::size(kSpecials);
  for (size_t i = seed % every; i < n; i += every) {
    v[i] = kSpecials[s++ % std::size(kSpecials)];
  }
  return v;
}

/// Bitwise equality (so -0 != +0), except that any NaN equals any NaN: NaN
/// payloads are not part of the kernel contract, because the compiler may
/// commute the operands of an add and so pick which of two NaNs survives.
bool SameBits(const float* a, const float* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::memcmp(a + i, b + i, sizeof(float)) != 0) return false;
  }
  return true;
}

TEST_F(KernelsTest, RowBatchesMatchTheirCellKernelExactly) {
  // The *_rows kernels must produce the same float as calling the cell
  // kernel per row — within one backend this is exact, which is what keeps
  // the dense similarity matrix and the streaming top-k bit-identical.
  // Compared bitwise (EXPECT_EQ passes -0 == +0 and fails on NaN) over
  // every block length 0..40 (full 8-row groups plus every remainder), every
  // row length of the tail sweep, a row stride wider than the row, and
  // inputs holding NaNs, infinities, signed zeros and subnormals.
  constexpr size_t kMaxRows = 40;
  constexpr float kSentinel = 12345.0f;  // Past the block: must stay put.
  using RowsFn = void (*)(const float*, const float*, size_t, float*, size_t,
                          size_t);
  using CellFn = float (*)(const float*, const float*, size_t);
  for (size_t n : kLengths) {
    const size_t ldb = n + 3;
    for (int inputs = 0; inputs < 3; ++inputs) {
      const auto a = inputs == 2 ? MixedVec(n, 10 + n, 5) : RandomVec(n, 10 + n);
      const auto b = inputs == 0 ? RandomVec(kMaxRows * ldb, 20 + n)
                                 : MixedVec(kMaxRows * ldb, 20 + n, 7);
      for (const KernelTable* kt : {&scalar_, &avx2_}) {
        const std::pair<RowsFn, CellFn> kernels[] = {
            {kt->dot_rows, kt->dot},
            {kt->squared_l2_distance_rows, kt->squared_l2_distance},
            {kt->l1_distance_rows, kt->l1_distance}};
        for (size_t kernel = 0; kernel < std::size(kernels); ++kernel) {
          const auto [rows_fn, cell_fn] = kernels[kernel];
          for (size_t rows = 0; rows <= kMaxRows; ++rows) {
            std::vector<float> got(rows + 1, kSentinel);
            std::vector<float> want(rows + 1, kSentinel);
            rows_fn(a.data(), b.data(), ldb, got.data(), rows, n);
            for (size_t r = 0; r < rows; ++r) {
              want[r] = cell_fn(a.data(), b.data() + r * ldb, n);
            }
            ASSERT_TRUE(SameBits(got.data(), want.data(), rows + 1))
                << (kt == &scalar_ ? "scalar" : "avx2") << " kernel "
                << kernel << " n=" << n << " rows=" << rows
                << " inputs=" << inputs;
          }
        }
      }
    }
  }
}

/// A k-entry top-k list fed by the scan epilogue's `offer` hook, tightening
/// the admission bound the way the streaming top-k does.
struct OfferedList {
  std::vector<align::TopKEntry> ents;
  size_t count = 0;
  ScanBound bound;
};

void OfferInto(void* ctx, float v, size_t pos) {
  OfferedList& list = *static_cast<OfferedList*>(ctx);
  const size_t k = list.ents.size();
  align::detail::TopKInsert(list.ents.data(), list.count, k, v,
                            static_cast<int>(pos));
  if (list.count == k) list.bound = {list.ents[k - 1].value, false};
}

struct EpilogueRun {
  std::vector<float> cells;
  ScanCounts counts;
  OfferedList list;
};

EpilogueRun RunEpilogue(const KernelTable& kt, ScanEpilogue tile,
                        std::vector<float> cells, const OfferedList& start,
                        bool count, bool offer) {
  EpilogueRun run;
  run.cells = std::move(cells);
  run.list = start;
  if (offer) {
    tile.bound = &run.list.bound;
    tile.offer = OfferInto;
    tile.ctx = &run.list;
  }
  kt.scan_epilogue(tile, run.cells.data(), run.cells.size(),
                   count ? &run.counts : nullptr);
  return run;
}

TEST_F(KernelsTest, ScanEpilogueMatchesScalarReferenceExactly) {
  // The AVX2 epilogue must give the scalar reference's finished cells bit
  // for bit and the same NaN, greater and tie counts and top-k list, for
  // every finish, with and without CSLS, over every tile length 0..40 (full
  // 8-cell groups plus the padded remainder), with the true column in
  // several lane positions, and an empty or already full top-k list whose
  // k-th value ties cells of the tile.
  const CellFinish kFinishes[] = {CellFinish::kNone, CellFinish::kCosine,
                                  CellFinish::kNegSqrt, CellFinish::kNegate};
  constexpr size_t kK = 5;
  for (size_t count = 0; count <= 40; ++count) {
    std::vector<float> raw = MixedVec(count, 500 + count, 6);
    // Repeated values so that ties with the true cell and the k-th value
    // cross group boundaries.
    for (size_t j = 3; j < count; j += 5) raw[j] = raw[j - 3];
    std::vector<float> norms = RandomVec(count, 600 + count);
    for (size_t j = 0; j < count; ++j) {
      norms[j] = j % 9 == 4 ? 1e-13f : std::fabs(norms[j]) + 0.5f;
    }
    if (count > 2) norms[2] = std::numeric_limits<float>::quiet_NaN();
    const std::vector<float> psi = MixedVec(count, 700 + count, 11);
    for (CellFinish finish : kFinishes) {
      for (bool csls : {false, true}) {
        ScanEpilogue tile;
        tile.finish = finish;
        tile.na = count % 4 == 1 ? 1e-13f : 0.8f;
        tile.tgt_norms = norms.data();
        tile.psi_src = 0.25f;
        tile.psi_tgt = csls ? psi.data() : nullptr;
        // The finished cells, to pick true values and list bounds from.
        const std::vector<float> finished =
            RunEpilogue(scalar_, tile, raw, {}, false, false).cells;
        const size_t true_positions[] = {0, count / 2, count - 1, count,
                                         static_cast<size_t>(-1)};
        for (size_t true_pos : true_positions) {
          tile.count_true = true_pos != static_cast<size_t>(-1);
          tile.true_pos = true_pos;
          tile.true_val = true_pos < count ? finished[true_pos] : 0.5f;
          // Empty list, and a full list whose k-th value is a finished cell.
          OfferedList empty;
          empty.ents.assign(kK, align::TopKEntry{});
          OfferedList full = empty;
          full.count = kK;
          float kth = 0.5f;
          for (size_t j = count / 3; j < count; ++j) {
            if (!std::isnan(finished[j])) {
              kth = finished[j];
              break;
            }
          }
          for (size_t t = 0; t < kK; ++t) {
            full.ents[t] = {kth, -static_cast<int>(kK - t)};
          }
          full.bound = {kth, false};
          for (const OfferedList* start : {&empty, &full}) {
            const EpilogueRun want =
                RunEpilogue(scalar_, tile, raw, *start, true, true);
            const EpilogueRun got =
                RunEpilogue(avx2_, tile, raw, *start, true, true);
            const std::string label =
                "count=" + std::to_string(count) + " finish=" +
                std::to_string(static_cast<int>(finish)) +
                " csls=" + std::to_string(csls) +
                " true_pos=" + std::to_string(true_pos) +
                " full=" + std::to_string(start == &full);
            ASSERT_TRUE(SameBits(got.cells.data(), want.cells.data(), count))
                << label;
            ASSERT_TRUE(SameBits(want.cells.data(), finished.data(), count))
                << label;
            EXPECT_EQ(got.counts.nan, want.counts.nan) << label;
            EXPECT_EQ(got.counts.greater, want.counts.greater) << label;
            EXPECT_EQ(got.counts.ties, want.counts.ties) << label;
            ASSERT_EQ(got.list.count, want.list.count) << label;
            for (size_t t = 0; t < want.list.count; ++t) {
              EXPECT_TRUE(SameBits(&got.list.ents[t].value,
                                   &want.list.ents[t].value, 1))
                  << label << " t=" << t;
              EXPECT_EQ(got.list.ents[t].index, want.list.ents[t].index)
                  << label << " t=" << t;
            }
            // The reference itself against the plain definitions.
            uint64_t nan = 0;
            uint32_t greater = 0, ties = 0;
            std::vector<align::TopKEntry> all(
                start->ents.begin(), start->ents.begin() + start->count);
            for (size_t j = 0; j < count; ++j) {
              const float v = finished[j];
              if (std::isnan(v)) {
                ++nan;
                continue;
              }
              all.push_back({v, static_cast<int>(j)});
              if (!tile.count_true || j == true_pos) continue;
              greater += v > tile.true_val;
              ties += v == tile.true_val;
            }
            std::sort(all.begin(), all.end(),
                      [](const align::TopKEntry& x, const align::TopKEntry& y) {
                        return align::detail::TopKBetter(x.value, x.index, y);
                      });
            all.resize(std::min(all.size(), kK));
            EXPECT_EQ(want.counts.nan, nan) << label;
            EXPECT_EQ(want.counts.greater, greater) << label;
            EXPECT_EQ(want.counts.ties, ties) << label;
            ASSERT_EQ(want.list.count, all.size()) << label;
            for (size_t t = 0; t < all.size(); ++t) {
              EXPECT_TRUE(SameBits(&want.list.ents[t].value, &all[t].value, 1))
                  << label << " t=" << t;
              EXPECT_EQ(want.list.ents[t].index, all[t].index)
                  << label << " t=" << t;
            }
          }
        }
      }
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

TEST_F(KernelsTest, TranslationKernelsBitIdenticalAcrossBackends) {
  for (size_t n = 1; n <= 40; ++n) {
    // Rows at odd offsets: unaligned loads and every tail length.
    const auto h = RandomVec(n + 1, 800 + n);
    const auto r = RandomVec(n + 1, 900 + n);
    const auto t = RandomVec(n + 1, 1000 + n);
    std::vector<float> res_s(n), res_v(n);
    const float es = scalar_.translation_residual(h.data() + 1, r.data() + 1,
                                                  t.data() + 1, res_s.data(),
                                                  n);
    const float ev = avx2_.translation_residual(h.data() + 1, r.data() + 1,
                                                t.data() + 1, res_v.data(), n);
    ASSERT_EQ(es, ev) << "energy n=" << n;
    ASSERT_EQ(res_s, res_v) << "residual n=" << n;
    // The energy is the sequential sum, not a reassociated one.
    float sequential = 0.0f;
    for (size_t i = 0; i < n; ++i) {
      const float v = h[i + 1] + r[i + 1] - t[i + 1];
      sequential += v * v;
    }
    ASSERT_EQ(es, sequential) << "sequential energy n=" << n;

    // The gradient of a negative under BootEA's limit loss, w = 0.5.
    const float scale = -0.5f * 2.0f;
    std::vector<float> g(n), neg_g(n);
    for (size_t i = 0; i < n; ++i) {
      g[i] = scale * res_s[i];
      neg_g[i] = -g[i];
    }
    auto acc0 = RandomVec(3 * n, 1100 + n, 0.5f);
    for (float& a : acc0) a = std::fabs(a);
    // Rows [head | tail | relation | their three accumulators]; a
    // self-loop's tail is the head row.
    auto fresh = [&] {
      std::vector<float> rows(h.begin() + 1, h.end());
      rows.insert(rows.end(), t.begin() + 1, t.end());
      rows.insert(rows.end(), r.begin() + 1, r.end());
      rows.insert(rows.end(), acc0.begin(), acc0.end());
      return rows;
    };
    for (const bool self_loop : {false, true}) {
      const size_t tail = self_loop ? 0 : n;
      auto fused = [&](const KernelTable& table) {
        std::vector<float> rows = fresh();
        float* acc = rows.data() + 3 * n;
        TranslationStep step;
        step.head = rows.data();
        step.head_acc = acc;
        step.relation = rows.data() + 2 * n;
        step.relation_acc = acc + 2 * n;
        step.tail = rows.data() + tail;
        step.tail_acc = acc + tail;
        step.residual = res_s.data();
        step.scale = scale;
        step.lr = 0.05f;
        step.eps = 1e-8f;
        table.translation_update(step, n);
        return rows;
      };
      // The reference: three adagrad_update calls, head, relation, tail.
      std::vector<float> want = fresh();
      float* acc = want.data() + 3 * n;
      scalar_.adagrad_update(want.data(), acc, g.data(), n, 0.05f, 1e-8f);
      scalar_.adagrad_update(want.data() + 2 * n, acc + 2 * n, g.data(), n,
                             0.05f, 1e-8f);
      scalar_.adagrad_update(want.data() + tail, acc + tail, neg_g.data(), n,
                             0.05f, 1e-8f);
      ASSERT_EQ(fused(scalar_), want) << "scalar n=" << n << " " << self_loop;
      ASSERT_EQ(fused(avx2_), want) << "avx2 n=" << n << " " << self_loop;
    }
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

// ---------------------------------------------------------------------------
// The fused TransE pair step (translation_residual + translation_update)
// against a verbatim copy of the unfused step it replaced, under whichever
// backend the ctest registration selected.
// ---------------------------------------------------------------------------

/// TransEModel's pair step before the translation kernels: temporary
/// residual and gradient rows, a scalar residual loop, and six
/// ApplyGradient calls. Kept verbatim as the bitwise reference.
struct UnfusedTransE {
  embedding::TripleModelOptions options_;
  embedding::TransEModel::LimitLoss limit_;
  EmbeddingTable entities_;
  EmbeddingTable relations_;

  struct PairGate {
    bool active = false;
    float loss = 0.0f;
  };

  static PairGate MarginGate(float margin, float pos_energy,
                             float neg_energy) {
    PairGate gate;
    const float raw = margin + pos_energy - neg_energy;
    if (raw > 0.0f) {
      gate.active = true;
      gate.loss = raw;
    }
    return gate;
  }

  float Energy(const kg::Triple& t, std::span<float> residual) const {
    const auto h = entities_.Row(t.head);
    const auto r = relations_.Row(t.relation);
    const auto tl = entities_.Row(t.tail);
    float energy = 0.0f;
    for (size_t i = 0; i < residual.size(); ++i) {
      residual[i] = h[i] + r[i] - tl[i];
      energy += residual[i] * residual[i];
    }
    return energy;
  }

  float TrainOnPair(const kg::Triple& pos, const kg::Triple& neg) {
    const size_t d = options_.dim;
    std::vector<float> rp(d), rn(d), grad(d);
    const float ep = Energy(pos, rp);
    const float en = Energy(neg, rn);
    const float lr = options_.learning_rate;

    auto descend = [&](const kg::Triple& t, std::span<const float> residual,
                       float direction) {
      // dE/dh = 2 residual; dE/dr = 2 residual; dE/dt = -2 residual.
      for (size_t i = 0; i < d; ++i) grad[i] = direction * 2.0f * residual[i];
      entities_.ApplyGradient(t.head, grad, lr);
      relations_.ApplyGradient(t.relation, grad, lr);
      for (size_t i = 0; i < d; ++i) grad[i] = -grad[i];
      entities_.ApplyGradient(t.tail, grad, lr);
    };

    if (limit_.enabled) {
      // Limit-based loss (BootEA): max(0, E(pos) - l_pos) +
      // w * max(0, l_neg - E(neg)).
      float loss = 0.0f;
      if (ep > limit_.limit_pos) {
        descend(pos, rp, +1.0f);
        loss += ep - limit_.limit_pos;
      }
      if (en < limit_.limit_neg) {
        descend(neg, rn, -limit_.neg_weight);
        loss += limit_.neg_weight * (limit_.limit_neg - en);
      }
      return loss;
    }

    const PairGate gate = MarginGate(options_.margin, ep, en);
    if (!gate.active) return 0.0f;
    descend(pos, rp, +1.0f);
    descend(neg, rn, -1.0f);
    return gate.loss;
  }

  float TrainOnPositive(const kg::Triple& pos) {
    // MTransE-style positive-only energy minimization.
    const size_t d = options_.dim;
    std::vector<float> residual(d), grad(d);
    const float energy = Energy(pos, residual);
    const float lr = options_.learning_rate;
    for (size_t i = 0; i < d; ++i) grad[i] = 2.0f * residual[i];
    entities_.ApplyGradient(pos.head, grad, lr);
    relations_.ApplyGradient(pos.relation, grad, lr);
    for (size_t i = 0; i < d; ++i) grad[i] = -grad[i];
    entities_.ApplyGradient(pos.tail, grad, lr);
    return energy;
  }

  float ScoreTriple(const kg::Triple& t) const {
    std::vector<float> residual(options_.dim);
    return -Energy(t, residual);
  }
};

std::vector<uint32_t> Bits(std::span<const float> values) {
  std::vector<uint32_t> bits(values.size());
  if (!values.empty()) {
    std::memcpy(bits.data(), values.data(), values.size() * sizeof(float));
  }
  return bits;
}

uint32_t Bits(float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void ExpectTablesBitIdentical(const EmbeddingTable& got,
                              const EmbeddingTable& want,
                              const std::string& what) {
  ASSERT_EQ(Bits(got.Data()), Bits(want.Data())) << what << " rows";
  ASSERT_EQ(Bits(got.AdagradData()), Bits(want.AdagradData()))
      << what << " AdaGrad state";
}

TEST(TransEPairStepTest, FusedStepMatchesUnfusedBitForBit) {
  // Few rows, so heads, tails and corruptions collide often.
  constexpr size_t kEntities = 7;
  constexpr size_t kRelations = 3;
  constexpr int kPairs = 120;
  size_t active[2] = {}, inactive[2] = {};
  for (size_t d = 1; d <= 40; ++d) {
    for (const bool limit : {false, true}) {
      embedding::TripleModelOptions options;
      options.dim = d;
      options.margin = d % 2 == 0 ? 0.5f : 1.5f;
      embedding::TransEModel::LimitLoss limit_loss;
      limit_loss.enabled = limit;
      // Each limit pair alternates which of its two hinges are open.
      const float kLimitPos[] = {0.2f, 1.0f, 3.0f};
      const float kLimitNeg[] = {2.5f, 2.5f, 1.0f};
      limit_loss.limit_pos = kLimitPos[d % 3];
      limit_loss.limit_neg = kLimitNeg[d % 3];
      Rng init(1000 + d);
      embedding::TransEModel model(kEntities, kRelations, options, init,
                                   limit_loss);
      UnfusedTransE ref{options, limit_loss, model.entity_table(),
                        model.relation_table()};
      const std::string where = "d=" + std::to_string(d) +
                                (limit ? " limit" : " margin") + " backend " +
                                BackendName(ActiveBackend());
      Rng draw(2000 + d);
      auto entity = [&] {
        return static_cast<kg::EntityId>(draw.NextBounded(kEntities));
      };
      for (int step = 0; step < kPairs; ++step) {
        kg::Triple pos{entity(),
                       static_cast<kg::RelationId>(
                           draw.NextBounded(kRelations)),
                       entity()};
        if (step % 9 == 0) pos.tail = pos.head;  // A self-loop.
        kg::Triple neg = pos;
        switch (step % 5) {
          case 0: neg.head = entity(); break;
          case 1: neg.tail = entity(); break;
          case 2: break;  // The negative equals the positive.
          case 3: neg.head = pos.tail; break;  // Replacement = other end.
          case 4: neg.tail = pos.head; break;
        }
        const float want = ref.TrainOnPair(pos, neg);
        const float got = model.TrainOnPair(pos, neg);
        ASSERT_EQ(Bits(got), Bits(want)) << where << " pair " << step;
        ++(want > 0.0f ? active : inactive)[limit];
      }
      ExpectTablesBitIdentical(model.entity_table(), ref.entities_,
                               where + " entities");
      ExpectTablesBitIdentical(model.relation_table(), ref.relations_,
                               where + " relations");
      for (int step = 0; step < 20; ++step) {
        kg::Triple pos{entity(),
                       static_cast<kg::RelationId>(
                           draw.NextBounded(kRelations)),
                       entity()};
        if (step % 4 == 0) pos.tail = pos.head;
        ASSERT_EQ(Bits(model.TrainOnPositive(pos)),
                  Bits(ref.TrainOnPositive(pos)))
            << where << " positive " << step;
        ASSERT_EQ(Bits(model.ScoreTriple(pos)), Bits(ref.ScoreTriple(pos)))
            << where << " score " << step;
      }
      ExpectTablesBitIdentical(model.entity_table(), ref.entities_,
                               where + " entities after positives");
      ExpectTablesBitIdentical(model.relation_table(), ref.relations_,
                               where + " relations after positives");
    }
  }
  // Both losses took and skipped updates many times over.
  for (int limit = 0; limit < 2; ++limit) {
    EXPECT_GT(active[limit], 400u) << "limit " << limit;
    EXPECT_GT(inactive[limit], 400u) << "limit " << limit;
  }
}

// FNV-1a digests of the final embeddings of every registered approach,
// of the semi-supervised traces of the bootstrapping approaches and of
// triple scores after seeded pair steps, on small seeded inputs, one per
// backend, taken at two threads. Any change to a training float changes
// them.
void HashBytes(const void* data, size_t bytes, uint64_t& h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
}

constexpr uint64_t kFnvBasis = 1469598103934665603ULL;

uint64_t HashModel(const core::AlignmentModel& model) {
  uint64_t h = kFnvBasis;
  for (const Matrix* m : {&model.emb1, &model.emb2}) {
    const uint64_t shape[2] = {m->rows(), m->cols()};
    HashBytes(shape, sizeof(shape), h);
    HashBytes(m->Data().data(), m->size() * sizeof(float), h);
  }
  return h;
}

uint64_t HashTrace(const std::vector<core::IterationStat>& trace) {
  uint64_t h = kFnvBasis;
  for (const core::IterationStat& s : trace) {
    HashBytes(&s.iteration, sizeof(s.iteration), h);
    HashBytes(&s.precision, sizeof(s.precision), h);
    HashBytes(&s.recall, sizeof(s.recall), h);
    HashBytes(&s.f1, sizeof(s.f1), h);
  }
  return h;
}

TEST(TrainPinTest, RegisteredApproachesTrainBitIdentically) {
  datagen::SyntheticKgConfig kg_config;
  kg_config.num_entities = 300;
  kg_config.avg_degree = 6.0;
  kg_config.num_relations = 15;
  kg_config.num_attributes = 12;
  kg_config.vocabulary_size = 150;
  kg_config.seed = 77;
  const datagen::DatasetPair pair = GenerateDatasetPair(
      kg_config, datagen::HeterogeneityProfile::EnFr(), 77);
  const auto folds = eval::MakeFolds(pair.reference, 5, 0.1, 3);
  core::AlignmentTask task;
  task.kg1 = &pair.kg1;
  task.kg2 = &pair.kg2;
  task.train = folds[0].train;
  task.valid = folds[0].valid;
  task.test = folds[0].test;
  task.dictionary = &pair.dictionary;

  // {approach, scalar pin, avx2 pin}, one row per registered approach.
  // MultiKE runs TransE's margin loss, BootEA its limit loss, MTransE its
  // positive-only step; the MTransE chassis runs every other triple model.
  const struct {
    const char* name;
    uint64_t pin[2];
  } kPins[] = {
      {"MTransE", {0xde84254b7e6a27a4ULL, 0xc922365114b86608ULL}},
      {"IPTransE", {0x5ea7ff37f2f23a71ULL, 0x676f1af9644947cULL}},
      {"JAPE", {0x6b2b64143db5e7e8ULL, 0xbeecff932aeb91cdULL}},
      {"KDCoE", {0x146a11f5da654ae2ULL, 0x98e93c1475547edULL}},
      {"BootEA", {0x9ad403298b0131ddULL, 0xdc0067dcfb8df578ULL}},
      {"GCNAlign", {0xbe09350723edeb34ULL, 0x7ddb877c1683f945ULL}},
      {"AttrE", {0x8d0916e32fa90abaULL, 0x89b6f233e699cd6dULL}},
      {"IMUSE", {0xbc9525347432b029ULL, 0x2687f07afa84431ULL}},
      {"SEA", {0x3a8708f676a51c46ULL, 0xb93fca96b582bf89ULL}},
      {"RSN4EA", {0x87cfa4189276cc76ULL, 0xcacaa293fa299b46ULL}},
      {"MultiKE", {0xf82c08106c7339e7ULL, 0x57db6388cb0b6a26ULL}},
      {"RDGCN", {0xea4ef926788078d4ULL, 0x3db49cc0cec6c9a3ULL}},
      {"AliNet", {0xb0969cc72665fce1ULL, 0xedb5c4a4128d6dbULL}},
      {"UnsupervisedEA", {0x7a0d77d52130df7aULL, 0xf75790ed13b96aa2ULL}},
      {"MTransE-TransH", {0x20374d47c2c199f7ULL, 0xa1f63461c507423dULL}},
      {"MTransE-TransR", {0xa33d6024ccc47077ULL, 0xc5c858049bd2146aULL}},
      {"MTransE-TransD", {0x35f425abf48e25beULL, 0xd8184282f4279424ULL}},
      {"MTransE-HolE", {0x5b7b268f3dfd7f9aULL, 0x3061cdf0319d5b7bULL}},
      {"MTransE-SimplE", {0x280b494e808dcd5eULL, 0x6834a93c77a55488ULL}},
      {"MTransE-ComplEx", {0x32465970fa557571ULL, 0xce8639e338afbbc8ULL}},
      {"MTransE-RotatE", {0xae4abc6175a075e0ULL, 0x1b0295b8906b5ae2ULL}},
      {"MTransE-DistMult", {0xb2fe4aa20967e2beULL, 0x7c7e675ac475707bULL}},
      {"MTransE-ProjE", {0xd6604f861329e2b4ULL, 0x131a560cc569cb59ULL}},
      {"MTransE-ConvE", {0xd10e8ac5c0700ae3ULL, 0xfa0bf340200579e5ULL}},
  };
  // The bootstrapping approaches also pin their semi-supervised trace: it
  // records what each evaluation proposed.
  const struct {
    const char* name;
    uint64_t pin[2];
  } kTracePins[] = {
      {"IPTransE", {0x27a55a38a1eb875bULL, 0x27a55a38a1eb875bULL}},
      {"KDCoE", {0xf6a6242cbbb500b1ULL, 0xf6a6242cbbb500b1ULL}},
      {"BootEA", {0xbdecab70a8531f85ULL, 0xbdecab70a8531f85ULL}},
  };
  std::vector<std::string> pinned;
  for (const auto& pin : kPins) pinned.push_back(pin.name);
  EXPECT_EQ(pinned, core::RegisteredApproachNames());

  // Run at one thread against pins taken at two threads, where the epoch
  // trainers already drew their negatives shard by shard from forked streams:
  // this asserts that one thread trains the same model as two.
  ThreadGuard guard;
  SetThreads(1);
  const int backend = ActiveBackend() == Backend::kAvx2 ? 1 : 0;
  for (const auto& pin : kPins) {
    core::TrainConfig config;
    config.max_epochs = 12;
    config.eval_every = 4;
    config.seed = 5;
    const core::AlignmentModel model =
        core::CreateApproachOrDie(pin.name, config)->Train(task);
    const uint64_t h = HashModel(model);
    EXPECT_EQ(h, pin.pin[backend])
        << pin.name << " backend " << BackendName(ActiveBackend()) << ": 0x"
        << std::hex << h << "ULL";
    for (const auto& trace_pin : kTracePins) {
      if (std::string(trace_pin.name) != pin.name) continue;
      EXPECT_FALSE(model.semi_supervised_trace.empty()) << pin.name;
      const uint64_t t = HashTrace(model.semi_supervised_trace);
      EXPECT_EQ(t, trace_pin.pin[backend])
          << pin.name << " trace backend " << BackendName(ActiveBackend())
          << ": 0x" << std::hex << t << "ULL";
    }
  }
}

TEST(TrainPinTest, TripleModelsScoreBitIdentically) {
  // {kind, scalar pin, avx2 pin} over the pair losses and the scores of a
  // fixed set of triples after seeded pair steps.
  const struct {
    embedding::TripleModelKind kind;
    uint64_t pin[2];
  } kPins[] = {
      {embedding::TripleModelKind::kTransE,
       {0x32493f0df596e154ULL, 0xe0b6ef3a026c5c25ULL}},
      {embedding::TripleModelKind::kTransH,
       {0x1cc7edecbbfeee4eULL, 0x4ac88e0a82263f8fULL}},
      {embedding::TripleModelKind::kTransR,
       {0xdda23d95b1b76cdULL, 0x12a50c650718a861ULL}},
      {embedding::TripleModelKind::kTransD,
       {0x8ff636981f0f80b5ULL, 0xea986110e0bbddfdULL}},
      {embedding::TripleModelKind::kHolE,
       {0x1fc5db1f5f289b7fULL, 0x7cb0bdb77375d71bULL}},
      {embedding::TripleModelKind::kSimplE,
       {0x8828fcc2e85b500cULL, 0xe4409fc60ff3b802ULL}},
      {embedding::TripleModelKind::kComplEx,
       {0xc851a60e35d47282ULL, 0x27789370dd605b45ULL}},
      {embedding::TripleModelKind::kRotatE,
       {0xfd76774af48f9c25ULL, 0x7f2ee162c7cbf0b7ULL}},
      {embedding::TripleModelKind::kDistMult,
       {0x1d9a7f1d31eb5c74ULL, 0xa2b91994bccdf62dULL}},
      {embedding::TripleModelKind::kProjE,
       {0x2ca0310b832f943aULL, 0xd3f7844fb434ab45ULL}},
      {embedding::TripleModelKind::kConvE,
       {0x7b7fb21aedcc58bcULL, 0xf0bfb7f8518d976cULL}},
  };
  constexpr size_t kEntities = 40;
  constexpr size_t kRelations = 6;
  const int backend = ActiveBackend() == Backend::kAvx2 ? 1 : 0;
  for (const auto& pin : kPins) {
    embedding::TripleModelOptions options;
    options.dim = 24;
    Rng init(11);
    auto model = embedding::CreateTripleModel(pin.kind, kEntities, kRelations,
                                              options, init);
    Rng draw(13);
    auto triple = [&] {
      return kg::Triple{
          static_cast<kg::EntityId>(draw.NextBounded(kEntities)),
          static_cast<kg::RelationId>(draw.NextBounded(kRelations)),
          static_cast<kg::EntityId>(draw.NextBounded(kEntities))};
    };
    uint64_t h = kFnvBasis;
    for (int step = 0; step < 300; ++step) {
      const kg::Triple pos = triple();
      kg::Triple neg = pos;
      neg.tail = static_cast<kg::EntityId>(draw.NextBounded(kEntities));
      const uint32_t loss = Bits(model->TrainOnPair(pos, neg));
      HashBytes(&loss, sizeof(loss), h);
    }
    for (int i = 0; i < 100; ++i) {
      const uint32_t score = Bits(model->ScoreTriple(triple()));
      HashBytes(&score, sizeof(score), h);
    }
    EXPECT_EQ(h, pin.pin[backend])
        << embedding::TripleModelKindName(pin.kind) << " backend "
        << BackendName(ActiveBackend()) << ": 0x" << std::hex << h << "ULL";
  }
}

}  // namespace
}  // namespace openea::math::kernels
