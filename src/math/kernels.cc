#include "src/math/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "src/math/kernels_internal.h"

namespace openea::math::kernels {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference backend. These loops are the historical hand-rolled
// kernels moved behind the table verbatim: same statement order, same
// accumulation order, so a forced-scalar run is bit-identical to the
// pre-dispatch library. Nothing here may be "improved" without regenerating
// every committed baseline recorded under the scalar pin.
// ---------------------------------------------------------------------------

float ScalarDot(const float* a, const float* b, size_t n) {
  float sum = 0.0f;
  for (size_t i = 0; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

float ScalarSquaredL2(const float* x, size_t n) { return ScalarDot(x, x, n); }

float ScalarL1(const float* x, size_t n) {
  float sum = 0.0f;
  for (size_t i = 0; i < n; ++i) sum += std::fabs(x[i]);
  return sum;
}

float ScalarSquaredL2Distance(const float* a, const float* b, size_t n) {
  float sum = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

float ScalarL1Distance(const float* a, const float* b, size_t n) {
  float sum = 0.0f;
  for (size_t i = 0; i < n; ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

void ScalarDotRows(const float* a, const float* b, size_t ldb, float* out,
                   size_t rows, size_t n) {
  for (size_t r = 0; r < rows; ++r) out[r] = ScalarDot(a, b + r * ldb, n);
}

void ScalarSquaredL2DistanceRows(const float* a, const float* b, size_t ldb,
                                 float* out, size_t rows, size_t n) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = ScalarSquaredL2Distance(a, b + r * ldb, n);
  }
}

void ScalarL1DistanceRows(const float* a, const float* b, size_t ldb,
                          float* out, size_t rows, size_t n) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = ScalarL1Distance(a, b + r * ldb, n);
  }
}

// The cell kernel's finishing loops and the top-k scan's per-cell loop, in
// their historical statement order (so forced-scalar results keep every
// bit). The admission check before `offer` only skips cells TopKInsert
// would reject (DESIGN.md, "Streaming top-k similarity").
void ScalarScanEpilogue(const ScanEpilogue& tile, float* cells, size_t count,
                        ScanCounts* counts) {
  switch (tile.finish) {
    case CellFinish::kCosine:
      for (size_t r = 0; r < count; ++r) {
        const float nb = tile.tgt_norms[r];
        cells[r] = (tile.na < 1e-12f || nb < 1e-12f)
                       ? 0.0f
                       : cells[r] / (tile.na * nb);
      }
      break;
    case CellFinish::kNegSqrt:
      for (size_t r = 0; r < count; ++r) cells[r] = -std::sqrt(cells[r]);
      break;
    case CellFinish::kNegate:
      for (size_t r = 0; r < count; ++r) cells[r] = -cells[r];
      break;
    case CellFinish::kNone:
      break;
  }
  if (tile.psi_tgt != nullptr) {
    for (size_t j = 0; j < count; ++j) {
      cells[j] = 2.0f * cells[j] - tile.psi_src - tile.psi_tgt[j];
    }
  }
  if (counts == nullptr) return;
  for (size_t j = 0; j < count; ++j) {
    const float v = cells[j];
    if (std::isnan(v)) {
      ++counts->nan;
      continue;
    }
    if (tile.offer != nullptr &&
        (tile.bound->open || v > tile.bound->value)) {
      tile.offer(tile.ctx, v, j);
    }
    if (tile.count_true && j != tile.true_pos) {
      if (v > tile.true_val) {
        ++counts->greater;
      } else if (v == tile.true_val) {
        ++counts->ties;
      }
    }
  }
}

// The kCosine finish of the epilogue above, for one cell.
inline float CosineCell(float dot, float na, float nb) {
  return (na < 1e-12f || nb < 1e-12f) ? 0.0f : dot / (na * nb);
}

// Tallies one exact cell the way the epilogue's count loop does.
inline void TallyCell(float v, float true_val, ScanCounts& counts) {
  if (std::isnan(v)) {
    ++counts.nan;
  } else if (v > true_val) {
    ++counts.greater;
  } else if (v == true_val) {
    ++counts.ties;
  }
}

// Cosine ranking and top-1 by decision (kernels.h, RankTile). A cell's
// decision value is its dot product times the two reciprocal norms; a cell
// inside its row's band is finished exactly from the same dot product,
// since ScalarDot is also the exact cell's (dot_rows) dot product here.
// The two kernels differ only in their band-cell policy: Band() sets row
// r's band, Above() takes a cell above it and Exact() the exact cell v at
// column j, which may move the band's lower edge `*lo`.
template <class Cells>
void ScalarDecide(const RankTile& tile, const Cells& cells) {
  const double margin = RankMargin(tile.n);
  float inv_na[kRankGroup], lo[kRankGroup], hi[kRankGroup];
  for (size_t r = 0; r < tile.count; ++r) {
    inv_na[r] = 1.0f / tile.row_norms[r];
    cells.Band(r, margin, &lo[r], &hi[r]);
  }
  for (size_t j = 0; j < tile.cols; ++j) {
    const float* b = tile.b + j * tile.ldb;
    const float nb = tile.tgt_norms[j];
    const float inv_nb = 1.0f / nb;
    for (size_t r = 0; r < tile.count; ++r) {
      if (j == tile.true_pos[r]) continue;
      const float dot = ScalarDot(tile.rows[r], b, tile.n);
      const float x = dot * inv_na[r] * inv_nb;
      if (x > hi[r]) {
        cells.Above(r);
      } else if (!(x < lo[r])) {
        cells.Exact(r, j, CosineCell(dot, tile.row_norms[r], nb), margin,
                    &lo[r]);
      }
    }
  }
}

// rank_cosine: the band is the true cell +- the margin; a cell above it
// counts as greater, an exact cell is tallied against the true cell.
struct TallyCells {
  const RankTile& tile;
  ScanCounts* counts;
  void Band(size_t r, double margin, float* lo, float* hi) const {
    RankBand(tile.true_vals[r], margin, lo, hi);
  }
  void Above(size_t r) const { ++counts[r].greater; }
  void Exact(size_t r, size_t, float v, double, float*) const {
    TallyCell(v, tile.true_vals[r], counts[r]);
  }
};

// top1_cosine: a running best seeded with the true cell, and a band with
// no upper edge. An exact cell is taken when greater than the best, or
// equal to it at a lower column; the band's lower edge follows the best.
struct Top1Cells {
  const RankTile& tile;
  RankTop1* best;
  void Band(size_t r, double margin, float* lo, float* hi) const {
    best[r] = {tile.true_vals[r], tile.true_pos[r], 0};
    RankBand(tile.true_vals[r], margin, lo, hi);
    *hi = std::numeric_limits<float>::infinity();
  }
  void Above(size_t) const {}
  void Exact(size_t r, size_t j, float v, double margin, float* lo) const {
    RankTop1& row = best[r];
    ++row.exact;
    if (!(v > row.value || (v == row.value && j < row.pos))) return;
    row.value = v;
    row.pos = j;
    float hi = 0.0f;
    RankBand(v, margin, lo, &hi);
  }
};

void ScalarRankCosine(const RankTile& tile, ScanCounts* counts) {
  ScalarDecide(tile, TallyCells{tile, counts});
}

void ScalarTop1Cosine(const RankTile& tile, RankTop1* best) {
  ScalarDecide(tile, Top1Cells{tile, best});
}

void ScalarAxpy(float alpha, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScalarScale(float alpha, float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= alpha;
}

void ScalarAdd(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void ScalarSub(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void ScalarHadamard(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void ScalarGemmBlock(const float* a, size_t lda, const float* b, size_t ldb,
                     float* out, size_t ldc, size_t m, size_t k, size_t n) {
  for (size_t i = 0; i < m; ++i) {
    float* out_row = out + i * ldc;
    for (size_t j = 0; j < n; ++j) out_row[j] = 0.0f;
    const float* a_row = a + i * lda;
    for (size_t kk = 0; kk < k; ++kk) {
      const float aik = a_row[kk];
      if (aik == 0.0f) continue;
      const float* b_row = b + kk * ldb;
      for (size_t j = 0; j < n; ++j) out_row[j] += aik * b_row[j];
    }
  }
}

inline void AdagradStep(float& row, float& acc, float g, float lr,
                        float eps) {
  acc += g * g;
  row -= lr * g / std::sqrt(acc + eps);
}

void ScalarAdagradUpdate(float* row, float* acc, const float* grad, size_t n,
                         float lr, float eps) {
  for (size_t i = 0; i < n; ++i) AdagradStep(row[i], acc[i], grad[i], lr, eps);
}

void ScalarSgdUpdate(float* row, const float* grad, size_t n, float lr) {
  for (size_t i = 0; i < n; ++i) row[i] -= lr * grad[i];
}

// TransEModel's historical energy loop and its three ApplyGradient calls,
// the latter one element at a time in the order head, relation, tail.
float ScalarTranslationResidual(const float* h, const float* r, const float* t,
                                float* res, size_t n) {
  float energy = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    res[i] = h[i] + r[i] - t[i];
    energy += res[i] * res[i];
  }
  return energy;
}

void ScalarTranslationUpdate(const TranslationStep& s, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const float g = s.scale * s.residual[i];
    AdagradStep(s.head[i], s.head_acc[i], g, s.lr, s.eps);
    AdagradStep(s.relation[i], s.relation_acc[i], g, s.lr, s.eps);
    AdagradStep(s.tail[i], s.tail_acc[i], -g, s.lr, s.eps);
  }
}

constexpr KernelTable kScalarTable = {
    /*dot=*/ScalarDot,
    /*squared_l2=*/ScalarSquaredL2,
    /*l1=*/ScalarL1,
    /*squared_l2_distance=*/ScalarSquaredL2Distance,
    /*l1_distance=*/ScalarL1Distance,
    /*dot_rows=*/ScalarDotRows,
    /*squared_l2_distance_rows=*/ScalarSquaredL2DistanceRows,
    /*l1_distance_rows=*/ScalarL1DistanceRows,
    /*scan_epilogue=*/ScalarScanEpilogue,
    /*rank_cosine=*/ScalarRankCosine,
    /*top1_cosine=*/ScalarTop1Cosine,
    /*axpy=*/ScalarAxpy,
    /*scale=*/ScalarScale,
    /*add=*/ScalarAdd,
    /*sub=*/ScalarSub,
    /*hadamard=*/ScalarHadamard,
    /*gemm_block=*/ScalarGemmBlock,
    /*adagrad_update=*/ScalarAdagradUpdate,
    /*sgd_update=*/ScalarSgdUpdate,
    /*translation_residual=*/ScalarTranslationResidual,
    /*translation_update=*/ScalarTranslationUpdate,
};

bool CpuHasAvx2Fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

#ifdef OPENEA_HAVE_AVX2_KERNELS
/// Whether the AVX2 table's `rank_cosine` is the 16-lane body: the CPU runs
/// AVX-512F code (__builtin_cpu_supports also checks that the OS saves the
/// zmm state). Probed once.
bool Avx512FSupported() {
  static const bool supported = __builtin_cpu_supports("avx512f");
  return supported;
}
#endif

/// Startup selection: capability probe, then the OPENEA_KERNELS override.
Backend SelectBackend() {
  const bool avx2_ok = Avx2Supported();
  const char* env = std::getenv("OPENEA_KERNELS");
  if (env != nullptr && env[0] != '\0') {
    if (std::strcmp(env, "scalar") == 0) return Backend::kScalar;
    if (std::strcmp(env, "avx2") == 0) {
      if (avx2_ok) return Backend::kAvx2;
      std::fprintf(stderr,
                   "openea: OPENEA_KERNELS=avx2 requested but AVX2+FMA is "
                   "unavailable on this CPU/build; using scalar kernels\n");
      return Backend::kScalar;
    }
    std::fprintf(stderr,
                 "openea: unknown OPENEA_KERNELS value \"%s\" (want scalar "
                 "or avx2); using automatic dispatch\n",
                 env);
  }
  return avx2_ok ? Backend::kAvx2 : Backend::kScalar;
}

std::atomic<const KernelTable*>& ActiveTablePtr() {
  static std::atomic<const KernelTable*> table{&Table(SelectBackend())};
  return table;
}

}  // namespace

double RankMargin(size_t n) {
  if (n > kRankMaxDim) return std::numeric_limits<double>::infinity();
  // DESIGN.md, "Ranking by decision": u is the float unit roundoff and g
  // the dot-product bound gamma_n, which holds for any summation order.
  const double u = 0x1p-24;
  const double nu = static_cast<double>(n) * u;
  const double g = nu / (1.0 - nu);
  // na * nb over |a| |b|: each squared norm within (1 +- g), each square
  // root rounded once.
  const double alpha_lo = (1.0 - g) * (1.0 - u) * (1.0 - u);
  const double alpha_hi = (1.0 + g) * (1.0 + u) * (1.0 + u);
  // Exact cell: dot / (na * nb), two roundings. Decision value:
  // (dot * (1 / na)) * (1 / nb), four.
  const double exact_lo = (1.0 - u) / ((1.0 + u) * alpha_hi);
  const double exact_hi = (1.0 + u) / ((1.0 - u) * alpha_lo);
  const double decide_lo = std::pow(1.0 - u, 4) / alpha_hi;
  const double decide_hi = std::pow(1.0 + u, 4) / alpha_lo;
  // |cell - cosine| <= |beta - 1| + g * beta for |cosine| <= 1.
  const double exact_err =
      std::max(exact_hi - 1.0, 1.0 - exact_lo) + g * exact_hi;
  const double decide_err =
      std::max(decide_hi - 1.0, 1.0 - decide_lo) + g * decide_hi;
  // Slack: the double arithmetic here, the double sums of RankBand, and
  // results that round into the subnormal range.
  return (exact_err + decide_err) * (1.0 + 0x1p-20) + 0x1p-50 +
         static_cast<double>(n + 4) * 0x1p-100;
}

void RankBand(float true_val, double margin, float* lo, float* hi) {
  const double up = static_cast<double>(true_val) + margin;
  const double down = static_cast<double>(true_val) - margin;
  *hi = static_cast<float>(up);
  if (static_cast<double>(*hi) < up) {
    *hi = std::nextafter(*hi, std::numeric_limits<float>::infinity());
  }
  *lo = static_cast<float>(down);
  if (static_cast<double>(*lo) > down) {
    *lo = std::nextafter(*lo, -std::numeric_limits<float>::infinity());
  }
}

#ifdef OPENEA_HAVE_AVX2_KERNELS
// Defined in kernels_avx2.cc (the only TU compiled with -mavx2 -mfma): the
// address of one of its two constant tables, the second with the 16-lane
// rank body, which is compiled for AVX-512F by target attributes. Called
// only after Avx2Supported(), and with `avx512f` only after
// Avx512FSupported(): nothing in that TU runs before the probes pass.
const KernelTable& Avx2KernelTable(bool avx512f);
#endif

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar: return "scalar";
    case Backend::kAvx2: return "avx2";
  }
  return "?";
}

bool Avx2Supported() {
#ifdef OPENEA_HAVE_AVX2_KERNELS
  static const bool supported = CpuHasAvx2Fma();
  return supported;
#else
  return false;
#endif
}

const KernelTable& Table(Backend backend) {
#ifdef OPENEA_HAVE_AVX2_KERNELS
  if (backend == Backend::kAvx2 && Avx2Supported()) {
    return Avx2KernelTable(Avx512FSupported());
  }
#else
  (void)backend;
#endif
  return kScalarTable;
}

const KernelTable& Active() {
  return *ActiveTablePtr().load(std::memory_order_relaxed);
}

Backend ActiveBackend() {
#ifdef OPENEA_HAVE_AVX2_KERNELS
  if (Avx2Supported() && &Active() == &Table(Backend::kAvx2)) {
    return Backend::kAvx2;
  }
#endif
  return Backend::kScalar;
}

size_t DecisionLanes() {
#ifdef OPENEA_HAVE_AVX2_KERNELS
  if (ActiveBackend() == Backend::kAvx2) return Avx512FSupported() ? 16 : 8;
#endif
  return 0;
}

namespace {

/// The AVX2 table whose decision bodies have `lanes` rows per register, or
/// nullptr when this build or CPU cannot run them.
const KernelTable* DecisionTableForTesting(size_t lanes) {
#ifdef OPENEA_HAVE_AVX2_KERNELS
  if (Avx2Supported()) {
    if (lanes == 8) return &Avx2KernelTable(false);
    if (lanes == 16 && Avx512FSupported()) return &Avx2KernelTable(true);
  }
#endif
  (void)lanes;
  return nullptr;
}

}  // namespace

RankCosineFn RankCosineBodyForTesting(size_t lanes) {
  const KernelTable* table = DecisionTableForTesting(lanes);
  return table != nullptr ? table->rank_cosine : nullptr;
}

Top1CosineFn Top1CosineBodyForTesting(size_t lanes) {
  const KernelTable* table = DecisionTableForTesting(lanes);
  return table != nullptr ? table->top1_cosine : nullptr;
}

bool SetBackendForTesting(Backend backend) {
  if (backend == Backend::kAvx2 && !Avx2Supported()) return false;
  ActiveTablePtr().store(&Table(backend), std::memory_order_relaxed);
  return true;
}

}  // namespace openea::math::kernels
