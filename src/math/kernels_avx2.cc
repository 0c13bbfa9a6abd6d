// AVX2/FMA backend of the kernel dispatch table (src/math/kernels.h). This
// is the only translation unit compiled with -mavx2 -mfma (see
// src/CMakeLists.txt); nothing in it may be reached except through the
// table returned by Avx2KernelTable(), which kernels.cc only hands out
// after the CPUID probe passed.
//
// Bitwise contract (kernels.h): elementwise kernels perform the same IEEE
// operation per lane as the scalar backend — multiply then add/sub, never
// an FMA contraction — so they are bit-identical to scalar. Reduction
// kernels use 8-lane FMA accumulators and reassociate the sum; they may
// differ from scalar in the last ULPs and are tied to it by the
// ULP-tolerance suite in tests/kernels_test.cc. The scan epilogue is
// elementwise per cell and bit-identical to scalar as well. The ranking
// kernel's counts equal those of this backend's exact cells.

#ifdef OPENEA_HAVE_AVX2_KERNELS

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "src/math/kernels.h"

namespace openea::math::kernels {
namespace {

constexpr size_t kLanes = 8;  // floats per __m256

inline float HorizontalSum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 sum = _mm_add_ps(lo, hi);
  sum = _mm_add_ps(sum, _mm_movehl_ps(sum, sum));
  sum = _mm_add_ss(sum, _mm_shuffle_ps(sum, sum, 0x55));
  return _mm_cvtss_f32(sum);
}

/// Eight horizontal sums at once: lane r of the result is HorizontalSum(v[r])
/// bit for bit. HorizontalSum adds s_l = v_l + v_{l+4} (lo + hi), then
/// (s0 + s2, s1 + s3), then (s0 + s2) + (s1 + s3); the transposes below
/// line the same operands up, so every add sees exactly the values
/// HorizontalSum does.
inline __m256 HorizontalSum8(const __m256 v[kLanes]) {
  // t_k = [s(v_k) | s(v_{k+4})], each half holding s0..s3 of one row.
  __m256 t[4];
  for (int k = 0; k < 4; ++k) {
    t[k] = _mm256_add_ps(_mm256_permute2f128_ps(v[k], v[k + 4], 0x20),
                         _mm256_permute2f128_ps(v[k], v[k + 4], 0x31));
  }
  // u0 = [s0+s2, s1+s3 of rows 0, 1 | rows 4, 5]; u1 likewise rows 2, 3, 6, 7.
  const __m256 u0 = _mm256_add_ps(_mm256_shuffle_ps(t[0], t[1], 0x44),
                                  _mm256_shuffle_ps(t[0], t[1], 0xEE));
  const __m256 u1 = _mm256_add_ps(_mm256_shuffle_ps(t[2], t[3], 0x44),
                                  _mm256_shuffle_ps(t[2], t[3], 0xEE));
  // Lane r: (s0 + s2) + (s1 + s3) of row r.
  return _mm256_add_ps(_mm256_shuffle_ps(u0, u1, 0x88),
                       _mm256_shuffle_ps(u0, u1, 0xDD));
}

inline __m256 Abs(__m256 v) {
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  return _mm256_andnot_ps(sign_mask, v);
}

/// First element of the scalar tail: the 8-lane loops cover every full
/// 8-float block of a row.
inline size_t TailStart(size_t n) { return n - n % kLanes; }

// ---------------------------------------------------------------------------
// Reductions: independent 8-lane accumulators (4 for dot — hiding FMA
// latency at the library's d=32..512 row lengths — and 2 for the squared
// distance), folded pairwise into one vector (`Lanes`), then a horizontal
// sum and a fixed-order scalar tail (`Tail`). A cell is
// Tail(HorizontalSum(Lanes)); the *_rows kernels compute the same Lanes per
// row, sum eight rows at a time with HorizontalSum8 and add the same tails,
// so every row's float is its cell kernel's.
// ---------------------------------------------------------------------------

struct DotOp {
  static __m256 Lanes(const float* a, const float* b, size_t n) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 4 * kLanes <= n; i += 4 * kLanes) {
      acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                             _mm256_loadu_ps(b + i), acc0);
      acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + kLanes),
                             _mm256_loadu_ps(b + i + kLanes), acc1);
      acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 2 * kLanes),
                             _mm256_loadu_ps(b + i + 2 * kLanes), acc2);
      acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 3 * kLanes),
                             _mm256_loadu_ps(b + i + 3 * kLanes), acc3);
    }
    for (; i + kLanes <= n; i += kLanes) {
      acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                             _mm256_loadu_ps(b + i), acc0);
    }
    return _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
  }
  static float Tail(float sum, const float* a, const float* b, size_t n) {
    for (size_t i = TailStart(n); i < n; ++i) sum += a[i] * b[i];
    return sum;
  }
};

struct SquaredL2DistanceOp {
  static __m256 Lanes(const float* a, const float* b, size_t n) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 2 * kLanes <= n; i += 2 * kLanes) {
      const __m256 d0 =
          _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
      const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a + i + kLanes),
                                      _mm256_loadu_ps(b + i + kLanes));
      acc0 = _mm256_fmadd_ps(d0, d0, acc0);
      acc1 = _mm256_fmadd_ps(d1, d1, acc1);
    }
    for (; i + kLanes <= n; i += kLanes) {
      const __m256 d =
          _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
      acc0 = _mm256_fmadd_ps(d, d, acc0);
    }
    return _mm256_add_ps(acc0, acc1);
  }
  static float Tail(float sum, const float* a, const float* b, size_t n) {
    for (size_t i = TailStart(n); i < n; ++i) {
      const float d = a[i] - b[i];
      sum += d * d;
    }
    return sum;
  }
};

struct L1DistanceOp {
  static __m256 Lanes(const float* a, const float* b, size_t n) {
    __m256 acc = _mm256_setzero_ps();
    for (size_t i = 0; i + kLanes <= n; i += kLanes) {
      acc = _mm256_add_ps(
          acc, Abs(_mm256_sub_ps(_mm256_loadu_ps(a + i),
                                 _mm256_loadu_ps(b + i))));
    }
    return acc;
  }
  static float Tail(float sum, const float* a, const float* b, size_t n) {
    for (size_t i = TailStart(n); i < n; ++i) sum += std::fabs(a[i] - b[i]);
    return sum;
  }
};

template <class Op>
float CellOf(const float* a, const float* b, size_t n) {
  return Op::Tail(HorizontalSum(Op::Lanes(a, b, n)), a, b, n);
}

/// The library's default embedding width (core::TrainConfig::dim).
constexpr size_t kDefaultWidth = 32;

template <class Op>
__attribute__((always_inline)) inline void RowBlocks(
    const float* a, const float* b, size_t ldb, float* out, size_t rows,
    size_t n) {
  size_t r = 0;
  for (; r + kLanes <= rows; r += kLanes) {
    const float* block = b + r * ldb;
    __m256 v[kLanes];
#pragma GCC unroll 8
    for (size_t l = 0; l < kLanes; ++l) v[l] = Op::Lanes(a, block + l * ldb, n);
    _mm256_storeu_ps(out + r, HorizontalSum8(v));
    if (n % kLanes != 0) {
      for (size_t l = 0; l < kLanes; ++l) {
        out[r + l] = Op::Tail(out[r + l], a, block + l * ldb, n);
      }
    }
  }
  // A block shorter than eight rows costs what the cell kernel costs.
  for (; r < rows; ++r) out[r] = CellOf<Op>(a, b + r * ldb, n);
}

template <class Op>
void RowsOf(const float* a, const float* b, size_t ldb, float* out,
            size_t rows, size_t n) {
  // At the default width the row length is a constant here, so the
  // compiler unrolls each row's loops and keeps the source row's vectors
  // in registers across the eight rows: the same operations, fewer
  // instructions.
  if (n == kDefaultWidth) {
    RowBlocks<Op>(a, b, ldb, out, rows, kDefaultWidth);
  } else {
    RowBlocks<Op>(a, b, ldb, out, rows, n);
  }
}

float Avx2Dot(const float* a, const float* b, size_t n) {
  return CellOf<DotOp>(a, b, n);
}

float Avx2SquaredL2(const float* x, size_t n) { return Avx2Dot(x, x, n); }

float Avx2L1(const float* x, size_t n) {
  __m256 acc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    acc = _mm256_add_ps(acc, Abs(_mm256_loadu_ps(x + i)));
  }
  float sum = HorizontalSum(acc);
  for (; i < n; ++i) sum += std::fabs(x[i]);
  return sum;
}

float Avx2SquaredL2Distance(const float* a, const float* b, size_t n) {
  return CellOf<SquaredL2DistanceOp>(a, b, n);
}

float Avx2L1Distance(const float* a, const float* b, size_t n) {
  return CellOf<L1DistanceOp>(a, b, n);
}

// ---------------------------------------------------------------------------
// Scan epilogue: the scalar epilogue (kernels.cc) eight cells at a time.
// Finish and CSLS are the same IEEE operations per lane (multiply, then
// subtract — this TU is built with -ffp-contract=off); NaN, greater and tie
// counts are compare -> movemask -> popcount over the lanes in play.
// ---------------------------------------------------------------------------

void Avx2ScanEpilogue(const ScanEpilogue& tile, float* cells, size_t count,
                      ScanCounts* counts) {
  const CellFinish finish = tile.finish;
  const float* const psi_tgt = tile.psi_tgt;
  if (finish == CellFinish::kNone && psi_tgt == nullptr &&
      counts == nullptr) {
    return;  // Nothing to finish, adjust or count.
  }
  const bool cosine = finish == CellFinish::kCosine;
  const bool count_true = tile.count_true;
  const size_t true_pos = tile.true_pos;
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const __m256 na = _mm256_set1_ps(tile.na);
  const __m256 tiny = _mm256_set1_ps(1e-12f);
  const __m256 na_tiny = _mm256_cmp_ps(na, tiny, _CMP_LT_OQ);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 psi_src = _mm256_set1_ps(tile.psi_src);
  const __m256 true_val = _mm256_set1_ps(tile.true_val);
  // Tallied in registers, added to *counts once.
  uint64_t nan = 0;
  uint32_t greater = 0, ties = 0;

  // Finishes, counts and offers the eight cells at `group` (tile positions
  // pos..pos+7). `norms` / `psi` point at the group's target norms and psi
  // values; `valid` masks the lanes that exist — the others are computed
  // but never counted or offered.
  auto scan_group = [&](float* group, const float* norms, const float* psi,
                        size_t pos, unsigned valid) {
    __m256 v = _mm256_loadu_ps(group);
    switch (finish) {
      case CellFinish::kCosine: {
        const __m256 nb = _mm256_loadu_ps(norms);
        const __m256 degenerate =
            _mm256_or_ps(na_tiny, _mm256_cmp_ps(nb, tiny, _CMP_LT_OQ));
        v = _mm256_blendv_ps(_mm256_div_ps(v, _mm256_mul_ps(na, nb)),
                             _mm256_setzero_ps(), degenerate);
        break;
      }
      case CellFinish::kNegSqrt:
        v = _mm256_xor_ps(_mm256_sqrt_ps(v), sign);
        break;
      case CellFinish::kNegate:
        v = _mm256_xor_ps(v, sign);
        break;
      case CellFinish::kNone:
        break;
    }
    if (psi != nullptr) {
      v = _mm256_sub_ps(_mm256_sub_ps(_mm256_mul_ps(two, v), psi_src),
                        _mm256_loadu_ps(psi));
    }
    _mm256_storeu_ps(group, v);
    if (counts == nullptr) return;
    const unsigned nan_lanes =
        static_cast<unsigned>(
            _mm256_movemask_ps(_mm256_cmp_ps(v, v, _CMP_UNORD_Q))) &
        valid;
    nan += static_cast<unsigned>(__builtin_popcount(nan_lanes));
    if (count_true) {
      unsigned lanes = valid;
      if (true_pos - pos < kLanes) lanes &= ~(1u << (true_pos - pos));
      greater += static_cast<uint32_t>(__builtin_popcount(
          static_cast<unsigned>(_mm256_movemask_ps(
              _mm256_cmp_ps(v, true_val, _CMP_GT_OQ))) &
          lanes));
      ties += static_cast<uint32_t>(__builtin_popcount(
          static_cast<unsigned>(_mm256_movemask_ps(
              _mm256_cmp_ps(v, true_val, _CMP_EQ_OQ))) &
          lanes));
    }
    if (tile.offer != nullptr) {
      // The bound is reread per group: `offer` tightens it.
      unsigned admit =
          tile.bound->open
              ? ~nan_lanes & valid
              : static_cast<unsigned>(_mm256_movemask_ps(_mm256_cmp_ps(
                    v, _mm256_set1_ps(tile.bound->value), _CMP_GT_OQ))) &
                    valid;
      while (admit != 0) {
        const unsigned lane = static_cast<unsigned>(__builtin_ctz(admit));
        admit &= admit - 1;
        tile.offer(tile.ctx, group[lane], pos + lane);
      }
    }
  };

  size_t j = 0;
  for (; j + kLanes <= count; j += kLanes) {
    scan_group(cells + j, cosine ? tile.tgt_norms + j : nullptr,
               psi_tgt != nullptr ? psi_tgt + j : nullptr, j, 0xFFu);
  }
  if (j < count) {
    // The last partial group runs padded: zero cells, zero norms (which the
    // cosine guard maps to 0) and zero psi fill the missing lanes.
    const size_t rem = count - j;
    float group[kLanes] = {}, norms[kLanes] = {}, psi[kLanes] = {};
    for (size_t l = 0; l < rem; ++l) {
      group[l] = cells[j + l];
      if (cosine) norms[l] = tile.tgt_norms[j + l];
      if (psi_tgt != nullptr) psi[l] = psi_tgt[j + l];
    }
    scan_group(group, norms, psi_tgt != nullptr ? psi : nullptr, j,
               (1u << rem) - 1);
    for (size_t l = 0; l < rem; ++l) cells[j + l] = group[l];
  }
  if (counts != nullptr) {
    counts->nan += nan;
    counts->greater += greater;
    counts->ties += ties;
  }
}

// ---------------------------------------------------------------------------
// Cosine ranking by decision (kernels.h, RankTile; DESIGN.md, "Ranking by
// decision"). The group's rows are packed dim-major into the scratch, one
// row per lane, and the targets are read in place: per dim, one load of the
// packed rows and one broadcast per target feed one FMA accumulator per
// target, so a block of kRankBlock targets yields 8 x kRankBlock decision
// values with no horizontal sums. Each accumulator is scaled by the rows'
// and the target's reciprocal norms and compared with the rows' bands: a
// cell above its band counts as greater, one below is dropped, and one
// inside it (or NaN) is computed exactly, as dot_rows and the kCosine
// epilogue compute it (CellOf is dot_rows' per-row float).
// ---------------------------------------------------------------------------

constexpr size_t kRankBlock = 8;  // Targets per register block.

/// Per-lane constants of a group; lanes past the group's rows have zero
/// rows and a band of [+inf, +inf], so every cell of theirs is dropped.
struct RankLanes {
  __m256 inv_na, lo, hi;
};

inline float CosineCell(float dot, float na, float nb) {
  return (na < 1e-12f || nb < 1e-12f) ? 0.0f : dot / (na * nb);
}

/// Tallies one exact cell the way the epilogue's count loop does.
inline void TallyCell(float v, float true_val, ScanCounts& counts) {
  if (std::isnan(v)) {
    ++counts.nan;
  } else if (v > true_val) {
    ++counts.greater;
  } else if (v == true_val) {
    ++counts.ties;
  }
}

/// Decides the cells of targets col..col+kTargets-1 for every lane; adds
/// the cells above their band to `greater` and tallies the cells inside it
/// exactly into `counts`. `inv_nb` holds the targets' reciprocal norms.
/// A true column is never decided (its decision value lies within the
/// margin of its own exact cell), so skipping it among the undecided cells
/// keeps it out of the counts. kWidth: the row length when it is a
/// compile-time constant.
template <size_t kTargets, size_t kWidth>
__attribute__((always_inline)) inline void RankBlock(
    const RankTile& tile, const RankLanes& lanes, size_t n, size_t col,
    const float* inv_nb, __m256i& greater, ScanCounts* counts) {
  const size_t ldb = tile.ldb;
  const float* b = tile.b + col * ldb;
  const float* packed = tile.scratch;
  const size_t dims = kWidth != 0 ? kWidth : n;
  __m256 acc[kTargets];
  for (size_t k = 0; k < kTargets; ++k) acc[k] = _mm256_setzero_ps();
  for (size_t d = 0; d < dims; ++d) {
    const __m256 p = _mm256_loadu_ps(packed + d * kLanes);
#pragma GCC unroll 8
    for (size_t k = 0; k < kTargets; ++k) {
      acc[k] = _mm256_fmadd_ps(p, _mm256_broadcast_ss(b + k * ldb + d),
                               acc[k]);
    }
  }
#pragma GCC unroll 8
  for (size_t k = 0; k < kTargets; ++k) {
    const __m256 x = _mm256_mul_ps(_mm256_mul_ps(acc[k], lanes.inv_na),
                                   _mm256_broadcast_ss(inv_nb + k));
    const __m256 above = _mm256_cmp_ps(x, lanes.hi, _CMP_GT_OQ);
    const __m256 below = _mm256_cmp_ps(x, lanes.lo, _CMP_LT_OQ);
    greater = _mm256_sub_epi32(greater, _mm256_castps_si256(above));
    unsigned undecided =
        ~static_cast<unsigned>(_mm256_movemask_ps(_mm256_or_ps(above, below))) &
        0xFFu;
    while (undecided != 0) {
      const unsigned r = static_cast<unsigned>(__builtin_ctz(undecided));
      undecided &= undecided - 1;
      const size_t j = col + k;
      if (j == tile.true_pos[r]) continue;
      TallyCell(CosineCell(CellOf<DotOp>(tile.rows[r], b + k * ldb, n),
                           tile.row_norms[r], tile.tgt_norms[j]),
                tile.true_vals[r], counts[r]);
    }
  }
}

template <size_t kWidth>
void RankCosineOf(const RankTile& tile, ScanCounts* counts) {
  const size_t n = kWidth != 0 ? kWidth : tile.n;
  const size_t cols = tile.cols;
  float* packed = tile.scratch;
  for (size_t d = 0; d < n; ++d) {
    for (size_t r = 0; r < kLanes; ++r) {
      packed[d * kLanes + r] = r < tile.count ? tile.rows[r][d] : 0.0f;
    }
  }
  alignas(32) float inv_na[kLanes], lo[kLanes], hi[kLanes];
  const double margin = RankMargin(n);
  for (size_t r = 0; r < kLanes; ++r) {
    inv_na[r] = 0.0f;
    lo[r] = hi[r] = std::numeric_limits<float>::infinity();
    if (r >= tile.count) continue;
    inv_na[r] = 1.0f / tile.row_norms[r];
    RankBand(tile.true_vals[r], margin, &lo[r], &hi[r]);
  }
  const RankLanes lanes{_mm256_load_ps(inv_na), _mm256_load_ps(lo),
                        _mm256_load_ps(hi)};
  __m256i greater = _mm256_setzero_si256();
  alignas(32) float inv_nb[kRankBlock];
  const __m256 one = _mm256_set1_ps(1.0f);
  size_t col = 0;
  for (; col + kRankBlock <= cols; col += kRankBlock) {
    _mm256_store_ps(inv_nb,
                    _mm256_div_ps(one, _mm256_loadu_ps(tile.tgt_norms + col)));
    RankBlock<kRankBlock, kWidth>(tile, lanes, n, col, inv_nb, greater,
                                  counts);
  }
  // The last targets, one at a time.
  for (; col < cols; ++col) {
    inv_nb[0] = 1.0f / tile.tgt_norms[col];
    RankBlock<1, kWidth>(tile, lanes, n, col, inv_nb, greater, counts);
  }
  alignas(32) uint32_t tally[kLanes];
  _mm256_store_si256(reinterpret_cast<__m256i*>(tally), greater);
  for (size_t r = 0; r < tile.count; ++r) counts[r].greater += tally[r];
}

void Avx2RankCosine(const RankTile& tile, ScanCounts* counts) {
  // At the default width the dim loop unrolls (as in RowsOf).
  if (tile.n == kDefaultWidth) {
    RankCosineOf<kDefaultWidth>(tile, counts);
  } else {
    RankCosineOf<0>(tile, counts);
  }
}

// ---------------------------------------------------------------------------
// Elementwise: multiply then add/sub (no FMA) — bit-identical to scalar.
// ---------------------------------------------------------------------------

void Avx2Axpy(float alpha, const float* x, float* y, size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void Avx2Scale(float alpha, float* x, size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

void Avx2Add(const float* a, const float* b, float* out, size_t n) {
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(
        out + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void Avx2Sub(const float* a, const float* b, float* out, size_t n) {
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(
        out + i, _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

void Avx2Hadamard(const float* a, const float* b, float* out, size_t n) {
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(
        out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

// ---------------------------------------------------------------------------
// Row-blocked GEMM: i-k-j with an FMA-vectorized j loop. A reduction over
// k, so it may differ bitwise from scalar (which also skips aik == 0).
// ---------------------------------------------------------------------------

void Avx2GemmBlock(const float* a, size_t lda, const float* b, size_t ldb,
                   float* out, size_t ldc, size_t m, size_t k, size_t n) {
  for (size_t i = 0; i < m; ++i) {
    float* out_row = out + i * ldc;
    size_t j = 0;
    const __m256 zero = _mm256_setzero_ps();
    for (; j + kLanes <= n; j += kLanes) _mm256_storeu_ps(out_row + j, zero);
    for (; j < n; ++j) out_row[j] = 0.0f;
    const float* a_row = a + i * lda;
    for (size_t kk = 0; kk < k; ++kk) {
      const float aik = a_row[kk];
      if (aik == 0.0f) continue;
      const __m256 va = _mm256_set1_ps(aik);
      const float* b_row = b + kk * ldb;
      for (j = 0; j + kLanes <= n; j += kLanes) {
        _mm256_storeu_ps(out_row + j,
                         _mm256_fmadd_ps(va, _mm256_loadu_ps(b_row + j),
                                         _mm256_loadu_ps(out_row + j)));
      }
      for (; j < n; ++j) out_row[j] += aik * b_row[j];
    }
  }
}

// ---------------------------------------------------------------------------
// Fused optimizer updates: sqrt/div are IEEE-exact per lane and the
// multiply-divide-subtract sequence mirrors the scalar statement order, so
// these stay bit-identical to the scalar backend.
// ---------------------------------------------------------------------------

/// One AdaGrad step on eight elements: acc += g * g, then
/// row -= (lr * g) / sqrt(acc + eps).
inline void AdagradLanes(float* row, float* acc, __m256 g, __m256 vlr,
                         __m256 veps) {
  const __m256 a = _mm256_add_ps(_mm256_loadu_ps(acc), _mm256_mul_ps(g, g));
  _mm256_storeu_ps(acc, a);
  const __m256 step = _mm256_div_ps(_mm256_mul_ps(vlr, g),
                                    _mm256_sqrt_ps(_mm256_add_ps(a, veps)));
  _mm256_storeu_ps(row, _mm256_sub_ps(_mm256_loadu_ps(row), step));
}

/// The scalar form of AdagradLanes, for the tails.
inline void AdagradStep(float& row, float& acc, float g, float lr,
                        float eps) {
  acc += g * g;
  row -= lr * g / std::sqrt(acc + eps);
}

void Avx2AdagradUpdate(float* row, float* acc, const float* grad, size_t n,
                       float lr, float eps) {
  const __m256 vlr = _mm256_set1_ps(lr);
  const __m256 veps = _mm256_set1_ps(eps);
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    AdagradLanes(row + i, acc + i, _mm256_loadu_ps(grad + i), vlr, veps);
  }
  for (; i < n; ++i) AdagradStep(row[i], acc[i], grad[i], lr, eps);
}

void Avx2SgdUpdate(float* row, const float* grad, size_t n, float lr) {
  const __m256 vlr = _mm256_set1_ps(lr);
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 step = _mm256_mul_ps(vlr, _mm256_loadu_ps(grad + i));
    _mm256_storeu_ps(row + i, _mm256_sub_ps(_mm256_loadu_ps(row + i), step));
  }
  for (; i < n; ++i) row[i] -= lr * grad[i];
}

// ---------------------------------------------------------------------------
// The TransE pair step. The residual and its squares are elementwise; the
// squares are then added one at a time in index order, which is the scalar
// energy loop's sum, so the energy keeps its bits (an add tree would not).
// The update runs the three AdaGrad steps lane block by lane block in the
// order head, relation, tail and reloads each row after the previous row's
// store, so a head that is also the tail sees both steps in sequence.
// ---------------------------------------------------------------------------

__attribute__((always_inline)) inline float TranslationResidualOf(
    const float* h, const float* r, const float* t, float* res, size_t n) {
  float energy = 0.0f;
  for (size_t i = 0; i + kLanes <= n; i += kLanes) {
    const __m256 v = _mm256_sub_ps(
        _mm256_add_ps(_mm256_loadu_ps(h + i), _mm256_loadu_ps(r + i)),
        _mm256_loadu_ps(t + i));
    _mm256_storeu_ps(res + i, v);
    alignas(32) float squares[kLanes];
    _mm256_store_ps(squares, _mm256_mul_ps(v, v));
    for (size_t l = 0; l < kLanes; ++l) energy += squares[l];
  }
  for (size_t i = TailStart(n); i < n; ++i) {
    res[i] = h[i] + r[i] - t[i];
    energy += res[i] * res[i];
  }
  return energy;
}

float Avx2TranslationResidual(const float* h, const float* r, const float* t,
                              float* res, size_t n) {
  // At the default width the row length is a constant here and the loops
  // unroll (as in RowsOf).
  if (n == kDefaultWidth) {
    return TranslationResidualOf(h, r, t, res, kDefaultWidth);
  }
  return TranslationResidualOf(h, r, t, res, n);
}

__attribute__((always_inline)) inline void TranslationUpdateOf(
    const TranslationStep& s, size_t n) {
  const __m256 scale = _mm256_set1_ps(s.scale);
  const __m256 vlr = _mm256_set1_ps(s.lr);
  const __m256 veps = _mm256_set1_ps(s.eps);
  const __m256 sign = _mm256_set1_ps(-0.0f);
  for (size_t i = 0; i + kLanes <= n; i += kLanes) {
    const __m256 g = _mm256_mul_ps(scale, _mm256_loadu_ps(s.residual + i));
    AdagradLanes(s.head + i, s.head_acc + i, g, vlr, veps);
    AdagradLanes(s.relation + i, s.relation_acc + i, g, vlr, veps);
    AdagradLanes(s.tail + i, s.tail_acc + i, _mm256_xor_ps(g, sign), vlr,
                 veps);
  }
  for (size_t i = TailStart(n); i < n; ++i) {
    const float g = s.scale * s.residual[i];
    AdagradStep(s.head[i], s.head_acc[i], g, s.lr, s.eps);
    AdagradStep(s.relation[i], s.relation_acc[i], g, s.lr, s.eps);
    AdagradStep(s.tail[i], s.tail_acc[i], -g, s.lr, s.eps);
  }
}

void Avx2TranslationUpdate(const TranslationStep& step, size_t n) {
  if (n == kDefaultWidth) {
    TranslationUpdateOf(step, kDefaultWidth);
  } else {
    TranslationUpdateOf(step, n);
  }
}

constexpr KernelTable kAvx2Table = {
    /*dot=*/Avx2Dot,
    /*squared_l2=*/Avx2SquaredL2,
    /*l1=*/Avx2L1,
    /*squared_l2_distance=*/Avx2SquaredL2Distance,
    /*l1_distance=*/Avx2L1Distance,
    /*dot_rows=*/RowsOf<DotOp>,
    /*squared_l2_distance_rows=*/RowsOf<SquaredL2DistanceOp>,
    /*l1_distance_rows=*/RowsOf<L1DistanceOp>,
    /*scan_epilogue=*/Avx2ScanEpilogue,
    /*rank_cosine=*/Avx2RankCosine,
    /*axpy=*/Avx2Axpy,
    /*scale=*/Avx2Scale,
    /*add=*/Avx2Add,
    /*sub=*/Avx2Sub,
    /*hadamard=*/Avx2Hadamard,
    /*gemm_block=*/Avx2GemmBlock,
    /*adagrad_update=*/Avx2AdagradUpdate,
    /*sgd_update=*/Avx2SgdUpdate,
    /*translation_residual=*/Avx2TranslationResidual,
    /*translation_update=*/Avx2TranslationUpdate,
};

}  // namespace

const KernelTable& Avx2KernelTable() { return kAvx2Table; }

}  // namespace openea::math::kernels

#endif  // OPENEA_HAVE_AVX2_KERNELS
