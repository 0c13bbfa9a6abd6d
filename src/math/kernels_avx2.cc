// AVX2/FMA backend of the kernel dispatch table (src/math/kernels.h). This
// is the only translation unit compiled with -mavx2 -mfma (see
// src/CMakeLists.txt); nothing in it may be reached except through the
// table returned by Avx2KernelTable(), which kernels.cc only hands out
// after the CPUID probe passed. The 16-lane bodies of the decision kernels
// (rank_cosine, top1_cosine) are the one exception to the file's ISA: their
// functions carry __attribute__((target("avx512f"))), and only the second
// of the file's two constant tables holds them, which kernels.cc hands out
// only when its CPUID probe also reported avx512f (tests reach every body
// through src/math/kernels_internal.h).
//
// Bitwise contract (kernels.h): elementwise kernels perform the same IEEE
// operation per lane as the scalar backend — multiply then add/sub, never
// an FMA contraction — so they are bit-identical to scalar. Reduction
// kernels use 8-lane FMA accumulators and reassociate the sum; they may
// differ from scalar in the last ULPs and are tied to it by the
// ULP-tolerance suite in tests/kernels_test.cc. The scan epilogue is
// elementwise per cell and bit-identical to scalar as well. The ranking
// kernel's counts, and the top-1 kernel's argmax, equal those of this
// backend's exact cells.

#ifdef OPENEA_HAVE_AVX2_KERNELS

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "src/math/kernels.h"
#include "src/math/kernels_internal.h"

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
// Cosine ranking and top-1 by decision (kernels.h, RankTile; DESIGN.md,
// "Ranking by decision"). The group's rows are packed dim-major into the
// scratch, one row per lane, and the targets are read in place: per dim,
// one load of the packed rows and one broadcast per target feed one FMA
// accumulator per target, so a block of kRankBlock targets yields lanes x
// kRankBlock decision values with no horizontal sums. Each accumulator is
// scaled by the rows' and the target's reciprocal norms and compared with
// the rows' bands: a cell above its band counts as greater, one below is
// dropped, and one inside it (or NaN) is computed exactly, as dot_rows and
// the kCosine epilogue compute it (CellOf is dot_rows' per-row float).
// rank_cosine and top1_cosine differ only in their band-cell policy
// (TallyCells, Top1Cells): what a band is and what an exact cell does.
//
// The body is written once over a lane policy: Avx2Lanes holds 8 rows in a
// __m256, Avx512Lanes 16 rows in a __m512. The 16-lane instantiations are
// compiled for AVX-512F by the target attributes on the lane policy and on
// their entry points, RankCosine16 and Top1Cosine16, which only the table
// kAvx2Avx512Table holds; kernels.cc hands that table out only after CPUID
// reported avx512f. The policies take and give vectors by reference: a
// __m512 passed by value through a function not compiled for AVX-512 would
// change the calling convention.
// ---------------------------------------------------------------------------

constexpr size_t kRankBlock = 8;  // Targets per register block.

/// Per-group constants; lanes past the group's rows have zero rows and a
/// band of [+inf, +inf], so every cell of theirs is dropped.
template <class L>
struct RankLanes {
  typename L::Vec inv_na, lo, hi;
  double margin;  // RankMargin(n).
};

struct Avx2Lanes {
  static constexpr size_t kRows = 8;
  using Vec = __m256;
  using Tally = __m256i;  // Cells above the band, one count per lane.
  static void Zero(Vec& v) { v = _mm256_setzero_ps(); }
  static void Load(Vec& v, const float* p) { v = _mm256_loadu_ps(p); }
  /// acc += p * (*b) in every lane.
  static void Fma(Vec& acc, const Vec& p, const float* b) {
    acc = _mm256_fmadd_ps(p, _mm256_broadcast_ss(b), acc);
  }
  /// Scales acc to the decision values, adds the lanes above their band to
  /// `greater` and returns the mask of the lanes inside it (or NaN).
  static unsigned Decide(const Vec& acc, const RankLanes<Avx2Lanes>& lanes,
                         const float* inv_nb, Tally& greater) {
    const __m256 x = _mm256_mul_ps(_mm256_mul_ps(acc, lanes.inv_na),
                                   _mm256_broadcast_ss(inv_nb));
    const __m256 above = _mm256_cmp_ps(x, lanes.hi, _CMP_GT_OQ);
    const __m256 below = _mm256_cmp_ps(x, lanes.lo, _CMP_LT_OQ);
    greater = _mm256_sub_epi32(greater, _mm256_castps_si256(above));
    return ~static_cast<unsigned>(
               _mm256_movemask_ps(_mm256_or_ps(above, below))) &
           0xFFu;
  }
  /// Sets lane r of v to x.
  static void SetLane(Vec& v, size_t r, float x) {
    const __m256i lane =
        _mm256_cmpeq_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                           _mm256_set1_epi32(static_cast<int>(r)));
    v = _mm256_blendv_ps(v, _mm256_set1_ps(x), _mm256_castsi256_ps(lane));
  }
  static void ZeroTally(Tally& t) { t = _mm256_setzero_si256(); }
  static void StoreTally(uint32_t* out, const Tally& t) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), t);
  }
};

#define OPENEA_AVX512 __attribute__((target("avx512f")))

struct Avx512Lanes {
  static constexpr size_t kRows = 16;
  using Vec = __m512;
  using Tally = __m512i;
  OPENEA_AVX512 static void Zero(Vec& v) { v = _mm512_setzero_ps(); }
  OPENEA_AVX512 static void Load(Vec& v, const float* p) {
    v = _mm512_loadu_ps(p);
  }
  // The broadcast folds into the FMA as an embedded {1to16} operand.
  OPENEA_AVX512 static void Fma(Vec& acc, const Vec& p, const float* b) {
    acc = _mm512_fmadd_ps(p, _mm512_set1_ps(*b), acc);
  }
  OPENEA_AVX512 static unsigned Decide(const Vec& acc,
                                       const RankLanes<Avx512Lanes>& lanes,
                                       const float* inv_nb, Tally& greater) {
    const __m512 x = _mm512_mul_ps(_mm512_mul_ps(acc, lanes.inv_na),
                                   _mm512_set1_ps(*inv_nb));
    const __mmask16 above = _mm512_cmp_ps_mask(x, lanes.hi, _CMP_GT_OQ);
    const __mmask16 below = _mm512_cmp_ps_mask(x, lanes.lo, _CMP_LT_OQ);
    greater = _mm512_mask_sub_epi32(greater, above, greater,
                                    _mm512_set1_epi32(-1));
    return ~static_cast<unsigned>(above | below) & 0xFFFFu;
  }
  OPENEA_AVX512 static void SetLane(Vec& v, size_t r, float x) {
    v = _mm512_mask_mov_ps(v, static_cast<__mmask16>(1u << r),
                           _mm512_set1_ps(x));
  }
  OPENEA_AVX512 static void ZeroTally(Tally& t) { t = _mm512_setzero_si512(); }
  OPENEA_AVX512 static void StoreTally(uint32_t* out, const Tally& t) {
    _mm512_storeu_si512(out, t);
  }
};

static_assert(Avx512Lanes::kRows == kRankGroup,
              "the 16-lane body takes a whole group");

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

// The band-cell policies, the one part in which the two decision kernels
// differ. Band() sets row r's band, Exact() takes the exact cell v of row r
// at column j, and Above() the per-lane counts of the cells above the band.

/// rank_cosine: each band is the row's true cell +- the margin; an exact
/// cell is tallied against the true cell, and the cells above the band
/// count as greater.
template <class L>
struct TallyCells {
  const RankTile& tile;
  ScanCounts* counts;
  void Band(size_t r, double margin, float* lo, float* hi) const {
    RankBand(tile.true_vals[r], margin, lo, hi);
  }
  __attribute__((always_inline)) void Exact(size_t r, size_t, float v,
                                            RankLanes<L>&) const {
    TallyCell(v, tile.true_vals[r], counts[r]);
  }
  void Above(const uint32_t* tally) const {
    for (size_t r = 0; r < tile.count; ++r) counts[r].greater += tally[r];
  }
};

/// top1_cosine: a running best per row, seeded with the row's true cell.
/// The band has no upper edge, so no cell lies above it. An exact cell is
/// taken when it is greater than the best, or equal to it at a lower
/// column, and the band's lower edge then moves up to the new best.
template <class L>
struct Top1Cells {
  const RankTile& tile;
  RankTop1* best;
  void Band(size_t r, double margin, float* lo, float* hi) const {
    best[r] = {tile.true_vals[r], tile.true_pos[r], 0};
    RankBand(tile.true_vals[r], margin, lo, hi);
    *hi = std::numeric_limits<float>::infinity();
  }
  __attribute__((always_inline)) void Exact(size_t r, size_t j, float v,
                                            RankLanes<L>& lanes) const {
    RankTop1& row = best[r];
    ++row.exact;
    if (!(v > row.value || (v == row.value && j < row.pos))) return;
    row.value = v;
    row.pos = j;
    float lo = 0.0f, hi = 0.0f;
    RankBand(v, lanes.margin, &lo, &hi);
    L::SetLane(lanes.lo, r, lo);
  }
  void Above(const uint32_t*) const {}
};

/// Decides the cells of targets col..col+kTargets-1 for every lane; adds
/// the cells above their band to `greater` and hands the cells inside it to
/// `cells` exactly. `inv_nb` holds the targets' reciprocal norms. A true
/// column is never decided (its decision value lies within the margin of
/// its own exact cell), so skipping it among the undecided cells keeps it
/// out of the counts. kWidth: the row length when it is a compile-time
/// constant.
template <class L, size_t kTargets, size_t kWidth, class Cells>
__attribute__((always_inline)) inline void RankBlock(
    const RankTile& tile, RankLanes<L>& lanes, size_t n, size_t col,
    const float* inv_nb, typename L::Tally& greater, const Cells& cells) {
  const size_t ldb = tile.ldb;
  const float* b = tile.b + col * ldb;
  const float* packed = tile.scratch;
  const size_t dims = kWidth != 0 ? kWidth : n;
  typename L::Vec acc[kTargets];
  for (size_t k = 0; k < kTargets; ++k) L::Zero(acc[k]);
  for (size_t d = 0; d < dims; ++d) {
    typename L::Vec p;
    L::Load(p, packed + d * L::kRows);
#pragma GCC unroll 8
    for (size_t k = 0; k < kTargets; ++k) L::Fma(acc[k], p, b + k * ldb + d);
  }
#pragma GCC unroll 8
  for (size_t k = 0; k < kTargets; ++k) {
    unsigned undecided = L::Decide(acc[k], lanes, inv_nb + k, greater);
    while (undecided != 0) {
      const unsigned r = static_cast<unsigned>(__builtin_ctz(undecided));
      undecided &= undecided - 1;
      const size_t j = col + k;
      if (j == tile.true_pos[r]) continue;
      cells.Exact(r, j,
                  CosineCell(CellOf<DotOp>(tile.rows[r], b + k * ldb, n),
                             tile.row_norms[r], tile.tgt_norms[j]),
                  lanes);
    }
  }
}

/// One group of up to L::kRows rows against every target of the tile.
template <class L, size_t kWidth, class Cells>
__attribute__((always_inline)) inline void RankCosineOf(const RankTile& tile,
                                                        const Cells& cells) {
  constexpr size_t kRows = L::kRows;
  const size_t n = kWidth != 0 ? kWidth : tile.n;
  const size_t cols = tile.cols;
  float* packed = tile.scratch;
  for (size_t d = 0; d < n; ++d) {
    for (size_t r = 0; r < kRows; ++r) {
      packed[d * kRows + r] = r < tile.count ? tile.rows[r][d] : 0.0f;
    }
  }
  RankLanes<L> lanes;
  lanes.margin = RankMargin(n);
  float inv_na[kRows], lo[kRows], hi[kRows];
  for (size_t r = 0; r < kRows; ++r) {
    inv_na[r] = 0.0f;
    lo[r] = hi[r] = std::numeric_limits<float>::infinity();
    if (r >= tile.count) continue;
    inv_na[r] = 1.0f / tile.row_norms[r];
    cells.Band(r, lanes.margin, &lo[r], &hi[r]);
  }
  L::Load(lanes.inv_na, inv_na);
  L::Load(lanes.lo, lo);
  L::Load(lanes.hi, hi);
  typename L::Tally greater;
  L::ZeroTally(greater);
  float inv_nb[kRankBlock];
  size_t col = 0;
  for (; col + kRankBlock <= cols; col += kRankBlock) {
    for (size_t k = 0; k < kRankBlock; ++k) {
      inv_nb[k] = 1.0f / tile.tgt_norms[col + k];
    }
    RankBlock<L, kRankBlock, kWidth>(tile, lanes, n, col, inv_nb, greater,
                                     cells);
  }
  // The last targets, one at a time.
  for (; col < cols; ++col) {
    inv_nb[0] = 1.0f / tile.tgt_norms[col];
    RankBlock<L, 1, kWidth>(tile, lanes, n, col, inv_nb, greater, cells);
  }
  uint32_t tally[kRows];
  L::StoreTally(tally, greater);
  cells.Above(tally);
}

/// At the default width the dim loop unrolls (as in RowsOf).
template <class L, class Cells>
__attribute__((always_inline)) inline void RankCosineAtWidth(
    const RankTile& tile, const Cells& cells) {
  if (tile.n == kDefaultWidth) {
    RankCosineOf<L, kDefaultWidth>(tile, cells);
  } else {
    RankCosineOf<L, 0>(tile, cells);
  }
}

/// The 8-lane body: a group of kRankGroup rows as two halves of eight.
/// `out` holds one result per row (ScanCounts or RankTop1).
template <template <class> class Cells, class Out>
void Decide8(const RankTile& tile, Out* out) {
  for (size_t first = 0; first < tile.count; first += Avx2Lanes::kRows) {
    RankTile half = tile;
    half.count = std::min(tile.count - first, Avx2Lanes::kRows);
    half.rows += first;
    half.row_norms += first;
    half.true_vals += first;
    half.true_pos += first;
    RankCosineAtWidth<Avx2Lanes>(half, Cells<Avx2Lanes>{half, out + first});
  }
}

/// The 16-lane body: the whole group in one pass over the targets. A group
/// of at most eight rows takes the 8-lane body, which decides it in the
/// same one pass without the padded half of the zmm lanes (with more than
/// one thread the callers' row chunks hold eight rows, so every group is
/// such a group).
template <template <class> class Cells, class Out>
OPENEA_AVX512 void Decide16(const RankTile& tile, Out* out) {
  if (tile.count <= Avx2Lanes::kRows) {
    Decide8<Cells>(tile, out);
    return;
  }
  RankCosineAtWidth<Avx512Lanes>(tile, Cells<Avx512Lanes>{tile, out});
}

void RankCosine8(const RankTile& tile, ScanCounts* counts) {
  Decide8<TallyCells>(tile, counts);
}

void Top1Cosine8(const RankTile& tile, RankTop1* best) {
  Decide8<Top1Cells>(tile, best);
}

OPENEA_AVX512 void RankCosine16(const RankTile& tile, ScanCounts* counts) {
  Decide16<TallyCells>(tile, counts);
}

OPENEA_AVX512 void Top1Cosine16(const RankTile& tile, RankTop1* best) {
  Decide16<Top1Cells>(tile, best);
}

#undef OPENEA_AVX512

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
    /*rank_cosine=*/RankCosine8,
    /*top1_cosine=*/Top1Cosine8,
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

/// kAvx2Table with the 16-lane decision bodies, for CPUs with AVX-512F.
constexpr KernelTable kAvx2Avx512Table = [] {
  KernelTable table = kAvx2Table;
  table.rank_cosine = RankCosine16;
  table.top1_cosine = Top1Cosine16;
  return table;
}();

}  // namespace

const KernelTable& Avx2KernelTable(bool avx512f) {
  return avx512f ? kAvx2Avx512Table : kAvx2Table;
}

}  // namespace openea::math::kernels

#endif  // OPENEA_HAVE_AVX2_KERNELS
