#ifndef OPENEA_MATH_KERNELS_H_
#define OPENEA_MATH_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace openea::math::kernels {

/// Runtime-dispatched SIMD kernel layer (DESIGN.md, "Kernel dispatch").
///
/// Every per-element float loop in the library bottoms out in one of the
/// function pointers below, the way ATen selects per-arch kernels: a scalar
/// reference table (bit-identical to the historical hand-rolled loops) and
/// an AVX2/FMA table compiled into its own translation unit with -mavx2
/// -mfma (its decision kernels, `rank_cosine` and `top1_cosine`, run
/// 16-lane AVX-512F bodies, compiled by function target attributes, on CPUs
/// that have it; kernels_avx2.cc).
/// The backend is selected exactly once, before the first kernel
/// call, from CPUID — overridable with OPENEA_KERNELS=scalar|avx2 — and
/// reported through telemetry as the `kernels` config key / the
/// `kernels/backend` gauge in every bench JSON.
///
/// Determinism contract:
///  * Within one backend, every kernel is a pure function of its inputs, so
///    all existing 1-vs-8-thread bit-identity pins hold per backend (the
///    parallel chunk layout never depends on the backend).
///  * Elementwise kernels (axpy, scale, add, sub, hadamard, the fused
///    AdaGrad/SGD updates) perform the same IEEE operations per lane in
///    both backends and are bit-identical across backends; the AVX2
///    versions deliberately avoid FMA contraction for this reason. So do
///    the two TransE kernels, whose one sum runs in scalar order.
///  * Reduction kernels (dot, norms, distances, GEMM) reassociate the
///    accumulation in the AVX2 backend and may differ from scalar in the
///    last ULPs. tests/kernels_test.cc ties the backends together with a
///    ULP-tolerance equivalence suite; committed bench baselines are
///    recorded under a pinned backend (the diff gate forces scalar).
enum class Backend {
  kScalar = 0,
  kAvx2 = 1,
};

/// How `scan_epilogue` turns a raw row-kernel value into a similarity
/// (src/align/similarity.h): cosine divides the dot product by the two L2
/// norms (0 when either is below 1e-12), Euclidean negates the square root
/// of the squared distance, Manhattan negates the L1 distance, and the
/// inner product is used as-is.
enum class CellFinish { kNone, kCosine, kNegSqrt, kNegate };

/// Top-k admission bound of one scanned row. While `open` (fewer than k
/// entries kept) every non-NaN cell is offered; after that only cells
/// strictly greater than `value`, the k-th kept value.
struct ScanBound {
  float value = 0.0f;
  bool open = true;
};

/// One tile of a similarity scan: `count` consecutive cells of one source
/// row (DESIGN.md, "Streaming top-k similarity").
struct ScanEpilogue {
  CellFinish finish = CellFinish::kNone;
  /// kCosine: the source row's L2 norm and one target norm per cell.
  float na = 0.0f;
  const float* tgt_norms = nullptr;
  /// CSLS when non-null: cell = 2 * cell - psi_src - psi_tgt[cell].
  const float* psi_tgt = nullptr;
  float psi_src = 0.0f;
  /// Counts cells greater than and equal to `true_val`, skipping the cell
  /// at `true_pos` (a position past the tile excludes none).
  bool count_true = false;
  float true_val = 0.0f;
  size_t true_pos = static_cast<size_t>(-1);
  /// Top-k admission: when `offer` is set, every non-NaN cell that passes
  /// `*bound` is handed to `offer(ctx, value, position)` in ascending
  /// position order. `offer` may tighten `*bound`; the epilogue rereads it
  /// before each group of cells.
  const ScanBound* bound = nullptr;
  void (*offer)(void* ctx, float value, size_t pos) = nullptr;
  void* ctx = nullptr;
};

/// Per-row tallies of `scan_epilogue`, accumulated (+=) across tiles.
struct ScanCounts {
  uint64_t nan = 0;      // NaN cells (after finish and CSLS).
  uint32_t greater = 0;  // Cells > true_val.
  uint32_t ties = 0;     // Cells == true_val.
};

/// Source rows per `rank_cosine` group: one AVX-512 lane each, or two
/// halves of one AVX2 lane each on CPUs without AVX-512F.
constexpr size_t kRankGroup = 16;
/// The guard of `rank_cosine`: every row and target norm must lie in
/// [kRankMinNorm, kRankMaxNorm] (so no dot product, norm or scaling
/// overflows and the cosine's 1e-12 degenerate guard never fires), every
/// true cell must satisfy |true_val| <= 2, and n <= kRankMaxDim.
constexpr float kRankMinNorm = 0x1p-20f;
constexpr float kRankMaxNorm = 0x1p20f;
constexpr size_t kRankMaxDim = size_t{1} << 16;

/// Whether an L2 norm lies in that guarded range (false for NaN).
inline bool InRankGuard(float norm) {
  return norm >= kRankMinNorm && norm <= kRankMaxNorm;
}

/// A cosine ranking group (DESIGN.md, "Streaming top-k similarity",
/// "Ranking by decision"): up to kRankGroup source rows against `cols`
/// target rows starting at `b`, `ldb` floats apart. Per row it tallies the
/// cells greater than and equal to the row's true cell, skipping the true
/// column, exactly as `scan_epilogue` does over the exact cells.
struct RankTile {
  size_t count = 0;                    // Rows in the group, 1..kRankGroup.
  const float* const* rows = nullptr;  // count rows of n floats each.
  const float* row_norms = nullptr;    // Their L2 norms.
  const float* true_vals = nullptr;    // Their true cells.
  /// Their true columns relative to `b`; a position >= cols excludes none.
  const size_t* true_pos = nullptr;
  const float* b = nullptr;
  size_t ldb = 0;
  const float* tgt_norms = nullptr;  // One L2 norm per target row.
  size_t cols = 0;
  size_t n = 0;
  /// Scratch of kRankGroup * n floats.
  float* scratch = nullptr;
};

/// The result of `top1_cosine` for one row of its tile.
struct RankTop1 {
  float value = 0.0f;   // The greatest exact cell.
  size_t pos = 0;       // The lowest column that holds it, relative to b.
  uint32_t exact = 0;   // Exact cells computed, the seed's not counted.
};

/// The decision margin of `rank_cosine` at row length n: a data-independent
/// bound on |decision value - exact cell| plus the rounding of the band
/// edges, derived in DESIGN.md. A cell whose decision value lies more than
/// the margin above (below) its row's true cell is counted as greater
/// (dropped) without its exact value. +inf when n > kRankMaxDim.
double RankMargin(size_t n);

/// The band of one row: `*hi` is the least float >= true_val + margin and
/// `*lo` the greatest float <= true_val - margin, with the sums taken in
/// double (RankMargin's slack covers their rounding).
void RankBand(float true_val, double margin, float* lo, float* hi);

/// One triple's rows for `translation_update`: the head and tail entity
/// rows and the relation row, each with its AdaGrad accumulator row, plus
/// the triple's residual (h + r) - t from `translation_residual`. The head
/// and tail may be the same row; the relation row is in another table.
struct TranslationStep {
  float* head = nullptr;
  float* head_acc = nullptr;
  float* relation = nullptr;
  float* relation_acc = nullptr;
  float* tail = nullptr;
  float* tail_acc = nullptr;
  const float* residual = nullptr;
  /// The gradient is g[i] = scale * residual[i] on the head and relation
  /// rows and -g[i] on the tail row.
  float scale = 0.0f;
  float lr = 0.0f;
  float eps = 0.0f;
};

/// The dispatch table. All pointers are non-null in every table; spans are
/// passed as raw pointer + length because the table is the lowest layer
/// (std::span costs nothing but adds no information here). No alignment
/// requirements: AVX2 kernels use unaligned loads, alignment of the row
/// storage (64-byte, see AlignedVector) is purely a performance property.
struct KernelTable {
  // -- Reductions (may differ bitwise between backends). ------------------
  /// sum_i a[i] * b[i].
  float (*dot)(const float* a, const float* b, size_t n);
  /// sum_i x[i]^2.
  float (*squared_l2)(const float* x, size_t n);
  /// sum_i |x[i]|.
  float (*l1)(const float* x, size_t n);
  /// sum_i (a[i] - b[i])^2.
  float (*squared_l2_distance)(const float* a, const float* b, size_t n);
  /// sum_i |a[i] - b[i]|.
  float (*l1_distance)(const float* a, const float* b, size_t n);

  // -- Batched distance rows (one source row vs a block of target rows,
  //    each row `ldb` floats apart). out[r] gets the same float the cell
  //    kernel above would produce for row r — the streaming top-k and the
  //    dense similarity matrix both ride these, which is what keeps them
  //    bit-identical to each other under either backend. -------------------
  void (*dot_rows)(const float* a, const float* b, size_t ldb, float* out,
                   size_t rows, size_t n);
  void (*squared_l2_distance_rows)(const float* a, const float* b, size_t ldb,
                                   float* out, size_t rows, size_t n);
  void (*l1_distance_rows)(const float* a, const float* b, size_t ldb,
                           float* out, size_t rows, size_t n);

  // -- Scan epilogue over cells[0..count) from a *_rows kernel: finish the
  //    metric, apply CSLS, then (when `counts` is non-null) count NaN,
  //    greater and tie cells and offer admitted cells to the top-k. Every
  //    float is the same IEEE operation sequence in both backends (multiply
  //    then subtract for CSLS, never an FMA), so the finished cells and the
  //    counts are bit-identical across backends given identical input
  //    cells. --------------------------------------------------------------
  void (*scan_epilogue)(const ScanEpilogue& tile, float* cells, size_t count,
                        ScanCounts* counts);

  // -- Cosine ranking by decision: adds to counts[0..tile.count) the NaN,
  //    greater and tie tallies the exact cells of this backend (`dot_rows`
  //    plus the kCosine finish) would give. Each cell's decision value
  //    comes from a cheaper bound kernel; only cells within RankMargin(n)
  //    of the true cell are computed exactly. The caller keeps to the guard
  //    above (kRankMinNorm). ---------------------------------------------
  void (*rank_cosine)(const RankTile& tile, ScanCounts* counts);
  // -- Cosine top-1 by decision, rank_cosine with a running best in place
  //    of the true cell: tile.true_vals[r] is an exact cell of row r (the
  //    seed) and tile.true_pos[r] its column. best[r] receives the greatest
  //    exact cell of the row over the tile's columns and the lowest column
  //    that holds it, i.e. the argmax of the exact cells with ties toward
  //    the lower column. A cell whose decision value lies below the band
  //    of the running best is dropped; every other cell is computed
  //    exactly. Same guard as rank_cosine. -------------------------------
  void (*top1_cosine)(const RankTile& tile, RankTop1* best);

  // -- Elementwise (bit-identical across backends). ------------------------
  /// y[i] += alpha * x[i].
  void (*axpy)(float alpha, const float* x, float* y, size_t n);
  /// x[i] *= alpha.
  void (*scale)(float alpha, float* x, size_t n);
  /// out[i] = a[i] + b[i] (out may alias a or b).
  void (*add)(const float* a, const float* b, float* out, size_t n);
  /// out[i] = a[i] - b[i] (out may alias a or b).
  void (*sub)(const float* a, const float* b, float* out, size_t n);
  /// out[i] = a[i] * b[i] (out may alias a or b).
  void (*hadamard)(const float* a, const float* b, float* out, size_t n);

  // -- Small row-blocked GEMM: out(m x n) = a(m x k) * b(k x n), all
  //    row-major with the given leading dimensions, out overwritten.
  //    i-k-j loop order; the scalar version keeps the historical
  //    "skip aik == 0" fast path bit for bit. ------------------------------
  void (*gemm_block)(const float* a, size_t lda, const float* b, size_t ldb,
                     float* out, size_t ldc, size_t m, size_t k, size_t n);

  // -- Fused optimizer updates (elementwise; bit-identical across
  //    backends): acc[i] += g[i]^2; row[i] -= (lr * g[i]) / sqrt(acc[i] +
  //    eps). ---------------------------------------------------------------
  void (*adagrad_update)(float* row, float* acc, const float* grad, size_t n,
                         float lr, float eps);
  /// row[i] -= lr * grad[i].
  void (*sgd_update)(float* row, const float* grad, size_t n, float lr);

  // -- The TransE pair step (bit-identical across backends). ---------------
  /// res[i] = (h[i] + r[i]) - t[i]; returns sum_i res[i]^2. The residual
  /// and the squares are elementwise; the squares are summed in the scalar
  /// order i = 0..n-1, with no add tree and no FMA, so the energy is the
  /// float of the plain scalar loop in both backends.
  float (*translation_residual)(const float* h, const float* r,
                                const float* t, float* res, size_t n);
  /// The three `adagrad_update` steps of one triple (head and relation with
  /// g, tail with -g) in one pass: per lane block the head, then the
  /// relation, then the tail. Each element sees the IEEE sequence of the
  /// three separate updates, so a head row that is also the tail row gets
  /// both steps in sequence.
  void (*translation_update)(const TranslationStep& step, size_t n);
};

/// Human-readable backend name ("scalar" / "avx2").
const char* BackendName(Backend backend);

/// True when the CPU supports AVX2+FMA *and* the AVX2 table was compiled in
/// (OPENEA_ENABLE_AVX2). A pure capability probe; independent of the
/// OPENEA_KERNELS override.
bool Avx2Supported();

/// The backend selected at startup: OPENEA_KERNELS=scalar|avx2 when set
/// (an unsatisfiable avx2 request falls back to scalar with a warning),
/// else avx2 when supported, else scalar.
Backend ActiveBackend();

/// Rows per register of the active table's decision kernels
/// (`rank_cosine`, `top1_cosine`): 16 for the AVX-512F body, 8 for the AVX2
/// one, 0 for scalar. Reported as the `kernels/decision_lanes` gauge; a
/// group of at most 8 rows runs 8 lanes under either AVX2 body.
size_t DecisionLanes();

/// The dispatch table of the active backend. Hot loops should hoist this
/// reference out of the loop (one relaxed atomic load).
const KernelTable& Active();

/// The table of a specific backend, for A/B benches and the equivalence
/// suite. Requesting an unavailable backend returns the scalar table.
const KernelTable& Table(Backend backend);

/// Forces the active backend for the rest of the process (tests and A/B
/// benches). Returns false — leaving the active table unchanged — when the
/// requested backend is unavailable on this CPU/build.
bool SetBackendForTesting(Backend backend);

}  // namespace openea::math::kernels

#endif  // OPENEA_MATH_KERNELS_H_
