#ifndef OPENEA_ALIGN_TOPK_H_
#define OPENEA_ALIGN_TOPK_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "src/align/similarity.h"
#include "src/math/matrix.h"
#include "src/math/sharded_table.h"

namespace openea::align {

/// Streaming top-k similarity engine (DESIGN.md, "Streaming top-k
/// similarity").
///
/// Computes, per source row, the k most similar target rows — plus, when
/// requested, the similarity of a designated "true" column and exact
/// greater/tie counts against it — without ever materializing the full
/// src.rows() x tgt.rows() similarity matrix. Peak memory is O(N * k)
/// instead of the O(N^2) of `SimilarityMatrix`, which is what caps the
/// test-set sizes the dense evaluation path can serve.
///
/// Contract (pinned by tests/topk_test.cc under the `topk` ctest label):
///
///  * Bit-identity. Every similarity cell is produced by exactly the same
///    `math::` kernel calls as `SimilarityMatrix` (cosine caches the two L2
///    norms, which are pure functions of each row, and evaluates the same
///    final expression), and the CSLS adjustment evaluates the same float
///    expression as `ApplyCsls`. Derived quantities — top-k values,
///    greater/tie counts, greedy argmaxes, CSLS neighbourhood means — are
///    therefore bit-identical to the dense path on NaN-free inputs.
///  * Determinism. The scan runs under `ParallelFor` with fixed grains; all
///    selections use the strict total order (value desc, column asc), so
///    results are bit-identical at any thread count and any block layout.
///  * Streaming CSLS. Two passes: pass one streams all cells once through
///    per-row and block-local per-column top-k buffers (merged in a fixed
///    band layout) to obtain psi_src / psi_tgt; pass two streams again over
///    adjusted values. No N^2 buffer exists at any point.
///  * NaN guard. NaN similarity cells are skipped deterministically and
///    counted under the `align/topk_nan_cells` telemetry counter (the dense
///    path's `std::max_element` / `std::partial_sort` would yield arbitrary
///    winners). A row whose candidates are all NaN yields BestIndex() == -1;
///    a NaN true-column similarity ranks the row last and is counted under
///    `align/topk_nan_true`.
struct TopKOptions {
  /// Neighbours kept per source row; 0 keeps no list (true-column ranking
  /// only). Rows with fewer than k finite candidates are padded.
  size_t k = 10;
  DistanceMetric metric = DistanceMetric::kCosine;
  /// Rank/select over CSLS-adjusted similarities (paper Eq. 7) computed by
  /// the two-pass streaming scheme.
  bool csls = false;
  int csls_k = 10;
  /// When non-empty (size must equal src.rows()), entry i names the target
  /// column whose (possibly CSLS-adjusted) similarity is reported in
  /// `true_sim[i]` together with exact greater/tie counts for ranking.
  std::vector<int> true_cols;
  /// Column-tile width of the inner kernel; 0 picks the default. Has no
  /// effect on results (pinned by tests), only on cache behaviour.
  size_t col_block = 0;
};

struct TopKEntry {
  float value = -std::numeric_limits<float>::infinity();
  int index = -1;
};

struct TopKResult {
  size_t rows = 0;
  size_t k = 0;  // As requested, even when cols < k (rows are padded).
  /// Row-major rows x k entries, each row sorted by (value desc, index asc)
  /// and padded with {-inf, -1} when fewer than k finite candidates exist.
  std::vector<TopKEntry> entries;
  /// Per-row true-column stats; empty unless `true_cols` was provided.
  std::vector<float> true_sim;
  std::vector<uint32_t> num_greater;  // Strictly greater than true_sim.
  std::vector<uint32_t> num_ties;     // Equal to true_sim (true col excluded).
  /// NaN similarity cells skipped across all passes.
  uint64_t nan_cells = 0;

  std::span<const TopKEntry> Row(size_t i) const {
    return std::span<const TopKEntry>(entries.data() + i * k, k);
  }
  /// Best target column of row i, or -1 when the row has no finite
  /// candidate (ties break toward the lower column, matching the dense
  /// `GreedyMatch` argmax).
  int BestIndex(size_t i) const {
    return k > 0 ? entries[i * k].index : -1;
  }
};

/// Runs the streaming engine: `src` rows against the target rows of `tgt`
/// (src.cols() must equal tgt.dim()). The targets are an in-RAM Matrix (one
/// bank) or a shard-banked on-disk table (src/math/sharded_table.h, N
/// banks); either binds to math::RowBanks, and both run the same code:
/// passes over the banks for the cosine norms and the true-column cells,
/// then a bank-outer scan that keeps each row's selection state across
/// banks, reading a bank through its row stride, the next one prefetched.
/// Per-cell values are batch-independent and the selection order is a
/// strict total order, so a table gives the same result as the matrix it
/// was written from, at any bank size and thread count. The span is
/// `streaming_topk` in RAM and `sharded_topk` over a table. Peak memory is
/// O(rows * k) plus the leased banks. CSLS needs the targets in one bank
/// (its psi pass scans every cell); more banks CHECK-fail.
TopKResult StreamingTopK(const math::Matrix& src, const math::RowBanks& tgt,
                         const TopKOptions& options);

/// Streaming greedy matcher: match[i] = argmax_j sim(i, j) straight from the
/// embeddings (with optional streaming CSLS), bit-identical to
/// `GreedyMatch(SimilarityMatrix(src, tgt, metric))` (plus `ApplyCsls`) on
/// NaN-free inputs, in O(N) memory. Rows with no finite candidate map to -1.
std::vector<int> StreamingGreedyMatch(const math::Matrix& src,
                                      const math::Matrix& tgt,
                                      DistanceMetric metric, bool csls = false,
                                      int csls_k = 10);

namespace detail {

/// Strict total order of top-k selection: larger value wins; equal values
/// break toward the lower column (the dense argmax/partial_sort keeps the
/// first occurrence). A strict total order makes the selected set
/// independent of the scan order, which is what lets the streaming engine,
/// the LSH bucket scan, and the IVF list probes all produce the same
/// entries for the same candidate set.
inline bool TopKBetter(float v, int j, const TopKEntry& than) {
  return v > than.value || (v == than.value && j < than.index);
}

/// Sorted-descending bounded insert into ents[0..count), capacity k. Shared
/// by every CandidateSource implementation (src/align/candidate_source.h).
inline void TopKInsert(TopKEntry* ents, size_t& count, size_t k, float v,
                       int j) {
  if (count == k) {
    if (!TopKBetter(v, j, ents[k - 1])) return;
    --count;
  }
  size_t pos = count;
  while (pos > 0 && TopKBetter(v, j, ents[pos - 1])) {
    ents[pos] = ents[pos - 1];
    --pos;
  }
  ents[pos] = {v, j};
  ++count;
}

/// The top-k list of the row being scanned, reached from the scan
/// epilogue's `offer` hook.
struct RowSelection {
  TopKEntry* ents = nullptr;
  size_t* count = nullptr;
  size_t k = 0;
  size_t first_col = 0;  // Column of the current tile's first cell.
  math::kernels::ScanBound bound;
};

/// The epilogue offers a cell only while the list is short or when the
/// cell is strictly greater than the k-th kept value. That is exactly when
/// TopKInsert keeps it as long as a row's columns are scanned in ascending
/// order: a cell that ties the k-th value has the larger column and loses.
inline void OfferToRow(void* ctx, float v, size_t pos) {
  RowSelection& sel = *static_cast<RowSelection*>(ctx);
  TopKInsert(sel.ents, *sel.count, sel.k, v,
             static_cast<int>(sel.first_col + pos));
  if (*sel.count == sel.k) sel.bound = {sel.ents[sel.k - 1].value, false};
}

}  // namespace detail

}  // namespace openea::align

#endif  // OPENEA_ALIGN_TOPK_H_
