#include "src/align/topk.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>

#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/common/telemetry.h"
#include "src/math/vec.h"

namespace openea::align {
namespace {

/// Fixed row grain of the scan pass. Fixed (never derived from the thread
/// count) so the chunk layout — and with it every telemetry block count —
/// is identical at any thread count.
constexpr size_t kRowGrain = 8;
/// Default column-tile width: 256 targets x 64 dims x 4 bytes = 64 KiB,
/// small enough to stay L2-resident while a row chunk streams over it.
constexpr size_t kDefaultColBlock = 256;
/// Fixed number of row bands of the CSLS psi pass. Band-local per-column
/// top-k buffers cost kPsiBands * cols * csls_k floats, keeping the pass at
/// O(N * k) memory with a small constant.
constexpr size_t kPsiBands = 8;

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

/// One similarity cell through the shared block kernel
/// (detail::MetricRowBlock, similarity.h) with a block of one — the same
/// code path the dense `SimilarityMatrix` and the blocked scans below use,
/// so the float result is bit-identical. For cosine the two L2 norms are
/// cached by the caller; they are pure functions of each row.
inline float Cell(DistanceMetric metric, std::span<const float> a,
                  std::span<const float> b, float na, float nb) {
  float out = 0.0f;
  detail::MetricRowBlock(metric, a.data(), na, b.data(), b.size(), &nb, &out,
                         1, a.size());
  return out;
}

/// The CSLS adjustment, evaluated with the same float expression (and
/// operation order) as `ApplyCsls`: 2 sim - psi_src - psi_tgt.
inline float CslsAdjust(float sim, float psi_src, float psi_tgt) {
  return 2.0f * sim - psi_src - psi_tgt;
}

/// Top-k selection order and bounded insert live in topk.h (detail::) so
/// the candidate-source implementations select with exactly the same total
/// order as this engine.
using detail::TopKInsert;

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
/// TopKInsert keeps it: a scan visits columns in ascending order, so a cell
/// that ties the k-th value always has the larger column and loses.
void OfferToRow(void* ctx, float v, size_t pos) {
  RowSelection& sel = *static_cast<RowSelection*>(ctx);
  TopKInsert(sel.ents, *sel.count, sel.k, v,
             static_cast<int>(sel.first_col + pos));
  if (*sel.count == sel.k) sel.bound = {sel.ents[sel.k - 1].value, false};
}

/// Scans one source row `a` (norm `na`) against `cols` target rows starting
/// at `b`, `ldb` floats apart, which are columns first_col.. of the whole
/// target set. Each col_block tile is one MetricRowScan call: the shared
/// cell kernel plus the dispatched scan epilogue. `norms` and `psi_tgt`
/// (null when unused) are indexed like the scanned rows. `scan` carries the
/// row's CSLS and true-column fields; `sel` (null when k = 0) the row's
/// top-k list. Tallies go to `counts`; returns the number of tiles.
uint64_t ScanRowTiles(DistanceMetric metric, const float* a, float na,
                      size_t dim, const float* b, size_t ldb,
                      const float* norms, const float* psi_tgt, size_t cols,
                      size_t first_col, size_t col_block, int true_col,
                      math::kernels::ScanEpilogue scan, RowSelection* sel,
                      float* cell_buf, math::kernels::ScanCounts* counts) {
  if (sel != nullptr) {
    sel->bound = *sel->count < sel->k
                     ? math::kernels::ScanBound{}
                     : math::kernels::ScanBound{sel->ents[sel->k - 1].value,
                                                false};
    scan.bound = &sel->bound;
    scan.offer = OfferToRow;
    scan.ctx = sel;
  }
  uint64_t tiles = 0;
  for (size_t jb = 0; jb < cols; jb += col_block) {
    const size_t je = std::min(cols, jb + col_block);
    const size_t col = first_col + jb;
    ++tiles;
    if (sel != nullptr) sel->first_col = col;
    scan.psi_tgt = psi_tgt != nullptr ? psi_tgt + jb : nullptr;
    scan.true_pos = true_col >= 0 ? static_cast<size_t>(true_col) - col
                                  : static_cast<size_t>(-1);
    detail::MetricRowScan(metric, a, na, b + jb * ldb, ldb,
                          norms != nullptr ? norms + jb : nullptr, cell_buf,
                          je - jb, dim, scan, counts);
  }
  return tiles;
}

/// Sorted-ascending bounded insert of a bare value (the k-largest multiset
/// is uniquely defined, so value-only buffers merge deterministically in
/// any order). vals[0] is the current worst kept value.
inline void InsertValue(float* vals, uint32_t& count, size_t k, float v) {
  if (count == k) {
    if (!(v > vals[0])) return;
    size_t pos = 0;
    while (pos + 1 < k && vals[pos + 1] < v) {
      vals[pos] = vals[pos + 1];
      ++pos;
    }
    vals[pos] = v;
    return;
  }
  size_t pos = count;
  while (pos > 0 && vals[pos - 1] > v) {
    vals[pos] = vals[pos - 1];
    --pos;
  }
  vals[pos] = v;
  ++count;
}

/// Mean of an ascending value buffer summed in descending order — the same
/// accumulation order as the dense `ApplyCsls` mean over a
/// partial_sort-descending prefix, so the float result matches bit for bit.
inline float MeanDescending(const float* vals, uint32_t count) {
  if (count == 0) return 0.0f;
  float sum = 0.0f;
  for (uint32_t i = count; i-- > 0;) sum += vals[i];
  return sum / static_cast<float>(count);
}

/// Per-row L2 norms (cosine only); pure per-row, so precomputing once is
/// bit-identical to the per-pair norms of `math::CosineSimilarity`.
std::vector<float> RowNorms(const math::Matrix& m) {
  std::vector<float> norms(m.rows());
  ParallelFor(0, m.rows(), 0, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) norms[i] = math::L2Norm(m.Row(i));
  });
  return norms;
}

/// Pass one of streaming CSLS: one scan over all cells fills psi_src (mean
/// top-k similarity of each source row) directly and per-column top-k value
/// buffers local to a fixed band layout; a second, cheap pass merges the
/// band buffers per column into psi_tgt. Nothing of size rows x cols is
/// ever allocated.
void ComputeCslsPsi(const math::Matrix& src, const math::Matrix& tgt,
                    DistanceMetric metric, int csls_k, size_t col_block,
                    const std::vector<float>& src_norms,
                    const std::vector<float>& tgt_norms,
                    std::vector<float>& psi_src, std::vector<float>& psi_tgt,
                    std::atomic<uint64_t>& nan_cells) {
  const size_t rows = src.rows();
  const size_t cols = tgt.rows();
  // Per-direction neighbourhood clamp (mirrors the ApplyCsls fix): psi_src
  // ranks over `cols` candidates, psi_tgt over `rows`.
  const size_t kk_src = std::min<size_t>(std::max(csls_k, 1), cols);
  const size_t kk_tgt = std::min<size_t>(std::max(csls_k, 1), rows);
  psi_src.assign(rows, 0.0f);
  psi_tgt.assign(cols, 0.0f);
  if (rows == 0 || cols == 0) return;

  const size_t num_bands = std::min(kPsiBands, rows);
  const size_t band_rows = (rows + num_bands - 1) / num_bands;
  // Band-local per-column top-k value buffers plus their fill counts.
  std::vector<std::vector<float>> band_vals(num_bands);
  std::vector<std::vector<uint32_t>> band_counts(num_bands);

  ParallelFor(0, num_bands, 1, [&](size_t bb, size_t be) {
    for (size_t band = bb; band < be; ++band) {
      const size_t row_begin = band * band_rows;
      const size_t row_end = std::min(rows, row_begin + band_rows);
      if (row_begin >= row_end) continue;
      band_vals[band].assign(cols * kk_tgt, kNegInf);
      band_counts[band].assign(cols, 0);
      float* cvals = band_vals[band].data();
      uint32_t* ccounts = band_counts[band].data();
      // Per-row top-k buffers for the band's slice of psi_src.
      std::vector<float> row_vals((row_end - row_begin) * kk_src, kNegInf);
      std::vector<uint32_t> row_counts(row_end - row_begin, 0);
      uint64_t local_nan = 0;
      uint64_t local_blocks = 0;
      std::vector<float> cell_buf(std::min(col_block, cols));
      for (size_t jb = 0; jb < cols; jb += col_block) {
        const size_t je = std::min(cols, jb + col_block);
        ++local_blocks;
        for (size_t i = row_begin; i < row_end; ++i) {
          const auto a = src.Row(i);
          const float na = src_norms.empty() ? 0.0f : src_norms[i];
          float* rvals = row_vals.data() + (i - row_begin) * kk_src;
          uint32_t& rcount = row_counts[i - row_begin];
          // One batched kernel call per (row, column tile).
          detail::MetricRowBlock(
              metric, a.data(), na, tgt.Row(jb).data(), tgt.cols(),
              tgt_norms.empty() ? nullptr : tgt_norms.data() + jb,
              cell_buf.data(), je - jb, tgt.cols());
          for (size_t j = jb; j < je; ++j) {
            const float s = cell_buf[j - jb];
            if (std::isnan(s)) {
              ++local_nan;
              continue;
            }
            InsertValue(rvals, rcount, kk_src, s);
            InsertValue(cvals + j * kk_tgt, ccounts[j], kk_tgt, s);
          }
        }
      }
      for (size_t i = row_begin; i < row_end; ++i) {
        psi_src[i] = MeanDescending(row_vals.data() + (i - row_begin) * kk_src,
                                    row_counts[i - row_begin]);
      }
      if (local_nan > 0) {
        nan_cells.fetch_add(local_nan, std::memory_order_relaxed);
      }
      telemetry::IncrCounter("align/topk_blocks", local_blocks);
    }
  });

  // Merge the band-local buffers per column. The k-largest multiset is
  // independent of the merge order, and the final descending sum matches
  // the dense mean over a partial_sort-descending prefix.
  ParallelFor(0, cols, 256, [&](size_t begin, size_t end) {
    std::vector<float> merged;
    for (size_t j = begin; j < end; ++j) {
      merged.clear();
      for (size_t band = 0; band < num_bands; ++band) {
        if (band_counts[band].empty()) continue;
        const uint32_t count = band_counts[band][j];
        const float* vals = band_vals[band].data() + j * kk_tgt;
        merged.insert(merged.end(), vals, vals + count);
      }
      const size_t take = std::min<size_t>(kk_tgt, merged.size());
      std::partial_sort(merged.begin(),
                        merged.begin() + static_cast<long>(take), merged.end(),
                        std::greater<float>());
      float sum = 0.0f;
      for (size_t t = 0; t < take; ++t) sum += merged[t];
      psi_tgt[j] = take > 0 ? sum / static_cast<float>(take) : 0.0f;
    }
  });
}

}  // namespace

TopKResult StreamingTopK(const math::Matrix& src, const math::Matrix& tgt,
                         const TopKOptions& options) {
  OPENEA_CHECK_EQ(src.cols(), tgt.cols());
  const size_t rows = src.rows();
  const size_t cols = tgt.rows();
  const bool has_true = !options.true_cols.empty();
  if (has_true) OPENEA_CHECK_EQ(options.true_cols.size(), rows);
  const size_t col_block =
      options.col_block > 0 ? options.col_block : kDefaultColBlock;

  TopKResult result;
  result.rows = rows;
  result.k = options.k;
  result.entries.assign(rows * options.k, TopKEntry{});
  if (has_true) {
    result.true_sim.assign(rows, 0.0f);
    result.num_greater.assign(rows, 0);
    result.num_ties.assign(rows, 0);
  }
  if (rows == 0) return result;

  telemetry::ScopedSpan span("streaming_topk");
  telemetry::IncrCounter("align/topk_rows", rows);

  std::vector<float> src_norms, tgt_norms;
  if (options.metric == DistanceMetric::kCosine) {
    src_norms = RowNorms(src);
    tgt_norms = RowNorms(tgt);
  }

  std::atomic<uint64_t> nan_cells{0};
  std::atomic<uint64_t> nan_true{0};

  std::vector<float> psi_src, psi_tgt;
  if (options.csls) {
    telemetry::ScopedSpan psi_span("topk_psi");
    ComputeCslsPsi(src, tgt, options.metric, options.csls_k, col_block,
                   src_norms, tgt_norms, psi_src, psi_tgt, nan_cells);
  }

  {
    telemetry::ScopedSpan scan_span("topk_scan");
    ParallelFor(0, rows, kRowGrain, [&](size_t row_begin, size_t row_end) {
      std::vector<TopKEntry> heap(options.k);
      std::vector<float> cell_buf(std::min(col_block, cols));
      uint64_t local_nan = 0;
      uint64_t local_nan_true = 0;
      uint64_t local_blocks = 0;
      for (size_t i = row_begin; i < row_end; ++i) {
        const auto a = src.Row(i);
        const float na = src_norms.empty() ? 0.0f : src_norms[i];
        const float psi_i = options.csls ? psi_src[i] : 0.0f;
        int true_col = -1;
        float true_val = 0.0f;
        bool true_is_nan = false;
        if (has_true) {
          true_col = options.true_cols[i];
          OPENEA_CHECK_LT(static_cast<size_t>(true_col), cols);
          const float raw =
              Cell(options.metric, a, tgt.Row(true_col), na,
                   tgt_norms.empty() ? 0.0f : tgt_norms[true_col]);
          true_val = options.csls
                         ? CslsAdjust(raw, psi_i, psi_tgt[true_col])
                         : raw;
          true_is_nan = std::isnan(true_val);
          result.true_sim[i] = true_val;
        }
        size_t count = 0;
        RowSelection sel;
        sel.ents = heap.data();
        sel.count = &count;
        sel.k = options.k;
        math::kernels::ScanEpilogue scan;
        scan.psi_src = psi_i;
        scan.count_true = has_true;
        scan.true_val = true_val;
        math::kernels::ScanCounts tally;
        local_blocks += ScanRowTiles(
            options.metric, a.data(), na, tgt.cols(), tgt.Data().data(),
            tgt.cols(), tgt_norms.empty() ? nullptr : tgt_norms.data(),
            options.csls ? psi_tgt.data() : nullptr, cols, 0, col_block,
            true_col, scan, options.k > 0 ? &sel : nullptr, cell_buf.data(),
            &tally);
        local_nan += tally.nan;
        uint32_t greater = tally.greater, ties = tally.ties;
        if (options.k > 0) {
          TopKEntry* out = result.entries.data() + i * options.k;
          for (size_t t = 0; t < count; ++t) out[t] = heap[t];
        }
        if (has_true) {
          if (true_is_nan) {
            // Deterministic worst-case rank for a NaN-poisoned true pair —
            // the dense comparisons would silently report rank 1.
            ++local_nan_true;
            greater = static_cast<uint32_t>(cols);
            ties = 0;
          }
          result.num_greater[i] = greater;
          result.num_ties[i] = ties;
        }
      }
      if (local_nan > 0) {
        nan_cells.fetch_add(local_nan, std::memory_order_relaxed);
      }
      if (local_nan_true > 0) {
        nan_true.fetch_add(local_nan_true, std::memory_order_relaxed);
      }
      telemetry::IncrCounter("align/topk_blocks", local_blocks);
    });
  }

  result.nan_cells = nan_cells.load(std::memory_order_relaxed);
  if (result.nan_cells > 0) {
    telemetry::IncrCounter("align/topk_nan_cells", result.nan_cells);
  }
  const uint64_t nan_true_total = nan_true.load(std::memory_order_relaxed);
  if (nan_true_total > 0) {
    telemetry::IncrCounter("align/topk_nan_true", nan_true_total);
  }
  return result;
}

TopKResult ShardedTopK(const math::Matrix& src,
                       const math::ShardedEmbeddingTable& tgt,
                       const TopKOptions& options) {
  OPENEA_CHECK_EQ(src.cols(), tgt.dim());
  OPENEA_CHECK(!options.csls);  // See the header: stream callers rank raw.
  const size_t rows = src.rows();
  const size_t cols = tgt.num_rows();
  const size_t dim = tgt.dim();
  const size_t stride = tgt.row_stride();
  const bool has_true = !options.true_cols.empty();
  if (has_true) OPENEA_CHECK_EQ(options.true_cols.size(), rows);
  const size_t col_block =
      options.col_block > 0 ? options.col_block : kDefaultColBlock;

  TopKResult result;
  result.rows = rows;
  result.k = options.k;
  result.entries.assign(rows * options.k, TopKEntry{});
  if (has_true) {
    result.true_sim.assign(rows, 0.0f);
    result.num_greater.assign(rows, 0);
    result.num_ties.assign(rows, 0);
  }
  if (rows == 0) return result;

  telemetry::ScopedSpan span("sharded_topk");
  telemetry::IncrCounter("align/topk_rows", rows);

  std::vector<float> src_norms, tgt_norms;
  const bool cosine = options.metric == DistanceMetric::kCosine;
  if (cosine) {
    src_norms = RowNorms(src);
    tgt_norms.resize(cols);
  }

  std::atomic<uint64_t> nan_cells{0};
  uint64_t nan_true = 0;

  // Group source rows by the bank holding their true column, so the
  // true-cell pass maps each bank once.
  std::vector<std::vector<uint32_t>> true_rows_by_bank;
  if (has_true) {
    true_rows_by_bank.resize(tgt.num_banks());
    for (size_t i = 0; i < rows; ++i) {
      const int true_col = options.true_cols[i];
      OPENEA_CHECK_LT(static_cast<size_t>(true_col), cols);
      true_rows_by_bank[tgt.BankOfRow(static_cast<size_t>(true_col))]
          .push_back(static_cast<uint32_t>(i));
    }
  }

  // Pass 1 over banks: per-row target norms (cosine) and true-column cells.
  // L2Norm is a pure per-row function, so precomputing from the mapped bank
  // is bit-identical to RowNorms over the materialized matrix.
  if (cosine || has_true) {
    for (size_t b = 0; b < tgt.num_banks(); ++b) {
      if (b + 1 < tgt.num_banks()) tgt.Prefetch(b + 1);
      auto lease = tgt.MapBank(b);
      OPENEA_CHECK(lease.ok());
      if (cosine) {
        ParallelFor(0, lease->rows(), 64, [&](size_t begin, size_t end) {
          for (size_t r = begin; r < end; ++r) {
            tgt_norms[lease->first_row() + r] = math::L2Norm(
                std::span<const float>(lease->values() + r * stride, dim));
          }
        });
      }
      if (has_true && !true_rows_by_bank[b].empty()) {
        const std::vector<uint32_t>& group = true_rows_by_bank[b];
        ParallelFor(0, group.size(), 64, [&](size_t begin, size_t end) {
          for (size_t g = begin; g < end; ++g) {
            const size_t i = group[g];
            const size_t true_col =
                static_cast<size_t>(options.true_cols[i]);
            result.true_sim[i] =
                Cell(options.metric, src.Row(i),
                     std::span<const float>(lease->RowValues(true_col), dim),
                     src_norms.empty() ? 0.0f : src_norms[i],
                     tgt_norms.empty() ? 0.0f : tgt_norms[true_col]);
          }
        });
      }
    }
  }

  // Pass 2: bank-outer scan with persistent per-row selection state. Row
  // chunk boundaries are fixed by kRowGrain, so a given row is only ever
  // touched by the thread owning its chunk within a bank, and the ParallelFor
  // barrier orders the banks.
  std::vector<size_t> counts(rows, 0);
  {
    telemetry::ScopedSpan scan_span("topk_scan");
    for (size_t b = 0; b < tgt.num_banks(); ++b) {
      if (b + 1 < tgt.num_banks()) tgt.Prefetch(b + 1);
      auto lease = tgt.MapBank(b);
      OPENEA_CHECK(lease.ok());
      const size_t first = lease->first_row();
      const size_t bank_rows = lease->rows();
      ParallelFor(0, rows, kRowGrain, [&](size_t row_begin, size_t row_end) {
        std::vector<float> cell_buf(std::min(col_block, bank_rows));
        uint64_t local_nan = 0;
        uint64_t local_blocks = 0;
        for (size_t i = row_begin; i < row_end; ++i) {
          const auto a = src.Row(i);
          const float na = src_norms.empty() ? 0.0f : src_norms[i];
          const int true_col = has_true ? options.true_cols[i] : -1;
          const float true_val = has_true ? result.true_sim[i] : 0.0f;
          RowSelection sel;
          sel.ents = result.entries.data() + i * options.k;
          sel.count = &counts[i];
          sel.k = options.k;
          math::kernels::ScanEpilogue scan;
          scan.count_true = has_true;
          scan.true_val = true_val;
          math::kernels::ScanCounts tally;
          local_blocks += ScanRowTiles(
              options.metric, a.data(), na, dim, lease->values(), stride,
              tgt_norms.empty() ? nullptr : tgt_norms.data() + first, nullptr,
              bank_rows, first, col_block, true_col, scan,
              options.k > 0 ? &sel : nullptr, cell_buf.data(), &tally);
          local_nan += tally.nan;
          if (has_true) {
            result.num_greater[i] += tally.greater;
            result.num_ties[i] += tally.ties;
          }
        }
        if (local_nan > 0) {
          nan_cells.fetch_add(local_nan, std::memory_order_relaxed);
        }
        telemetry::IncrCounter("align/topk_blocks", local_blocks);
      });
    }
  }

  if (has_true) {
    for (size_t i = 0; i < rows; ++i) {
      if (std::isnan(result.true_sim[i])) {
        ++nan_true;
        result.num_greater[i] = static_cast<uint32_t>(cols);
        result.num_ties[i] = 0;
      }
    }
  }

  result.nan_cells = nan_cells.load(std::memory_order_relaxed);
  if (result.nan_cells > 0) {
    telemetry::IncrCounter("align/topk_nan_cells", result.nan_cells);
  }
  if (nan_true > 0) {
    telemetry::IncrCounter("align/topk_nan_true", nan_true);
  }
  return result;
}

std::vector<int> StreamingGreedyMatch(const math::Matrix& src,
                                      const math::Matrix& tgt,
                                      DistanceMetric metric, bool csls,
                                      int csls_k) {
  TopKOptions options;
  options.k = 1;
  options.metric = metric;
  options.csls = csls;
  options.csls_k = csls_k;
  const TopKResult result = StreamingTopK(src, tgt, options);
  std::vector<int> match(src.rows(), -1);
  for (size_t i = 0; i < src.rows(); ++i) match[i] = result.BestIndex(i);
  return match;
}

}  // namespace openea::align
