#include "src/align/topk.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>

#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/common/telemetry.h"

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

/// The CSLS adjustment, evaluated with the same float expression (and
/// operation order) as `ApplyCsls`: 2 sim - psi_src - psi_tgt.
inline float CslsAdjust(float sim, float psi_src, float psi_tgt) {
  return 2.0f * sim - psi_src - psi_tgt;
}

/// Top-k selection order and bounded insert live in topk.h (detail::) so
/// the candidate-source implementations select with exactly the same total
/// order as this engine.
using detail::OfferToRow;
using detail::RowSelection;
using detail::TopKInsert;

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

/// Pass one of streaming CSLS over the targets' one bank: one scan over all
/// cells fills psi_src (mean top-k similarity of each source row) directly
/// and per-column top-k value buffers local to a fixed band layout; a
/// second, cheap pass merges the band buffers per column into psi_tgt.
/// Nothing of size rows x cols is ever allocated.
void ComputeCslsPsi(const math::Matrix& src, const math::RowBanks::Bank& tgt,
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
              metric, a.data(), na, tgt.RowValues(tgt.first_row() + jb),
              tgt.stride(),
              tgt_norms.empty() ? nullptr
                                : tgt_norms.data() + tgt.first_row() + jb,
              cell_buf.data(), je - jb, src.cols());
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

TopKResult StreamingTopK(const math::Matrix& src, const math::RowBanks& tgt,
                         const TopKOptions& options) {
  OPENEA_CHECK_EQ(src.cols(), tgt.dim());
  // The psi pass scans every cell of one bank (see the header).
  OPENEA_CHECK(!options.csls || tgt.num_banks() <= 1)
      << "CSLS needs the targets in one bank";
  const size_t rows = src.rows();
  const size_t cols = tgt.rows();
  const size_t dim = tgt.dim();
  const size_t k = options.k;
  const bool has_true = !options.true_cols.empty();
  if (has_true) OPENEA_CHECK_EQ(options.true_cols.size(), rows);
  const size_t col_block =
      options.col_block > 0 ? options.col_block : kDefaultColBlock;

  TopKResult result;
  result.rows = rows;
  result.k = k;
  result.entries.assign(rows * k, TopKEntry{});
  if (has_true) {
    result.true_sim.assign(rows, 0.0f);
    result.num_greater.assign(rows, 0);
    result.num_ties.assign(rows, 0);
  }
  if (rows == 0) return result;

  telemetry::ScopedSpan span(tgt.table() != nullptr ? "sharded_topk"
                                                    : "streaming_topk");
  telemetry::IncrCounter("align/topk_rows", rows);

  // Every walk over the targets leases their banks in order, the next one
  // prefetched; a bank that fails to map (torn or corrupt) is fatal here.
  auto for_each_bank = [&](auto&& fn) {
    const Status status = tgt.ForEachBank(fn);
    OPENEA_CHECK(status.ok()) << status.ToString();
  };

  std::vector<float> src_norms, tgt_norms;
  if (options.metric == DistanceMetric::kCosine) {
    src_norms = detail::RowNorms(src).value();
    StatusOr<std::vector<float>> norms = detail::RowNorms(tgt);
    OPENEA_CHECK(norms.ok()) << norms.status().ToString();
    tgt_norms = *std::move(norms);
  }

  std::atomic<uint64_t> nan_cells{0};
  std::vector<float> psi_src, psi_tgt;
  if (options.csls) {
    telemetry::ScopedSpan psi_span("topk_psi");
    for_each_bank([&](const math::RowBanks::Bank& bank) {
      ComputeCslsPsi(src, bank, options.metric, options.csls_k, col_block,
                     src_norms, tgt_norms, psi_src, psi_tgt, nan_cells);
    });
  }

  // Row i's (CSLS-adjusted) true-column cell, read from `bank`.
  auto true_cell = [&](size_t i, const math::RowBanks::Bank& bank) {
    const size_t true_col = static_cast<size_t>(options.true_cols[i]);
    const float raw = detail::MetricCell(
        options.metric, src.Row(i).data(),
        src_norms.empty() ? 0.0f : src_norms[i], bank.RowValues(true_col),
        tgt_norms.empty() ? 0.0f : tgt_norms[true_col], dim);
    return options.csls ? CslsAdjust(raw, psi_src[i], psi_tgt[true_col])
                        : raw;
  };
  // The scan counts against each row's true cell from the first bank on,
  // so a table's true cells come first: one pass over the banks, rows
  // grouped by the bank holding their true column. A matrix's one bank
  // holds every true column, so its scan computes them in the row loop.
  // Same float either way; each storage keeps the ParallelFor job layout
  // that the bench_diff gates pin (parallel/jobs, parallel/chunks).
  const bool true_in_scan = tgt.table() == nullptr;
  for (size_t i = 0; has_true && i < rows; ++i) {
    OPENEA_CHECK_LT(static_cast<size_t>(options.true_cols[i]), cols);
  }
  if (has_true && !true_in_scan) {
    std::vector<std::vector<uint32_t>> true_rows_by_bank(tgt.num_banks());
    for (size_t i = 0; i < rows; ++i) {
      true_rows_by_bank[tgt.BankOfRow(static_cast<size_t>(
                            options.true_cols[i]))]
          .push_back(static_cast<uint32_t>(i));
    }
    for_each_bank([&](const math::RowBanks::Bank& bank) {
      const std::vector<uint32_t>& group =
          true_rows_by_bank[tgt.BankOfRow(bank.first_row())];
      ParallelFor(0, group.size(), 64, [&](size_t begin, size_t end) {
        for (size_t g = begin; g < end; ++g) {
          result.true_sim[group[g]] = true_cell(group[g], bank);
        }
      });
    });
  }

  // A cosine ranking (k = 0, no CSLS) decides its cells with the bound
  // kernel `rank_cosine` and computes exact cells only near each row's true
  // cell (DESIGN.md, "Ranking by decision"). Rows and banks outside the
  // kernel's guard take the exact scan; the counts are the same either way.
  const bool rank_by_decision =
      has_true && k == 0 && !options.csls &&
      options.metric == DistanceMetric::kCosine &&
      dim <= math::kernels::kRankMaxDim;
  auto in_rank_guard = [](float norm) {
    return norm >= math::kernels::kRankMinNorm &&
           norm <= math::kernels::kRankMaxNorm;
  };

  // The scan: bank-outer, with persistent per-row selection state. Row
  // chunk boundaries are fixed by kRowGrain, so a given row is only ever
  // touched by the thread owning its chunk within a bank, and the
  // ParallelFor barrier orders the banks. In RAM the one bank holds every
  // column, so each row is one ScanRowTiles call over all of them.
  std::vector<size_t> counts(rows, 0);
  {
    telemetry::ScopedSpan scan_span("topk_scan");
    for_each_bank([&](const math::RowBanks::Bank& bank) {
      const size_t first = bank.first_row();
      const size_t bank_rows = bank.rows();
      const bool bank_decided =
          rank_by_decision &&
          std::all_of(tgt_norms.begin() + static_cast<long>(first),
                      tgt_norms.begin() + static_cast<long>(first + bank_rows),
                      in_rank_guard);
      // The tiles ScanRowTiles would count for a decided row.
      const uint64_t row_tiles = (bank_rows + col_block - 1) / col_block;
      ParallelFor(0, rows, kRowGrain, [&](size_t row_begin, size_t row_end) {
        std::vector<float> cell_buf(std::min(col_block, bank_rows));
        uint64_t local_nan = 0;
        uint64_t local_blocks = 0;
        // The decided rows of this chunk, kRankGroup at a time.
        std::vector<float> rank_scratch;
        if (bank_decided) rank_scratch.resize(math::kernels::kRankGroup * dim);
        const float* group_rows[math::kernels::kRankGroup];
        float group_norms[math::kernels::kRankGroup];
        float group_true[math::kernels::kRankGroup];
        size_t group_pos[math::kernels::kRankGroup];
        size_t group_index[math::kernels::kRankGroup];
        size_t group_size = 0;
        auto flush_group = [&] {
          if (group_size == 0) return;
          math::kernels::RankTile tile;
          tile.count = group_size;
          tile.rows = group_rows;
          tile.row_norms = group_norms;
          tile.true_vals = group_true;
          tile.true_pos = group_pos;
          tile.b = bank.values();
          tile.ldb = bank.stride();
          tile.tgt_norms = tgt_norms.data() + first;
          tile.cols = bank_rows;
          tile.n = dim;
          tile.scratch = rank_scratch.data();
          math::kernels::ScanCounts tally[math::kernels::kRankGroup];
          math::kernels::Active().rank_cosine(tile, tally);
          for (size_t g = 0; g < group_size; ++g) {
            local_nan += tally[g].nan;
            result.num_greater[group_index[g]] += tally[g].greater;
            result.num_ties[group_index[g]] += tally[g].ties;
          }
          group_size = 0;
        };
        for (size_t i = row_begin; i < row_end; ++i) {
          if (has_true && true_in_scan) {
            result.true_sim[i] = true_cell(i, bank);
          }
          if (bank_decided && in_rank_guard(src_norms[i]) &&
              std::fabs(result.true_sim[i]) <= 2.0f) {
            group_rows[group_size] = src.Row(i).data();
            group_norms[group_size] = src_norms[i];
            group_true[group_size] = result.true_sim[i];
            group_pos[group_size] =
                static_cast<size_t>(options.true_cols[i]) - first;
            group_index[group_size] = i;
            local_blocks += row_tiles;
            if (++group_size == math::kernels::kRankGroup) flush_group();
            continue;
          }
          RowSelection sel;
          sel.ents = result.entries.data() + i * k;
          sel.count = &counts[i];
          sel.k = k;
          math::kernels::ScanEpilogue scan;
          scan.psi_src = options.csls ? psi_src[i] : 0.0f;
          scan.count_true = has_true;
          scan.true_val = has_true ? result.true_sim[i] : 0.0f;
          math::kernels::ScanCounts tally;
          local_blocks += ScanRowTiles(
              options.metric, src.Row(i).data(),
              src_norms.empty() ? 0.0f : src_norms[i], dim, bank.values(),
              bank.stride(),
              tgt_norms.empty() ? nullptr : tgt_norms.data() + first,
              options.csls ? psi_tgt.data() + first : nullptr, bank_rows,
              first, col_block, has_true ? options.true_cols[i] : -1, scan,
              k > 0 ? &sel : nullptr, cell_buf.data(), &tally);
          local_nan += tally.nan;
          if (has_true) {
            result.num_greater[i] += tally.greater;
            result.num_ties[i] += tally.ties;
          }
        }
        flush_group();
        if (local_nan > 0) {
          nan_cells.fetch_add(local_nan, std::memory_order_relaxed);
        }
        telemetry::IncrCounter("align/topk_blocks", local_blocks);
      });
    });
  }

  uint64_t nan_true = 0;
  for (size_t i = 0; has_true && i < rows; ++i) {
    if (std::isnan(result.true_sim[i])) {
      // Deterministic worst-case rank for a NaN-poisoned true pair — the
      // dense comparisons would silently report rank 1.
      ++nan_true;
      result.num_greater[i] = static_cast<uint32_t>(cols);
      result.num_ties[i] = 0;
    }
  }
  result.nan_cells = nan_cells.load(std::memory_order_relaxed);
  if (result.nan_cells > 0) {
    telemetry::IncrCounter("align/topk_nan_cells", result.nan_cells);
  }
  if (nan_true > 0) telemetry::IncrCounter("align/topk_nan_true", nan_true);
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
