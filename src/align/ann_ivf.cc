#include "src/align/ann_ivf.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/common/telemetry.h"
#include "src/math/kernels.h"
#include "src/math/vec.h"

namespace openea::align {
namespace {

/// Same fixed row grain as the streaming engine / the other sources.
constexpr size_t kQueryGrain = 8;

/// Reads rows of a RowBanks in any order, keeping the last bank leased so
/// a run of rows from one bank leases it once.
class RowReader {
 public:
  explicit RowReader(const math::RowBanks& rows) : rows_(rows) {}

  StatusOr<const float*> Row(size_t row) {
    if (bank_.values() == nullptr || row < bank_.first_row() ||
        row >= bank_.first_row() + bank_.rows()) {
      StatusOr<math::RowBanks::Bank> bank = rows_.Lease(rows_.BankOfRow(row));
      if (!bank.ok()) return bank.status();
      bank_ = *std::move(bank);
    }
    return bank_.RowValues(row);
  }

 private:
  const math::RowBanks& rows_;
  math::RowBanks::Bank bank_;
};

/// A query's top-k over the probed lists. Packed ids ascend within a list
/// but not across lists, so a cell that ties the k-th value may still win
/// on a lower id: the bound admits ties. It is nextafter(k-th, -inf), and
/// for every non-NaN float v, v > nextafter(kth, -inf) exactly when
/// v >= kth. While the k-th value is -inf that bound would reject the -inf
/// ties, so it stays open. TopKInsert then breaks the ties.
struct ListSelection {
  TopKEntry* ents = nullptr;
  size_t count = 0;
  size_t k = 0;
  const int* ids = nullptr;  // packed_ids_ of the tile's first cell.
  math::kernels::ScanBound bound;
};

void OfferToList(void* ctx, float v, size_t pos) {
  ListSelection& sel = *static_cast<ListSelection*>(ctx);
  detail::TopKInsert(sel.ents, sel.count, sel.k, v, sel.ids[pos]);
  if (sel.count < sel.k) return;
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  const float kth = sel.ents[sel.k - 1].value;
  if (kth != kNegInf) sel.bound = {std::nextafter(kth, kNegInf), false};
}

/// Per-thread buffers of the probe, grown on demand and kept across calls:
/// the cells of one scan tile and the probed centroids.
struct ProbeScratch {
  std::vector<float> cells;
  std::vector<TopKEntry> probes;
};

class AnnIvfSource final : public CandidateSource {
 public:
  explicit AnnIvfSource(const CandidateSourceConfig& config)
      : CandidateSource(config) {}

  const char* Name() const override { return "ann_ivf"; }

  TopKResult TopK(const math::Matrix& queries, size_t k) const override {
    OPENEA_CHECK(indexed()) << "AnnIvfSource::TopK before Index";
    OPENEA_CHECK_EQ(queries.cols(), dim());
    TopKResult result;
    result.rows = queries.rows();
    result.k = k;
    result.entries.assign(queries.rows() * k, TopKEntry{});
    if (queries.rows() == 0 || num_lists_ == 0) return result;

    telemetry::ScopedSpan span("ann_ivf_topk");
    const math::RowBanks packed = packed_table_ != nullptr
                                      ? math::RowBanks(*packed_table_)
                                      : math::RowBanks(packed_);
    const std::vector<float> query_norms =
        config_.metric == DistanceMetric::kCosine
            ? detail::RowNorms(queries).value()
            : std::vector<float>();
    std::atomic<uint64_t> scanned{0};
    std::atomic<uint64_t> nan_cells{0};
    ParallelFor(0, queries.rows(), kQueryGrain, [&](size_t begin, size_t end) {
      uint64_t local_scanned = 0;
      uint64_t local_nan = 0;
      for (size_t i = begin; i < end; ++i) {
        Probe(packed, queries.Row(i).data(),
              query_norms.empty() ? 0.0f : query_norms[i], k,
              result.entries.data() + i * k, &local_scanned, &local_nan);
      }
      scanned.fetch_add(local_scanned, std::memory_order_relaxed);
      nan_cells.fetch_add(local_nan, std::memory_order_relaxed);
    });
    result.nan_cells = nan_cells.load(std::memory_order_relaxed);
    telemetry::IncrCounter("cand/ann_ivf/queries", queries.rows());
    telemetry::IncrCounter("cand/ann_ivf/scanned",
                           scanned.load(std::memory_order_relaxed));
    telemetry::IncrCounter("cand/ann_ivf/centroid_scans",
                           queries.rows() * num_lists_);
    if (result.nan_cells > 0) {
      telemetry::IncrCounter("cand/ann_ivf/nan_cells", result.nan_cells);
    }
    return result;
  }

 private:
  /// Ranks the centroids for query `q` (norm `nq`, cosine only), then
  /// scans the nprobe nearest lists into out[0..k), which holds padding on
  /// entry. Both scans are MetricRowScan tiles whose epilogue offers
  /// admitted cells to a selection; NaN cells of the lists are added to
  /// `*nan_cells`, their cell count to `*scanned`.
  void Probe(const math::RowBanks& packed, const float* q, float nq,
             size_t k, TopKEntry* out, uint64_t* scanned,
             uint64_t* nan_cells) const {
    thread_local ProbeScratch scratch;
    const size_t dim = this->dim();
    const size_t nprobe = std::min(config_.ivf_nprobe, num_lists_);
    if (scratch.cells.size() < num_lists_) scratch.cells.resize(num_lists_);
    if (scratch.probes.size() < nprobe) scratch.probes.resize(nprobe);

    // The nprobe best centroids. Centroid ids ascend within the one tile,
    // so the top-k scan's strict bound is exact here.
    size_t probe_count = 0;
    detail::RowSelection probes;
    probes.ents = scratch.probes.data();
    probes.count = &probe_count;
    probes.k = nprobe;
    math::kernels::ScanEpilogue scan;
    scan.bound = &probes.bound;
    scan.offer = detail::OfferToRow;
    scan.ctx = &probes;
    math::kernels::ScanCounts centroid_counts;  // NaN centroids: skipped.
    detail::MetricRowScan(
        config_.metric, q, nq, centroids_.Row(0).data(), dim,
        centroid_norms_.empty() ? nullptr : centroid_norms_.data(),
        scratch.cells.data(), num_lists_, dim, scan, &centroid_counts);

    ListSelection sel;
    sel.ents = out;
    sel.k = k;
    scan = {};
    if (k > 0) {
      scan.bound = &sel.bound;
      scan.offer = OfferToList;
      scan.ctx = &sel;
    }
    math::kernels::ScanCounts counts;
    for (size_t p = 0; p < probe_count; ++p) {
      const size_t list = static_cast<size_t>(scratch.probes[p].index);
      const size_t hi = list_offsets_[list + 1];
      *scanned += hi - list_offsets_[list];
      // Scan the list's packed slots bank by bank: a list of the spilled
      // layout may straddle a bank boundary. Cell values are independent
      // of the batching, so the split does not change them.
      for (size_t pos = list_offsets_[list]; pos < hi;) {
        auto bank = packed.Lease(packed.BankOfRow(pos));
        OPENEA_CHECK(bank.ok()) << bank.status().ToString();
        const size_t chunk_end =
            std::min(hi, bank->first_row() + bank->rows());
        if (scratch.cells.size() < chunk_end - pos) {
          scratch.cells.resize(chunk_end - pos);
        }
        sel.ids = packed_ids_.data() + pos;
        detail::MetricRowScan(
            config_.metric, q, nq, bank->RowValues(pos), bank->stride(),
            packed_norms_.empty() ? nullptr : packed_norms_.data() + pos,
            scratch.cells.data(), chunk_end - pos, dim, scan, &counts);
        pos = chunk_end;
      }
    }
    *nan_cells += counts.nan;
  }

  /// Seeded k-means over the indexed banks, then the packed list layout.
  /// The Lloyd passes stream the banks in row order (one bank in RAM), so a
  /// table and the matrix it was written from build the same index. The
  /// only storage branch is where the packed layout goes: a matrix for an
  /// in-RAM index, a `<table path>.ivfpack` sidecar table for a sharded one,
  /// so the O(N) state a sharded build keeps resident is the id
  /// permutation and the per-row norms.
  Status Build() override {
    telemetry::ScopedSpan span("ann_ivf_build");
    const math::RowBanks rows = this->rows();
    const size_t n = rows.rows();
    const size_t dim = rows.dim();
    const bool cosine = config_.metric == DistanceMetric::kCosine;

    // ceil(sqrt(N)) lists by default: balances the `lists` centroid scan
    // against the ~nprobe*N/lists list scan.
    size_t lists = config_.ivf_lists;
    if (lists == 0 && n > 0) {
      lists = static_cast<size_t>(
          std::ceil(std::sqrt(static_cast<double>(n))));
    }
    lists = std::min(std::max<size_t>(lists, 1), std::max<size_t>(n, 1));
    num_lists_ = n > 0 ? lists : 0;

    centroids_ = math::Matrix(num_lists_, dim);
    packed_ = math::Matrix();
    packed_table_.reset();
    packed_ids_.assign(n, 0);
    list_offsets_.assign(num_lists_ + 1, 0);
    packed_norms_.clear();
    centroid_norms_.clear();
    if (n == 0) return Status::OK();

    // Seeded k-means init: `lists` distinct rows, chosen by a deterministic
    // shuffle of the row indices.
    Rng rng(config_.seed);
    std::vector<int> seeds(n);
    std::iota(seeds.begin(), seeds.end(), 0);
    rng.Shuffle(seeds);
    RowReader reader(rows);
    for (size_t c = 0; c < num_lists_; ++c) {
      StatusOr<const float*> row = reader.Row(static_cast<size_t>(seeds[c]));
      if (!row.ok()) return row.status();
      std::copy(*row, *row + dim, centroids_.Row(c).begin());
    }

    // Lloyd iterations. Assignment runs in parallel (disjoint writes per
    // point, ties toward the lower centroid id); the centroid update
    // accumulates serially in row order — both deterministic at any thread
    // count and any bank layout. The row norms serve every iteration and
    // then the packed layout. A cosine pass whose centroid norms all lie in
    // the decision kernel's guard takes each row's top-1 by decision,
    // seeded with the row's centroid of the pass before (AssignRows).
    std::vector<float> row_norms;
    if (cosine) {
      StatusOr<std::vector<float>> norms = detail::RowNorms(rows);
      if (!norms.ok()) return norms.status();
      row_norms = *std::move(norms);
    }
    std::vector<int> assign(n, 0);
    std::vector<float> centroid_norms;
    std::atomic<uint64_t> exact_cells{0};
    for (int iter = 0; iter < config_.ivf_iters; ++iter) {
      if (cosine) centroid_norms = detail::RowNorms(centroids_).value();
      const bool decided =
          cosine && dim <= math::kernels::kRankMaxDim &&
          std::all_of(centroid_norms.begin(), centroid_norms.end(),
                      math::kernels::InRankGuard);
      Status status = rows.ForEachBank([&](const math::RowBanks::Bank& bank) {
        const size_t first = bank.first_row();
        ParallelFor(first, first + bank.rows(), kQueryGrain,
                    [&](size_t begin, size_t end) {
          exact_cells.fetch_add(
              AssignRows(bank, begin, end, row_norms, centroid_norms, decided,
                         assign.data()),
              std::memory_order_relaxed);
        });
      });
      if (!status.ok()) return status;
      std::vector<double> sums(num_lists_ * dim, 0.0);
      std::vector<uint32_t> counts(num_lists_, 0);
      status = rows.ForEachBank([&](const math::RowBanks::Bank& bank) {
        for (size_t i = bank.first_row(); i < bank.first_row() + bank.rows();
             ++i) {
          const float* row = bank.RowValues(i);
          double* acc = sums.data() + static_cast<size_t>(assign[i]) * dim;
          for (size_t d = 0; d < dim; ++d) acc[d] += row[d];
          ++counts[static_cast<size_t>(assign[i])];
        }
      });
      if (!status.ok()) return status;
      for (size_t c = 0; c < num_lists_; ++c) {
        if (counts[c] == 0) continue;  // Empty list keeps its centroid.
        auto row = centroids_.Row(c);
        const double* acc = sums.data() + c * dim;
        for (size_t d = 0; d < dim; ++d) {
          row[d] = static_cast<float>(acc[d] / counts[c]);
        }
      }
    }

    // Inverted-list layout: rows regrouped contiguously per list, members
    // in ascending original id, so a probe is one batched kernel call per
    // bank the list touches.
    std::vector<uint32_t> counts(num_lists_, 0);
    for (size_t i = 0; i < n; ++i) ++counts[static_cast<size_t>(assign[i])];
    for (size_t c = 0; c < num_lists_; ++c) {
      list_offsets_[c + 1] = list_offsets_[c] + counts[c];
    }
    std::vector<size_t> cursor(list_offsets_.begin(),
                               list_offsets_.end() - 1);
    for (size_t i = 0; i < n; ++i) {
      packed_ids_[cursor[static_cast<size_t>(assign[i])]++] =
          static_cast<int>(i);
    }
    std::unique_ptr<math::ShardedTableWriter> writer;
    if (table_ != nullptr) {
      math::ShardedTableOptions pack_opts;
      pack_opts.rows_per_bank = table_->rows_per_bank();
      auto created = math::ShardedTableWriter::Create(
          table_->path() + ".ivfpack", n, dim, pack_opts);
      if (!created.ok()) return created.status();
      writer = *std::move(created);
    } else {
      packed_ = math::Matrix(n, dim);
    }
    for (size_t slot = 0; slot < n; ++slot) {
      const size_t id = static_cast<size_t>(packed_ids_[slot]);
      if (cosine) packed_norms_.push_back(row_norms[id]);
      StatusOr<const float*> row = reader.Row(id);
      if (!row.ok()) return row.status();
      const std::span<const float> values(*row, dim);
      if (writer == nullptr) {
        std::copy(values.begin(), values.end(), packed_.Row(slot).begin());
        continue;
      }
      const Status appended = writer->AppendRow(values);
      if (!appended.ok()) return appended;
    }
    if (writer != nullptr) {
      const Status finalized = writer->Finalize();
      if (!finalized.ok()) return finalized;
      auto packed = math::ShardedEmbeddingTable::Open(table_->path() +
                                                      ".ivfpack");
      if (!packed.ok()) return packed.status();
      packed_table_ = *std::move(packed);
      telemetry::IncrCounter("cand/ann_ivf/sharded_builds");
    }
    if (cosine) centroid_norms_ = detail::RowNorms(centroids_).value();
    telemetry::IncrCounter("cand/ann_ivf/assign_exact_cells",
                           exact_cells.load(std::memory_order_relaxed));
    telemetry::SetGauge("ann/lists", static_cast<double>(num_lists_));
    return Status::OK();
  }

  /// One Lloyd assignment of rows [begin, end) of `bank`: assign[i] becomes
  /// the centroid of row i's greatest cell, the lowest id among equal ones.
  /// When `decided`, a row whose norm lies in the decision kernel's guard
  /// joins a group of kRankGroup rows for `top1_cosine`, seeded with the
  /// exact cell of its current centroid; every other row computes all its
  /// cells and takes their argmax. Both give the same centroid (DESIGN.md,
  /// "Ranking by decision"). Returns the exact cells computed.
  uint64_t AssignRows(const math::RowBanks::Bank& bank, size_t begin,
                      size_t end, const std::vector<float>& row_norms,
                      const std::vector<float>& centroid_norms, bool decided,
                      int* assign) const {
    using math::kernels::kRankGroup;
    const size_t dim = this->dim();
    const float* centroids = centroids_.Row(0).data();
    const float* norms =
        centroid_norms.empty() ? nullptr : centroid_norms.data();
    uint64_t exact = 0;
    std::vector<float> sims;
    std::vector<float> scratch;
    if (decided) scratch.resize(kRankGroup * dim);
    const float* group_rows[kRankGroup];
    float group_norms[kRankGroup];
    float seed_vals[kRankGroup];
    size_t seed_pos[kRankGroup];
    size_t group_index[kRankGroup];
    size_t group_size = 0;
    auto flush_group = [&] {
      if (group_size == 0) return;
      math::kernels::RankTile tile;
      tile.count = group_size;
      tile.rows = group_rows;
      tile.row_norms = group_norms;
      tile.true_vals = seed_vals;
      tile.true_pos = seed_pos;
      tile.b = centroids;
      tile.ldb = dim;
      tile.tgt_norms = norms;
      tile.cols = num_lists_;
      tile.n = dim;
      tile.scratch = scratch.data();
      math::kernels::RankTop1 best[kRankGroup];
      math::kernels::Active().top1_cosine(tile, best);
      for (size_t g = 0; g < group_size; ++g) {
        assign[group_index[g]] = static_cast<int>(best[g].pos);
        exact += best[g].exact;
      }
      group_size = 0;
    };
    for (size_t i = begin; i < end; ++i) {
      const float* row = bank.RowValues(i);
      const float na = row_norms.empty() ? 0.0f : row_norms[i];
      if (decided && math::kernels::InRankGuard(na)) {
        const size_t seed = static_cast<size_t>(assign[i]);
        group_rows[group_size] = row;
        group_norms[group_size] = na;
        seed_vals[group_size] =
            detail::MetricCell(config_.metric, row, na, centroids + seed * dim,
                               norms[seed], dim);
        seed_pos[group_size] = seed;
        group_index[group_size] = i;
        ++exact;
        if (++group_size == kRankGroup) flush_group();
        continue;
      }
      if (sims.empty()) sims.resize(num_lists_);
      detail::MetricRowBlock(config_.metric, row, na, centroids, dim, norms,
                             sims.data(), num_lists_, dim);
      exact += num_lists_;
      int best = 0;
      float best_value = sims[0];
      for (size_t c = 1; c < num_lists_; ++c) {
        // NaN sims never beat: the comparison is false, so the point stays
        // on the lowest finite (or 0th) centroid.
        if (sims[c] > best_value) {
          best = static_cast<int>(c);
          best_value = sims[c];
        }
      }
      assign[i] = best;
    }
    flush_group();
    return exact;
  }

  friend internal::IvfLayout internal::IvfLayoutForTesting(
      const CandidateSource& source);

  size_t num_lists_ = 0;
  math::Matrix centroids_;
  /// Target rows regrouped contiguously per list (ascending original id
  /// within a list); packed_ids_[slot] maps back to the original row.
  /// In-RAM builds fill packed_; sharded builds spill the same layout to
  /// packed_table_ (a `<table path>.ivfpack` sidecar) instead.
  math::Matrix packed_;
  std::shared_ptr<math::ShardedEmbeddingTable> packed_table_;
  std::vector<int> packed_ids_;
  std::vector<size_t> list_offsets_;  // num_lists_ + 1 entries.
  std::vector<float> packed_norms_;    // Cosine only.
  std::vector<float> centroid_norms_;  // Cosine only.
};

}  // namespace

namespace internal {

std::unique_ptr<CandidateSource> MakeAnnIvfSource(
    const CandidateSourceConfig& config) {
  return std::make_unique<AnnIvfSource>(config);
}

IvfLayout IvfLayoutForTesting(const CandidateSource& source) {
  const auto* ivf = dynamic_cast<const AnnIvfSource*>(&source);
  OPENEA_CHECK(ivf != nullptr) << "IvfLayoutForTesting: not an ann_ivf source";
  return {ivf->list_offsets_, ivf->packed_ids_};
}

}  // namespace internal
}  // namespace openea::align
