#include "src/align/candidate_source.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "src/align/ann_ivf.h"
#include "src/align/blocking.h"
#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/common/telemetry.h"

namespace openea::align {
namespace {

/// Fixed row grain of the candidate scans — same as the streaming engine's,
/// so the chunk layout (and every per-chunk counter) is identical at any
/// thread count.
constexpr size_t kQueryGrain = 8;

/// Exhaustive source: every target is a candidate, so TopK is exactly
/// `StreamingTopK` over the indexed banks — bit-identical to the dense
/// SimilarityMatrix path at any thread count, in RAM or on disk, including
/// the CSLS mode in RAM.
class ExactTopKSource final : public CandidateSource {
 public:
  explicit ExactTopKSource(const CandidateSourceConfig& config)
      : CandidateSource(config) {}

  const char* Name() const override { return "exact"; }
  bool csls() const override { return config_.csls; }

  TopKResult TopK(const math::Matrix& queries, size_t k) const override {
    OPENEA_CHECK(indexed()) << "ExactTopKSource::TopK before Index";
    OPENEA_CHECK_EQ(queries.cols(), dim());
    TopKOptions options;
    options.k = k;
    options.metric = config_.metric;
    options.csls = config_.csls;
    options.csls_k = config_.csls_k;
    TopKResult result = StreamingTopK(queries, rows(), options);
    telemetry::IncrCounter("cand/exact/queries", queries.rows());
    telemetry::IncrCounter("cand/exact/scanned",
                           queries.rows() * num_targets());
    return result;
  }

 private:
  Status Build() override {
    if (config_.csls && table_ != nullptr) {
      return Status::InvalidArgument(
          "csls requires an in-RAM exact index (the CSLS psi terms need "
          "every similarity cell); index via Index() instead");
    }
    return Status::OK();
  }
};

/// LSH source: candidates are the deterministic (ascending-id) bucket
/// union of `LshBlocker`, scored through the shared cell kernel and
/// selected with the same total order as the streaming engine. Scanned
/// work per query is the candidate-set size, not N.
class LshSource final : public CandidateSource {
 public:
  explicit LshSource(const CandidateSourceConfig& config)
      : CandidateSource(config) {}

  const char* Name() const override { return "lsh"; }

  TopKResult TopK(const math::Matrix& queries, size_t k) const override {
    OPENEA_CHECK(indexed()) << "LshSource::TopK before Index";
    OPENEA_CHECK_EQ(queries.cols(), targets_.cols());
    TopKResult result;
    result.rows = queries.rows();
    result.k = k;
    result.entries.assign(queries.rows() * k, TopKEntry{});
    if (queries.rows() == 0) return result;

    telemetry::ScopedSpan span("lsh_topk");
    const std::vector<float> query_norms =
        config_.metric == DistanceMetric::kCosine
            ? detail::RowNorms(queries).value()
            : std::vector<float>();
    std::atomic<uint64_t> scanned{0};
    std::atomic<uint64_t> nan_cells{0};
    ParallelFor(0, queries.rows(), kQueryGrain, [&](size_t begin, size_t end) {
      std::vector<TopKEntry> heap(std::max<size_t>(k, 1));
      uint64_t local_scanned = 0;
      uint64_t local_nan = 0;
      for (size_t i = begin; i < end; ++i) {
        const auto q = queries.Row(i);
        const float nq = query_norms.empty() ? 0.0f : query_norms[i];
        size_t count = 0;
        for (const int cand : blocker_->Candidates(q)) {
          const float nb = tgt_norms_.empty()
                               ? 0.0f
                               : tgt_norms_[static_cast<size_t>(cand)];
          const float v =
              detail::MetricCell(config_.metric, q.data(), nq,
                                 targets_.Row(cand).data(), nb, q.size());
          ++local_scanned;
          if (std::isnan(v)) {
            ++local_nan;
            continue;
          }
          if (k > 0) detail::TopKInsert(heap.data(), count, k, v, cand);
        }
        if (k > 0) {
          TopKEntry* out = result.entries.data() + i * k;
          for (size_t t = 0; t < count; ++t) out[t] = heap[t];
        }
      }
      scanned.fetch_add(local_scanned, std::memory_order_relaxed);
      if (local_nan > 0) {
        nan_cells.fetch_add(local_nan, std::memory_order_relaxed);
      }
    });
    result.nan_cells = nan_cells.load(std::memory_order_relaxed);
    telemetry::IncrCounter("cand/lsh/queries", queries.rows());
    telemetry::IncrCounter("cand/lsh/scanned",
                           scanned.load(std::memory_order_relaxed));
    if (result.nan_cells > 0) {
      telemetry::IncrCounter("cand/lsh/nan_cells", result.nan_cells);
    }
    return result;
  }

 private:
  Status Build() override {
    if (table_ != nullptr) {
      // The blocker hashes every row in RAM: materialize the table.
      StatusOr<math::Matrix> matrix = table_->ToMatrix();
      if (!matrix.ok()) return matrix.status();
      targets_ = *std::move(matrix);
      table_.reset();
    }
    blocker_ = std::make_unique<LshBlocker>(
        targets_.cols() > 0 ? targets_.cols() : 1, config_.lsh_bits,
        config_.lsh_tables, config_.seed);
    if (targets_.cols() > 0) blocker_->Index(targets_);
    tgt_norms_ = config_.metric == DistanceMetric::kCosine
                     ? detail::RowNorms(targets_).value()
                     : std::vector<float>();
    return Status::OK();
  }

  std::unique_ptr<LshBlocker> blocker_;
  std::vector<float> tgt_norms_;
};

}  // namespace

Status CandidateSource::Index(const math::Matrix& targets) {
  table_.reset();
  targets_ = targets;
  return BuildIndex();
}

Status CandidateSource::IndexSharded(
    std::shared_ptr<const math::ShardedEmbeddingTable> table) {
  targets_ = math::Matrix();
  table_ = std::move(table);
  return BuildIndex();
}

Status CandidateSource::BuildIndex() {
  indexed_ = false;
  const Status built = Build();
  indexed_ = built.ok();
  return built;
}

const char* CandidateSourceKindName(CandidateSourceKind kind) {
  switch (kind) {
    case CandidateSourceKind::kExact: return "exact";
    case CandidateSourceKind::kLsh: return "lsh";
    case CandidateSourceKind::kAnnIvf: return "ann_ivf";
  }
  return "?";
}

Status CandidateSourceConfig::Validate() const {
  if (csls && kind != CandidateSourceKind::kExact) {
    return Status::InvalidArgument(
        "csls requires the exact source (CSLS neighbourhood means need every "
        "similarity cell; the sublinear sources never see them)");
  }
  if (csls && csls_k < 1) {
    return Status::InvalidArgument("csls_k must be >= 1");
  }
  switch (kind) {
    case CandidateSourceKind::kExact:
      break;
    case CandidateSourceKind::kLsh:
      if (lsh_bits < 1 || lsh_bits > 63) {
        return Status::InvalidArgument("lsh_bits must be in [1, 63]");
      }
      if (lsh_tables < 1) {
        return Status::InvalidArgument("lsh_tables must be >= 1");
      }
      break;
    case CandidateSourceKind::kAnnIvf:
      if (ivf_nprobe < 1) {
        return Status::InvalidArgument("ivf_nprobe must be >= 1");
      }
      if (ivf_iters < 1) {
        return Status::InvalidArgument("ivf_iters must be >= 1");
      }
      break;
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<CandidateSource>> CreateCandidateSource(
    const CandidateSourceConfig& config) {
  const Status valid = config.Validate();
  if (!valid.ok()) return valid;
  switch (config.kind) {
    case CandidateSourceKind::kExact:
      return std::unique_ptr<CandidateSource>(
          std::make_unique<ExactTopKSource>(config));
    case CandidateSourceKind::kLsh:
      return std::unique_ptr<CandidateSource>(
          std::make_unique<LshSource>(config));
    case CandidateSourceKind::kAnnIvf:
      return std::unique_ptr<CandidateSource>(
          internal::MakeAnnIvfSource(config));
  }
  return Status::InvalidArgument("unknown candidate source kind");
}

std::unique_ptr<CandidateSource> CreateCandidateSourceOrDie(
    const CandidateSourceConfig& config) {
  StatusOr<std::unique_ptr<CandidateSource>> source =
      CreateCandidateSource(config);
  OPENEA_CHECK(source.ok()) << source.status().ToString();
  return std::move(source).value();
}

}  // namespace openea::align
