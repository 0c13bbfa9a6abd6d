#ifndef OPENEA_ALIGN_CANDIDATE_SOURCE_H_
#define OPENEA_ALIGN_CANDIDATE_SOURCE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/align/similarity.h"
#include "src/align/topk.h"
#include "src/common/status.h"
#include "src/math/matrix.h"
#include "src/math/sharded_table.h"

namespace openea::align {

/// Candidate generation behind one interface (DESIGN.md, "Candidate
/// generation & serving"). The paper's matching stage is exact and O(N^2);
/// every sublinear variant trades recall for scanned work. CandidateSource
/// is the seam where that trade is made: callers ask for the top-k targets
/// of a batch of query rows and stay agnostic of whether the answer came
/// from an exhaustive scan, an LSH bucket union, or IVF cluster routing.
///
/// Contract (pinned by tests/candidate_source_test.cc, `ann` ctest label):
///
///  * TopK rows are sorted by the strict total order (value desc, index
///    asc) and padded with {-inf, -1}, exactly like `StreamingTopK`.
///  * Every similarity value is produced by the shared cell kernel
///    (`detail::MetricRowBlock`), so a candidate's score is bit-identical
///    across sources; sources differ only in WHICH candidates they score.
///  * `ExactTopKSource` scores every target, so its TopK result is
///    bit-identical to `StreamingTopK` at any thread count.
///  * Determinism: for a fixed config, `Index` + `TopK` are pure functions
///    of their inputs — no iteration-order or thread-count dependence.
///  * Scan accounting: each source counts the candidate rows it scored
///    under `cand/<name>/scanned` (plus `cand/<name>/queries`), the
///    denominator of the recall/work trade-off `bench_ann_recall` gates.
enum class CandidateSourceKind {
  kExact,   // Exhaustive streaming scan (wraps StreamingTopK).
  kLsh,     // Random-hyperplane LSH bucket union (wraps LshBlocker).
  kAnnIvf,  // IVF cluster routing (k-means coarse quantizer + nprobe lists).
};

const char* CandidateSourceKindName(CandidateSourceKind kind);

/// Validated construction parameters for CreateCandidateSource. One struct
/// for all kinds (the factory idiom of core::CreateApproach): kind-specific
/// fields are ignored by the other kinds, and Validate() rejects values the
/// selected kind cannot honour.
struct CandidateSourceConfig {
  CandidateSourceKind kind = CandidateSourceKind::kExact;
  DistanceMetric metric = DistanceMetric::kCosine;

  /// Rank over CSLS-adjusted similarities. Only the exact source can honour
  /// this (CSLS neighbourhood means need every cell); Validate() rejects it
  /// for the sublinear kinds.
  bool csls = false;
  int csls_k = 10;

  /// Seed of the hash planes (LSH) / the k-means initialization (IVF).
  uint64_t seed = 7;

  // -- LSH (kind == kLsh) ---------------------------------------------------
  int lsh_bits = 8;       // Signature bits per table, in [1, 63].
  int lsh_tables = 4;     // Hash tables unioned per query, >= 1.

  // -- IVF (kind == kAnnIvf) ------------------------------------------------
  /// Inverted lists (k-means centroids). 0 picks ceil(sqrt(N)) at Index()
  /// time — the standard IVF default that balances the N/lists list scan
  /// against the `lists` centroid scan.
  size_t ivf_lists = 0;
  /// Lists probed per query (clamped to the list count at query time).
  size_t ivf_nprobe = 8;
  /// Lloyd iterations of the coarse quantizer, >= 1.
  int ivf_iters = 10;

  /// InvalidArgument with a field-naming message on any out-of-range value.
  Status Validate() const;
};

/// Abstract candidate generator over a fixed target embedding set. The base
/// owns the indexed targets (an in-RAM copy or a shared on-disk table) and
/// hands them to the sources as math::RowBanks, so each source builds and
/// scans with one code path for both storages.
class CandidateSource {
 public:
  virtual ~CandidateSource() = default;

  /// Stable implementation name ("exact", "lsh", "ann_ivf") — used for the
  /// telemetry key space and the serve hello line.
  virtual const char* Name() const = 0;

  /// Builds (or rebuilds) the index over the target row embeddings. Keeps a
  /// private copy of `targets`, so the caller's matrix may be freed. An
  /// empty matrix is a valid (degenerate) index: every query then returns
  /// all-padding rows.
  Status Index(const math::Matrix& targets);

  /// Builds the index over a shard-banked on-disk table
  /// (src/math/sharded_table.h), shared instead of copied. The exact and IVF
  /// sources run the same build and scan as for Index() over the table's
  /// banks (the IVF packed layout spills to a `<path>.ivfpack` sidecar), so
  /// serving a 100K+ table never holds all rows in RAM and the scores equal
  /// the in-RAM index's. LSH materializes the table (its blocker hashes
  /// rows in RAM). The exact source refuses csls here.
  Status IndexSharded(
      std::shared_ptr<const math::ShardedEmbeddingTable> table);

  /// Per-query-row top-k candidates (value desc, index asc, padded with
  /// {-inf, -1}). `queries` must have dim() columns; requires Index() first.
  /// CSLS-configured sources rank over adjusted similarities.
  virtual TopKResult TopK(const math::Matrix& queries, size_t k) const = 0;

  /// True when this source ranks under CSLS (config.csls on a kind that
  /// supports it — currently the exact source only).
  virtual bool csls() const { return false; }

  const CandidateSourceConfig& config() const { return config_; }
  DistanceMetric metric() const { return config_.metric; }

  bool indexed() const { return indexed_; }
  /// Shape of the indexed targets, in RAM or on disk.
  size_t num_targets() const { return rows().rows(); }
  size_t dim() const { return rows().dim(); }

  /// The targets of an in-RAM index (row order preserved). Lets dense-only
  /// consumers — stable marriage, Kuhn-Munkres — materialize the full
  /// similarity structure from the same data the source scans. Empty after
  /// IndexSharded on the exact and IVF sources, which leave the rows on
  /// disk (use num_targets()/dim() for shape queries).
  const math::Matrix& targets() const { return targets_; }

 protected:
  explicit CandidateSource(const CandidateSourceConfig& config)
      : config_(config) {}

  /// Builds the index over rows(); Index and IndexSharded store the targets
  /// and then call this.
  virtual Status Build() = 0;

  /// The indexed targets as banks: the in-RAM copy (one bank) or the table.
  math::RowBanks rows() const {
    return table_ != nullptr ? math::RowBanks(*table_)
                             : math::RowBanks(targets_);
  }

  CandidateSourceConfig config_;
  math::Matrix targets_;
  std::shared_ptr<const math::ShardedEmbeddingTable> table_;

 private:
  Status BuildIndex();

  bool indexed_ = false;
};

/// Builds a candidate source from a validated config, mirroring the
/// CreateApproach factory idiom: InvalidArgument (naming the offending
/// field) on a bad config, never a half-constructed source.
StatusOr<std::unique_ptr<CandidateSource>> CreateCandidateSource(
    const CandidateSourceConfig& config);

/// CHECK-failing convenience for call sites whose config is statically
/// known (tests, benches): aborts with the error message on failure.
std::unique_ptr<CandidateSource> CreateCandidateSourceOrDie(
    const CandidateSourceConfig& config);

}  // namespace openea::align

#endif  // OPENEA_ALIGN_CANDIDATE_SOURCE_H_
