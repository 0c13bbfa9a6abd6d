#ifndef OPENEA_ALIGN_ANN_IVF_H_
#define OPENEA_ALIGN_ANN_IVF_H_

#include <memory>
#include <vector>

#include "src/align/candidate_source.h"

namespace openea::align {

/// IVF (inverted-file) approximate-nearest-neighbour candidate source
/// (DESIGN.md, "Candidate generation & serving"): a k-means coarse
/// quantizer partitions the target rows into `lists` clusters; a query
/// ranks the centroids under the configured metric and exhaustively scans
/// only the `nprobe` nearest lists. Scanned work per query is
/// `lists + sum(|probed lists|)` ≈ sqrt(N) + nprobe·N/lists instead of N —
/// the sublinear candidate-generation step Dao et al. 2023 identify as the
/// EA scalability wall.
///
/// Determinism: the k-means initialization samples seeds from the config
/// seed, assignment ties break toward the lower centroid id, centroid
/// updates accumulate serially in row order, and the per-list layout orders
/// members by ascending original id — Index() and TopK() are pure functions
/// of (config, targets, queries) at any thread count.
///
/// Recall: measured (and gated) by bench_ann_recall against the exact
/// engine; the scores of the candidates it does return are bit-identical to
/// the exact source's scores for the same ids (shared cell kernel).
namespace internal {

/// Factory hook used by CreateCandidateSource; the config must already be
/// validated. Exposed for the factory TU only — library callers go through
/// CreateCandidateSource with kind == kAnnIvf. Besides the factory TU only
/// tests include this header.
std::unique_ptr<CandidateSource> MakeAnnIvfSource(
    const CandidateSourceConfig& config);

/// The inverted-list layout of an indexed ann_ivf source, for the tests
/// that pin the k-means assignment: list l holds packed slots
/// [list_offsets[l], list_offsets[l + 1]), and packed_ids[slot] is the
/// original row in that slot. CHECK-fails on any other source.
struct IvfLayout {
  std::vector<size_t> list_offsets;
  std::vector<int> packed_ids;
};
IvfLayout IvfLayoutForTesting(const CandidateSource& source);

}  // namespace internal
}  // namespace openea::align

#endif  // OPENEA_ALIGN_ANN_IVF_H_
