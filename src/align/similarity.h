#ifndef OPENEA_ALIGN_SIMILARITY_H_
#define OPENEA_ALIGN_SIMILARITY_H_

#include <vector>

#include "src/common/status.h"
#include "src/math/kernels.h"
#include "src/math/matrix.h"
#include "src/math/sharded_table.h"

namespace openea::align {

/// Distance metrics offered by the alignment module (paper Sect. 2.2.2).
/// All are exposed as *similarities* (greater = closer) so that inference
/// strategies can maximize uniformly: cosine is used as-is; Euclidean and
/// Manhattan distances are negated.
enum class DistanceMetric { kCosine, kEuclidean, kManhattan, kInner };

/// Returns the human-readable metric name ("cosine", ...).
const char* DistanceMetricName(DistanceMetric metric);

/// Computes the (src.rows() x tgt.rows()) similarity matrix between row
/// embeddings under `metric`.
math::Matrix SimilarityMatrix(const math::Matrix& src, const math::Matrix& tgt,
                              DistanceMetric metric);

/// Applies cross-domain similarity local scaling (CSLS, paper Eq. 7) in
/// place: sim'(s, t) = 2 sim(s, t) - avg_topk_t(sim(s, .)) -
/// avg_topk_s(sim(., t)). Mitigates hubness by penalizing entities that are
/// near-neighbours of many counterparts.
void ApplyCsls(math::Matrix& sim, int k = 10);

namespace detail {

/// Fills out[0..count) with the similarity of source row `a` (length n,
/// L2 norm `na` — used by cosine only) against `count` consecutive target
/// rows starting at `b`, each `ldb` floats apart. `tgt_norms` points at the
/// per-target-row L2 norms for cosine and may be null otherwise.
///
/// This is THE cell kernel: the dense SimilarityMatrix and the streaming
/// top-k both produce every similarity value through this one function on
/// top of the dispatched row-batch kernels (src/math/kernels.h), which is
/// what keeps the two paths bit-identical to each other under either
/// backend.
void MetricRowBlock(DistanceMetric metric, const float* a, float na,
                    const float* b, size_t ldb, const float* tgt_norms,
                    float* out, size_t count, size_t n);

/// One similarity cell: MetricRowBlock with a block of one, so it equals
/// the cell a scan computes for the same pair bit for bit. `nb` is b's L2
/// norm (cosine only).
float MetricCell(DistanceMetric metric, const float* a, float na,
                 const float* b, float nb, size_t n);

/// L2 norm of every row, in row order: the norms cosine caches. L2Norm is a
/// pure per-row function, so the cached norm equals the per-pair norm of
/// `math::CosineSimilarity` bit for bit, whichever bank a row sits in. Walks
/// the banks in order; fails only when a table bank does not map.
StatusOr<std::vector<float>> RowNorms(const math::RowBanks& rows);

/// MetricRowBlock plus the rest of a scan tile: `scan` carries the CSLS,
/// true-column and top-k admission fields of the dispatched scan epilogue
/// (src/math/kernels.h; its finish, na and tgt_norms are set here from the
/// other arguments), and `counts` receives the NaN, greater and tie tallies.
/// out[0..count) ends up holding the (CSLS-adjusted) similarities.
/// MetricRowBlock is this call with an empty `scan` and no counts, so the
/// two produce the same cell floats.
void MetricRowScan(DistanceMetric metric, const float* a, float na,
                   const float* b, size_t ldb, const float* tgt_norms,
                   float* out, size_t count, size_t n,
                   math::kernels::ScanEpilogue scan,
                   math::kernels::ScanCounts* counts);

}  // namespace detail

}  // namespace openea::align

#endif  // OPENEA_ALIGN_SIMILARITY_H_
