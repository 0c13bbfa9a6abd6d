#ifndef OPENEA_APPROACHES_COMMON_H_
#define OPENEA_APPROACHES_COMMON_H_

#include <functional>
#include <vector>

#include "src/core/approach.h"
#include "src/core/task.h"
#include "src/embedding/gcn.h"
#include "src/interaction/unified_kg.h"
#include "src/math/embedding_table.h"
#include "src/math/matrix.h"
#include "src/text/word_embeddings.h"

namespace openea::approaches {

/// Extracts per-KG embedding matrices from a merged-space entity table.
core::AlignmentModel GatherUnifiedModel(const interaction::UnifiedKg& unified,
                                        const math::EmbeddingTable& entities);

/// Extracts per-KG embedding matrices from a merged-space dense matrix
/// (GCN outputs).
core::AlignmentModel GatherUnifiedModel(const interaction::UnifiedKg& unified,
                                        const math::Matrix& embeddings);

/// Row-wise concatenation [normalize(a) | weight * normalize(b)] — the
/// library's view-combination primitive (JAPE's attribute refinement,
/// MultiKE's views, GCNAlign's structure+attribute channels). Rows of `b`
/// may be all-zero (missing view) and stay zero.
math::Matrix ConcatViews(const math::Matrix& a, const math::Matrix& b,
                         float weight);

/// The paper's early-stopping protocol (Table 4), the one training loop of
/// every approach with a validation split. Runs `train_epoch(epoch)` for
/// epoch = 1 .. config.max_epochs. On every `config.eval_every`-th epoch and
/// on the last one it takes `snapshot()` and scores its cosine Hits@1 on
/// `valid`. It keeps the first snapshot and every one that improves the best
/// score, stops after `patience` checks in a row without improvement, and
/// returns the kept snapshot.
core::AlignmentModel TrainWithEarlyStopping(
    const core::TrainConfig& config, const kg::Alignment& valid, int patience,
    const std::function<void(int epoch)>& train_epoch,
    const std::function<core::AlignmentModel()>& snapshot);

/// Undirected, deduplicated GCN edges from both KGs in merged ids. When
/// `relation_aware` is set, edge weights follow RDGCN's intuition: edges of
/// rare (more discriminative) relations weigh more, w = 1/log(2 + freq).
std::vector<embedding::GcnEdge> BuildGcnEdges(
    const interaction::UnifiedKg& unified, bool relation_aware);

/// Word-embedding space for the task (dictionary-aware on cross-lingual
/// pairs), seeded deterministically.
text::PseudoWordEmbeddings MakeWordEmbeddings(const core::AlignmentTask& task,
                                              size_t dim, uint64_t seed);

/// Merged-id literal/description feature matrix covering kg1 rows then kg2
/// rows, built by `builder` per KG and stacked.
math::Matrix StackKgFeatures(const math::Matrix& features1,
                             const math::Matrix& features2);

/// Margin-based alignment loss over a dense embedding matrix (the GCN
/// training objective): for each merged seed pair (a, b), pulls the rows
/// together and pushes `negatives` sampled rows outside the margin.
/// Accumulates d(loss)/d(embeddings) into `grad` (resized to match) and
/// returns the mean pair loss.
float AlignmentLossGrad(
    const math::Matrix& embeddings,
    const std::vector<std::pair<kg::EntityId, kg::EntityId>>& pairs,
    float margin, int negatives, Rng& rng, math::Matrix& grad);

}  // namespace openea::approaches

#endif  // OPENEA_APPROACHES_COMMON_H_
