#ifndef OPENEA_INTERACTION_TRAINER_H_
#define OPENEA_INTERACTION_TRAINER_H_

#include <vector>

#include "src/common/health.h"
#include "src/common/rng.h"
#include "src/embedding/negative_sampling.h"
#include "src/embedding/triple_model.h"
#include "src/kg/types.h"
#include "src/math/embedding_table.h"

namespace openea::interaction {

/// Loss plus numerical-health verdict of one epoch. Implicitly converts to
/// the loss so the many existing `float loss = TrainEpoch(...)` call sites
/// keep compiling; fault-aware callers read `verdict` (or install a
/// health::ScopedHealthMonitor around the whole training loop and query its
/// worst() afterwards — every epoch reports to the active monitor).
struct EpochOutcome {
  float loss = 0.0f;
  health::Verdict verdict = health::Verdict::kHealthy;

  operator float() const { return loss; }  // NOLINT: implicit by design.
};

/// One epoch of pair-based training over `triples`: for each positive,
/// `negatives` corruptions are drawn (from `truncated` when provided and
/// initialized, else uniformly) and fed to the model. Returns the mean
/// per-positive loss plus its health verdict. Triples are visited in a
/// freshly shuffled order. The shuffled order is cut into fixed-size shards;
/// each shard draws its corruptions from its own stream (Rng::Fork(shard)),
/// shard-parallel, and the updates then apply serially in shuffle order.
/// The shard layout does not depend on the thread count, so the result is
/// bit-identical at 1, 2, or N threads (DESIGN.md, "Epoch streams").
EpochOutcome TrainEpoch(embedding::TripleModel& model,
                 const std::vector<kg::Triple>& triples, int negatives,
                 Rng& rng,
                 const embedding::TruncatedNegativeSampler* truncated =
                     nullptr);

/// One epoch of positive-only training (MTransE regime).
EpochOutcome TrainEpochPositiveOnly(embedding::TripleModel& model,
                             const std::vector<kg::Triple>& triples,
                             Rng& rng);

/// One calibration epoch (paper's "embedding space calibration"): for each
/// merged-id pair (a, b), minimize ||e_a - e_b||^2 and push each side away
/// from a sampled negative with margin. Operates directly on the entity
/// table. The negatives are drawn the way TrainEpoch draws its corruptions:
/// per shard of pairs from Rng::Fork(shard), so the result does not depend
/// on the thread count.
EpochOutcome CalibrateEpoch(
    math::EmbeddingTable& entities,
    const std::vector<std::pair<kg::EntityId, kg::EntityId>>& pairs,
    float learning_rate, float margin, int negatives, Rng& rng);

/// Learns a path-composition constraint (IPTransE): for every 2-hop path
/// (e1 -r1-> e2 -r2-> e3) with a direct relation r3 between e1 and e3,
/// pulls r1 + r2 toward r3. Returns the visited path count.
size_t PathCompositionEpoch(math::EmbeddingTable& relations,
                            const std::vector<kg::Triple>& triples,
                            size_t num_entities, float learning_rate,
                            size_t max_paths, Rng& rng);

}  // namespace openea::interaction

#endif  // OPENEA_INTERACTION_TRAINER_H_
