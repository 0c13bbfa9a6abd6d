#include "src/approaches/unsupervised.h"

#include <unordered_set>

#include "src/approaches/common.h"
#include "src/approaches/imuse.h"
#include "src/embedding/attribute.h"
#include "src/embedding/translational.h"
#include "src/interaction/bootstrapping.h"
#include "src/interaction/trainer.h"
#include "src/interaction/unified_kg.h"

namespace openea::approaches {

core::ApproachRequirements UnsupervisedEa::requirements() const {
  core::ApproachRequirements req;
  req.relation_triples = core::Requirement::kOptional;
  req.attribute_triples = core::Requirement::kMandatory;  // Pseudo-seeds.
  req.pre_aligned_entities = core::Requirement::kNotApplicable;
  return req;
}

core::AlignmentModel UnsupervisedEa::Train(const core::AlignmentTask& task) {
  Rng rng(config_.seed);

  // Distant supervision: literal-overlap harvest only (no task.train!).
  const kg::Alignment pseudo_seeds = Imuse::HarvestLiteralPairs(task, 2);

  const interaction::UnifiedKg unified = interaction::BuildUnifiedKg(
      task, interaction::CombinationMode::kSharing, pseudo_seeds);

  embedding::TripleModelOptions model_options;
  model_options.dim = config_.dim;
  model_options.learning_rate = config_.learning_rate;
  model_options.margin = config_.margin;
  embedding::TransEModel model(unified.num_entities, unified.num_relations,
                               model_options, rng);

  const math::Matrix literal1 = embedding::BuildCharLiteralFeatures(
      *task.kg1, config_.dim, config_.seed ^ 0x31);
  const math::Matrix literal2 = embedding::BuildCharLiteralFeatures(
      *task.kg2, config_.dim, config_.seed ^ 0x31);
  constexpr float kLiteralWeight = 0.8f;

  // Self-training state over pseudo-seeds.
  std::unordered_set<kg::EntityId> used1, used2;
  std::vector<std::pair<kg::EntityId, kg::EntityId>> soft_pairs;
  for (const kg::AlignmentPair& p : pseudo_seeds) {
    used1.insert(p.left);
    used2.insert(p.right);
  }

  core::AlignmentModel best;
  // No validation seeds exist in a truly unsupervised setting either; use
  // a fixed epoch budget instead of early stopping.
  for (int epoch = 1; epoch <= config_.max_epochs; ++epoch) {
    interaction::TrainEpoch(model, unified.triples,
                            config_.negatives_per_positive, rng);
    if (!soft_pairs.empty()) {
      interaction::CalibrateEpoch(model.entity_table(), soft_pairs,
                                  config_.learning_rate, config_.margin, 1,
                                  rng);
    }
    // Always evaluate on the last epoch so that short runs (max_epochs <
    // eval_every) still snapshot a model instead of returning empty
    // embeddings.
    const bool last_epoch = epoch == config_.max_epochs;
    if (epoch % config_.eval_every != 0 && !last_epoch) continue;

    core::AlignmentModel current =
        GatherUnifiedModel(unified, model.entity_table());
    current.emb1 = ConcatViews(current.emb1, literal1, kLiteralWeight);
    current.emb2 = ConcatViews(current.emb2, literal2, kLiteralWeight);

    // Mutual-NN self-training proposals extend the pseudo-seeds.
    interaction::BootstrapOptions boot;
    boot.threshold = 0.75f;
    boot.mutual = true;
    for (const kg::AlignmentPair& p : interaction::ProposeAlignment(
             current.emb1, current.emb2, used1, used2, boot)) {
      used1.insert(p.left);
      used2.insert(p.right);
      soft_pairs.emplace_back(unified.map1[p.left], unified.map2[p.right]);
    }
    best = std::move(current);
  }
  return best;
}

}  // namespace openea::approaches
