#include "src/approaches/attre.h"

#include "src/approaches/common.h"
#include "src/embedding/attribute.h"
#include "src/embedding/translational.h"
#include "src/interaction/trainer.h"
#include "src/interaction/unified_kg.h"
#include "src/math/vec.h"

namespace openea::approaches {

core::ApproachRequirements AttrE::requirements() const {
  core::ApproachRequirements req;
  req.relation_triples = core::Requirement::kOptional;
  req.attribute_triples = core::Requirement::kOptional;
  req.pre_aligned_entities = core::Requirement::kMandatory;
  return req;
}

core::AlignmentModel AttrE::Train(const core::AlignmentTask& task) {
  Rng rng(config_.seed);
  const interaction::UnifiedKg unified = interaction::BuildUnifiedKg(
      task, interaction::CombinationMode::kSharing, task.train);

  embedding::TripleModelOptions model_options;
  model_options.dim = config_.dim;
  model_options.learning_rate = config_.learning_rate;
  model_options.margin = config_.margin;  // Paper: 1.5 for AttrE.
  embedding::TransEModel model(unified.num_entities, unified.num_relations,
                               model_options, rng);

  // Character-level literal representations per entity (merged-id layout).
  math::Matrix char1, char2, char_merged;
  if (config_.use_attributes) {
    char1 = embedding::BuildCharLiteralFeatures(*task.kg1, config_.dim,
                                                config_.seed ^ 0x7);
    char2 = embedding::BuildCharLiteralFeatures(*task.kg2, config_.dim,
                                                config_.seed ^ 0x7);
    char_merged = math::Matrix(unified.num_entities, config_.dim, 0.0f);
    for (size_t e = 0; e < task.kg1->NumEntities(); ++e) {
      const auto src = char1.Row(e);
      std::copy(src.begin(), src.end(),
                char_merged.Row(unified.map1[e]).begin());
    }
    for (size_t e = 0; e < task.kg2->NumEntities(); ++e) {
      const auto src = char2.Row(e);
      std::copy(src.begin(), src.end(),
                char_merged.Row(unified.map2[e]).begin());
    }
  }
  constexpr float kCharWeight = 0.8f;

  std::vector<float> grad(config_.dim);
  return TrainWithEarlyStopping(
      config_, task.valid, /*patience=*/2,
      [&](int) {
        if (config_.use_relations) {
          interaction::TrainEpoch(model, unified.triples,
                                  config_.negatives_per_positive, rng);
        }
        // Structure-literal consistency: pull e_struct toward its (fixed)
        // char-level representation (AttrE's alpha-weighted cosine
        // objective, realized as an L2 pull).
        if (config_.use_attributes) {
          math::EmbeddingTable& entities = model.entity_table();
          for (size_t e = 0; e < unified.num_entities; ++e) {
            const auto target = char_merged.Row(e);
            if (math::SquaredL2Norm(target) < 1e-8f) continue;
            const auto row = entities.Row(e);
            for (size_t i = 0; i < grad.size(); ++i) {
              grad[i] = 2.0f * (row[i] - target[i]) * 0.5f;
            }
            entities.ApplyGradient(e, grad, config_.learning_rate);
          }
        }
      },
      [&] {
        core::AlignmentModel current =
            GatherUnifiedModel(unified, model.entity_table());
        if (config_.use_attributes) {
          current.emb1 = ConcatViews(current.emb1, char1, kCharWeight);
          current.emb2 = ConcatViews(current.emb2, char2, kCharWeight);
        }
        return current;
      });
}

}  // namespace openea::approaches
