#include "src/approaches/jape.h"

#include "src/approaches/common.h"
#include "src/embedding/attribute.h"
#include "src/embedding/translational.h"
#include "src/interaction/trainer.h"
#include "src/interaction/unified_kg.h"

namespace openea::approaches {

core::ApproachRequirements Jape::requirements() const {
  core::ApproachRequirements req;
  req.relation_triples = core::Requirement::kMandatory;
  req.attribute_triples = core::Requirement::kOptional;
  req.pre_aligned_entities = core::Requirement::kMandatory;
  return req;
}

core::AlignmentModel Jape::Train(const core::AlignmentTask& task) {
  Rng rng(config_.seed);
  const interaction::UnifiedKg unified = interaction::BuildUnifiedKg(
      task, interaction::CombinationMode::kSharing, task.train);

  embedding::TripleModelOptions model_options;
  model_options.dim = config_.dim;
  model_options.learning_rate = config_.learning_rate;
  model_options.margin = config_.margin;
  embedding::TransEModel model(unified.num_entities, unified.num_relations,
                               model_options, rng);

  // Attribute-correlation vectors (computed once; the skip-gram does not
  // depend on the structure embedding).
  math::Matrix attr1, attr2;
  if (config_.use_attributes) {
    embedding::AttributeCorrelationEmbedding attr_embedding(
        *task.kg1, *task.kg2, config_.dim, rng);
    attr_embedding.Train(/*epochs=*/5, config_.learning_rate, rng);
    attr1 = attr_embedding.EntityAttributeVectors(*task.kg1, false);
    attr2 = attr_embedding.EntityAttributeVectors(*task.kg2, true);
  }
  constexpr float kAttributeWeight = 0.4f;

  return TrainWithEarlyStopping(
      config_, task.valid, /*patience=*/2,
      [&](int) {
        interaction::TrainEpoch(model, unified.triples,
                                config_.negatives_per_positive, rng);
      },
      [&] {
        core::AlignmentModel current =
            GatherUnifiedModel(unified, model.entity_table());
        if (config_.use_attributes) {
          current.emb1 = ConcatViews(current.emb1, attr1, kAttributeWeight);
          current.emb2 = ConcatViews(current.emb2, attr2, kAttributeWeight);
        }
        return current;
      });
}

}  // namespace openea::approaches
