#include "src/approaches/multike.h"

#include "src/approaches/common.h"
#include "src/embedding/attribute.h"
#include "src/embedding/translational.h"
#include "src/interaction/trainer.h"
#include "src/interaction/unified_kg.h"

namespace openea::approaches {

core::ApproachRequirements MultiKe::requirements() const {
  core::ApproachRequirements req;
  req.relation_triples = core::Requirement::kOptional;
  req.attribute_triples = core::Requirement::kOptional;
  req.pre_aligned_entities = core::Requirement::kMandatory;
  req.word_embeddings = core::Requirement::kOptional;
  return req;
}

core::AlignmentModel MultiKe::Train(const core::AlignmentTask& task) {
  Rng rng(config_.seed);
  const interaction::UnifiedKg unified = interaction::BuildUnifiedKg(
      task, interaction::CombinationMode::kSwapping, task.train);

  // ---- Literal/name view (fixed) --------------------------------------------
  math::Matrix name1, name2;
  if (config_.use_attributes) {
    const text::PseudoWordEmbeddings words =
        MakeWordEmbeddings(task, config_.dim, config_.seed ^ 0x23);
    // Character-level and word-level channels concatenated.
    name1 = ConcatViews(
        embedding::BuildCharLiteralFeatures(*task.kg1, config_.dim,
                                            config_.seed ^ 0x29),
        embedding::BuildLiteralFeatures(*task.kg1, words, true), 1.0f);
    name2 = ConcatViews(
        embedding::BuildCharLiteralFeatures(*task.kg2, config_.dim,
                                            config_.seed ^ 0x29),
        embedding::BuildLiteralFeatures(*task.kg2, words, true), 1.0f);
  }

  // ---- Attribute view (fixed after short training) ---------------------------
  math::Matrix attr1, attr2;
  if (config_.use_attributes) {
    embedding::AttributeCorrelationEmbedding attr_embedding(
        *task.kg1, *task.kg2, config_.dim, rng);
    attr_embedding.Train(/*epochs=*/5, config_.learning_rate, rng);
    attr1 = attr_embedding.EntityAttributeVectors(*task.kg1, false);
    attr2 = attr_embedding.EntityAttributeVectors(*task.kg2, true);
  }

  // ---- Relation view (trained) ----------------------------------------------
  embedding::TripleModelOptions model_options;
  model_options.dim = config_.dim;
  model_options.learning_rate = config_.learning_rate;
  model_options.margin = config_.margin;
  embedding::TransEModel model(unified.num_entities, unified.num_relations,
                               model_options, rng);

  constexpr float kNameWeight = 1.2f;   // The literal view dominates.
  constexpr float kAttrWeight = 0.3f;

  return TrainWithEarlyStopping(
      config_, task.valid, /*patience=*/2,
      [&](int) {
        if (config_.use_relations) {
          interaction::TrainEpoch(model, unified.triples,
                                  config_.negatives_per_positive, rng);
        }
      },
      [&] {
        core::AlignmentModel current =
            GatherUnifiedModel(unified, model.entity_table());
        if (config_.use_attributes) {
          current.emb1 = ConcatViews(current.emb1, name1, kNameWeight);
          current.emb2 = ConcatViews(current.emb2, name2, kNameWeight);
          current.emb1 = ConcatViews(current.emb1, attr1, kAttrWeight);
          current.emb2 = ConcatViews(current.emb2, attr2, kAttrWeight);
        }
        return current;
      });
}

}  // namespace openea::approaches
