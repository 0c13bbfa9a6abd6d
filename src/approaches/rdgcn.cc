#include "src/approaches/rdgcn.h"

#include "src/approaches/common.h"
#include "src/embedding/attribute.h"
#include "src/embedding/gcn.h"
#include "src/interaction/unified_kg.h"

namespace openea::approaches {

core::ApproachRequirements Rdgcn::requirements() const {
  core::ApproachRequirements req;
  req.relation_triples = core::Requirement::kMandatory;
  req.attribute_triples = core::Requirement::kOptional;
  req.pre_aligned_entities = core::Requirement::kMandatory;
  req.word_embeddings = core::Requirement::kMandatory;
  return req;
}

core::AlignmentModel Rdgcn::Train(const core::AlignmentTask& task) {
  Rng rng(config_.seed);
  const interaction::UnifiedKg unified = interaction::BuildUnifiedKg(
      task, interaction::CombinationMode::kNone, task.train);

  embedding::GcnOptions options;
  options.dim = config_.dim;
  options.layers = 2;  // Paper: 2 layers for RDGCN.
  options.learning_rate = config_.learning_rate;
  options.highway = true;
  // Literal features are frozen inputs; without attributes we fall back to
  // trainable random features (structure-only RDGCN).
  options.trainable_features = !config_.use_attributes;
  embedding::GcnEncoder gcn(unified.num_entities,
                            BuildGcnEdges(unified, /*relation_aware=*/true),
                            options, rng);

  if (config_.use_attributes) {
    const text::PseudoWordEmbeddings words =
        MakeWordEmbeddings(task, config_.dim, config_.seed ^ 0x17);
    gcn.SetInputFeatures(StackKgFeatures(
        embedding::BuildLiteralFeatures(*task.kg1, words,
                                        /*include_descriptions=*/true),
        embedding::BuildLiteralFeatures(*task.kg2, words,
                                        /*include_descriptions=*/true)));
  }

  math::Matrix grad;
  return TrainWithEarlyStopping(
      config_, task.valid, /*patience=*/2,
      [&](int) {
        const math::Matrix& output = gcn.Forward();
        AlignmentLossGrad(output, unified.merged_seeds, config_.margin,
                          config_.negatives_per_positive, rng, grad);
        gcn.Backward(grad);
      },
      [&] {
        gcn.Forward();
        return GatherUnifiedModel(unified, gcn.output());
      });
}

}  // namespace openea::approaches
