#include "src/approaches/gcn_align.h"

#include "src/approaches/common.h"
#include "src/embedding/attribute.h"
#include "src/embedding/gcn.h"
#include "src/interaction/unified_kg.h"
#include "src/math/vec.h"
#include "src/text/word_embeddings.h"

namespace openea::approaches {
namespace {

/// Hashed bag-of-attributes features over a merged attribute space: every
/// (entity, attribute) observation adds a pseudo-random unit vector keyed
/// by the merged attribute id. Attributes aligned across KGs share keys,
/// so entities with corresponding attributes get similar bags.
math::Matrix AttributeBagFeatures(const kg::KnowledgeGraph& kg,
                                  const std::vector<int>& mapping,
                                  size_t dim, uint64_t seed,
                                  bool second_kg) {
  math::Matrix out(kg.NumEntities(), dim, 0.0f);
  for (const kg::AttributeTriple& t : kg.attribute_triples()) {
    int merged = t.attribute;
    if (second_kg) {
      merged = mapping[t.attribute] >= 0
                   ? mapping[t.attribute]
                   : static_cast<int>(100000 + t.attribute);
    }
    Rng key_rng(seed ^ (0x51ED5EEDull + 131 * merged));
    auto row = out.Row(t.entity);
    for (size_t i = 0; i < dim; ++i) {
      row[i] += static_cast<float>(key_rng.NextGaussian());
    }
  }
  for (size_t e = 0; e < out.rows(); ++e) math::NormalizeL2(out.Row(e));
  return out;
}

}  // namespace

core::ApproachRequirements GcnAlign::requirements() const {
  core::ApproachRequirements req;
  req.relation_triples = core::Requirement::kMandatory;
  req.attribute_triples = core::Requirement::kOptional;
  req.pre_aligned_entities = core::Requirement::kMandatory;
  return req;
}

core::AlignmentModel GcnAlign::Train(const core::AlignmentTask& task) {
  Rng rng(config_.seed);
  const interaction::UnifiedKg unified = interaction::BuildUnifiedKg(
      task, interaction::CombinationMode::kNone, task.train);

  embedding::GcnOptions options;
  options.dim = config_.dim;
  options.layers = 2;  // Paper: 2 GCN layers for GCNAlign.
  options.learning_rate = config_.learning_rate;
  options.trainable_features = true;
  embedding::GcnEncoder gcn(unified.num_entities,
                            BuildGcnEdges(unified, /*relation_aware=*/false),
                            options, rng);

  math::Matrix attr1, attr2;
  if (config_.use_attributes) {
    const std::vector<int> mapping =
        embedding::AlignAttributesByName(*task.kg1, *task.kg2);
    attr1 = AttributeBagFeatures(*task.kg1, mapping, config_.dim,
                                 config_.seed, false);
    attr2 = AttributeBagFeatures(*task.kg2, mapping, config_.dim,
                                 config_.seed, true);
  }
  constexpr float kAttributeWeight = 0.4f;  // The paper's beta blend.

  // Full-batch GCN training ramps slowly and benefits from many negatives
  // per seed pair; a longer early-stop patience lets it mature.
  math::Matrix grad;
  return TrainWithEarlyStopping(
      config_, task.valid, /*patience=*/10,
      [&](int) {
        const math::Matrix& output = gcn.Forward();
        AlignmentLossGrad(output, unified.merged_seeds, config_.margin,
                          3 * config_.negatives_per_positive, rng, grad);
        gcn.Backward(grad);
      },
      [&] {
        gcn.Forward();
        core::AlignmentModel current =
            GatherUnifiedModel(unified, gcn.output());
        if (config_.use_attributes) {
          current.emb1 = ConcatViews(current.emb1, attr1, kAttributeWeight);
          current.emb2 = ConcatViews(current.emb2, attr2, kAttributeWeight);
        }
        return current;
      });
}

}  // namespace openea::approaches
