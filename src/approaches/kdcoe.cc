#include "src/approaches/kdcoe.h"

#include <unordered_set>

#include "src/approaches/common.h"
#include "src/embedding/attribute.h"
#include "src/embedding/translational.h"
#include "src/interaction/bootstrapping.h"
#include "src/interaction/trainer.h"
#include "src/interaction/unified_kg.h"
#include "src/math/vec.h"

namespace openea::approaches {

core::ApproachRequirements KdCoE::requirements() const {
  core::ApproachRequirements req;
  req.relation_triples = core::Requirement::kOptional;
  req.attribute_triples = core::Requirement::kOptional;  // Descriptions.
  req.pre_aligned_entities = core::Requirement::kMandatory;
  req.word_embeddings = core::Requirement::kMandatory;
  return req;
}

core::AlignmentModel KdCoE::Train(const core::AlignmentTask& task) {
  Rng rng(config_.seed);
  const interaction::UnifiedKg unified = interaction::BuildUnifiedKg(
      task, interaction::CombinationMode::kNone, task.train);

  embedding::TripleModelOptions model_options;
  model_options.dim = config_.dim;
  model_options.learning_rate = config_.learning_rate;
  model_options.margin = config_.margin;
  embedding::TransEModel model(unified.num_entities, unified.num_relations,
                               model_options, rng);

  // Description view (fixed vectors; zero rows when absent).
  const text::PseudoWordEmbeddings words =
      MakeWordEmbeddings(task, config_.dim, config_.seed ^ 0x9);
  math::Matrix desc1, desc2;
  if (config_.use_attributes) {
    desc1 = embedding::BuildDescriptionFeatures(*task.kg1, words);
    desc2 = embedding::BuildDescriptionFeatures(*task.kg2, words);
  }
  auto has_desc = [](const math::Matrix& m, kg::EntityId e) {
    return math::SquaredL2Norm(m.Row(e)) > 1e-8f;
  };
  constexpr float kDescWeight = 1.0f;

  // Co-training seed pool.
  std::vector<std::pair<kg::EntityId, kg::EntityId>> merged_seeds =
      unified.merged_seeds;
  kg::Alignment augmented;
  std::unordered_set<kg::EntityId> used1, used2;
  for (const kg::AlignmentPair& p : task.train) {
    used1.insert(p.left);
    used2.insert(p.right);
  }

  std::vector<core::IterationStat> trace;
  int boot_iteration = 0;
  // Semi-supervised augmentation needs time to grow recall before
  // validation accuracy peaks; use a longer early-stop patience.
  core::AlignmentModel best = TrainWithEarlyStopping(
      config_, task.valid, /*patience=*/6,
      [&](int) {
        if (config_.use_relations) {
          interaction::TrainEpoch(model, unified.triples,
                                  config_.negatives_per_positive, rng);
        }
        interaction::CalibrateEpoch(model.entity_table(), merged_seeds,
                                    config_.learning_rate, config_.margin, 1,
                                    rng);
      },
      [&] {
        core::AlignmentModel current =
            GatherUnifiedModel(unified, model.entity_table());

        // --- Co-training proposals ----------------------------------------
        interaction::BootstrapOptions boot;
        boot.threshold = 0.8f;
        boot.mutual = true;
        kg::Alignment proposals = interaction::ProposeAlignment(
            current.emb1, current.emb2, used1, used2, boot);
        if (config_.use_attributes) {
          // Description-view proposals: restricted to described entities.
          std::unordered_set<kg::EntityId> no_desc1 = used1, no_desc2 = used2;
          for (size_t e = 0; e < desc1.rows(); ++e) {
            if (!has_desc(desc1, static_cast<kg::EntityId>(e))) {
              no_desc1.insert(static_cast<kg::EntityId>(e));
            }
          }
          for (size_t e = 0; e < desc2.rows(); ++e) {
            if (!has_desc(desc2, static_cast<kg::EntityId>(e))) {
              no_desc2.insert(static_cast<kg::EntityId>(e));
            }
          }
          const kg::Alignment desc_proposals = interaction::ProposeAlignment(
              desc1, desc2, no_desc1, no_desc2, boot);
          proposals.insert(proposals.end(), desc_proposals.begin(),
                           desc_proposals.end());
        }
        for (const kg::AlignmentPair& p : proposals) {
          if (used1.count(p.left) > 0 || used2.count(p.right) > 0) continue;
          used1.insert(p.left);
          used2.insert(p.right);
          augmented.push_back(p);
          merged_seeds.emplace_back(unified.map1[p.left],
                                    unified.map2[p.right]);
        }
        trace.push_back(
            interaction::EvaluateAugmented(augmented, task, ++boot_iteration));

        if (config_.use_attributes) {
          current.emb1 = ConcatViews(current.emb1, desc1, kDescWeight);
          current.emb2 = ConcatViews(current.emb2, desc2, kDescWeight);
        }
        return current;
      });
  best.semi_supervised_trace = std::move(trace);
  return best;
}

}  // namespace openea::approaches
