#include "src/approaches/iptranse.h"

#include <unordered_set>

#include "src/approaches/common.h"
#include "src/embedding/translational.h"
#include "src/interaction/bootstrapping.h"
#include "src/interaction/trainer.h"
#include "src/interaction/unified_kg.h"

namespace openea::approaches {

core::ApproachRequirements IpTransE::requirements() const {
  core::ApproachRequirements req;
  req.relation_triples = core::Requirement::kMandatory;
  req.pre_aligned_entities = core::Requirement::kMandatory;
  return req;
}

core::AlignmentModel IpTransE::Train(const core::AlignmentTask& task) {
  Rng rng(config_.seed);
  const interaction::UnifiedKg unified = interaction::BuildUnifiedKg(
      task, interaction::CombinationMode::kSharing, task.train);

  embedding::TripleModelOptions model_options;
  model_options.dim = config_.dim;
  model_options.learning_rate = config_.learning_rate;
  model_options.margin = config_.margin;  // Paper: 1.5 for IPTransE.
  embedding::TransEModel model(unified.num_entities, unified.num_relations,
                               model_options, rng);

  // Self-training state: pairs accepted so far (merged ids) and the
  // entities they cover. IPTransE never edits or removes pairs.
  kg::Alignment augmented;
  std::vector<std::pair<kg::EntityId, kg::EntityId>> soft_pairs;
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
        interaction::TrainEpoch(model, unified.triples,
                                config_.negatives_per_positive, rng);
        // Path composition: link relation chains to direct relations.
        interaction::PathCompositionEpoch(
            model.relation_table(), unified.triples, unified.num_entities,
            config_.learning_rate, unified.triples.size() / 4, rng);
        // Soft calibration of self-training proposals (the original's soft
        // alignment: proposals influence training without sharing
        // parameters).
        if (!soft_pairs.empty()) {
          interaction::CalibrateEpoch(model.entity_table(), soft_pairs,
                                      config_.learning_rate, config_.margin,
                                      1, rng);
        }
      },
      [&] {
        core::AlignmentModel current =
            GatherUnifiedModel(unified, model.entity_table());
        // Self-training: accept every confident proposal, permanently.
        interaction::BootstrapOptions boot;
        boot.threshold = 0.6f;
        boot.mutual = false;  // Naive: no mutuality check, no editing.
        const kg::Alignment proposals = interaction::ProposeAlignment(
            current.emb1, current.emb2, used1, used2, boot);
        for (const kg::AlignmentPair& p : proposals) {
          augmented.push_back(p);
          used1.insert(p.left);
          used2.insert(p.right);
          soft_pairs.emplace_back(unified.map1[p.left],
                                  unified.map2[p.right]);
        }
        trace.push_back(
            interaction::EvaluateAugmented(augmented, task, ++boot_iteration));
        return current;
      });
  best.semi_supervised_trace = std::move(trace);
  return best;
}

}  // namespace openea::approaches
