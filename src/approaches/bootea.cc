#include "src/approaches/bootea.h"

#include <unordered_set>

#include "src/approaches/common.h"
#include "src/embedding/negative_sampling.h"
#include "src/embedding/translational.h"
#include "src/interaction/bootstrapping.h"
#include "src/interaction/trainer.h"
#include "src/interaction/unified_kg.h"

namespace openea::approaches {

core::ApproachRequirements BootEa::requirements() const {
  core::ApproachRequirements req;
  req.relation_triples = core::Requirement::kMandatory;
  req.pre_aligned_entities = core::Requirement::kMandatory;
  return req;
}

core::AlignmentModel BootEa::Train(const core::AlignmentTask& task) {
  Rng rng(config_.seed);
  const interaction::UnifiedKg unified = interaction::BuildUnifiedKg(
      task, interaction::CombinationMode::kSwapping, task.train);

  embedding::TripleModelOptions model_options;
  model_options.dim = config_.dim;
  model_options.learning_rate = config_.learning_rate;
  embedding::TransEModel::LimitLoss limit;
  limit.enabled = true;  // BootEA's limit-based loss.
  embedding::TransEModel model(unified.num_entities, unified.num_relations,
                               model_options, rng, limit);
  embedding::TruncatedNegativeSampler truncated(16);

  // Training triples: base + swapped for bootstrapped pairs (appended as
  // bootstrapping proceeds).
  std::vector<kg::Triple> triples = unified.triples;

  kg::Alignment augmented;  // Editable augmentation (kg-local ids).
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
      config_, task.valid, /*patience=*/8,
      [&](int epoch) {
        if (epoch % 10 == 1) {
          // Refresh the hard-negative neighbour lists (the costly part the
          // paper measures at >23% of BootEA's running time).
          truncated.Refresh(model.entity_table());
        }
        interaction::TrainEpoch(model, triples,
                                config_.negatives_per_positive, rng,
                                &truncated);
      },
      [&] {
        core::AlignmentModel current =
            GatherUnifiedModel(unified, model.entity_table());
        if (!enable_bootstrapping_) return current;
        interaction::BootstrapOptions boot;
        boot.threshold = 0.75f;
        boot.mutual = true;
        // Candidates exclude only the true seeds; previously bootstrapped
        // pairs stay editable.
        std::unordered_set<kg::EntityId> cand_used1 = used1,
                                         cand_used2 = used2;
        const kg::Alignment proposals = interaction::ProposeAlignment(
            current.emb1, current.emb2, cand_used1, cand_used2, boot);
        interaction::EditAugmentedAlignment(augmented, proposals,
                                            current.emb1, current.emb2);
        trace.push_back(
            interaction::EvaluateAugmented(augmented, task, ++boot_iteration));

        // Swapped triples for the augmented pairs supervise the embedding.
        std::vector<std::pair<kg::EntityId, kg::EntityId>> merged_pairs;
        merged_pairs.reserve(augmented.size());
        for (const kg::AlignmentPair& p : augmented) {
          merged_pairs.emplace_back(unified.map1[p.left],
                                    unified.map2[p.right]);
        }
        triples = unified.triples;
        const auto swapped =
            interaction::SwappedTriples(unified.triples, merged_pairs);
        triples.insert(triples.end(), swapped.begin(), swapped.end());
        // Calibrate augmented pairs directly as well (alignment editing
        // keeps them trustworthy).
        interaction::CalibrateEpoch(model.entity_table(), merged_pairs,
                                    config_.learning_rate, config_.margin, 1,
                                    rng);
        return current;
      });
  best.semi_supervised_trace = std::move(trace);
  return best;
}

}  // namespace openea::approaches
