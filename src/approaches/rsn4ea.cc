#include "src/approaches/rsn4ea.h"

#include "src/approaches/common.h"
#include "src/embedding/path_rnn.h"
#include "src/interaction/trainer.h"
#include "src/interaction/unified_kg.h"

namespace openea::approaches {

core::ApproachRequirements Rsn4Ea::requirements() const {
  core::ApproachRequirements req;
  req.relation_triples = core::Requirement::kMandatory;
  req.pre_aligned_entities = core::Requirement::kMandatory;
  return req;
}

core::AlignmentModel Rsn4Ea::Train(const core::AlignmentTask& task) {
  Rng rng(config_.seed);
  const interaction::UnifiedKg unified = interaction::BuildUnifiedKg(
      task, interaction::CombinationMode::kSharing, task.train);

  embedding::RsnOptions options;
  options.dim = config_.dim;
  options.learning_rate = config_.learning_rate;
  options.negatives = config_.negatives_per_positive;
  options.path_hops = 2;
  embedding::RsnModel model(unified.num_entities, unified.num_relations,
                            options, rng);

  // Outgoing-triple index for the walker.
  std::vector<std::vector<int>> out_index(unified.num_entities);
  for (size_t i = 0; i < unified.triples.size(); ++i) {
    out_index[unified.triples[i].head].push_back(static_cast<int>(i));
  }

  // Paths are far more numerous than triples (the paper measures ~5x),
  // making RSN4EA slow; we sample one chain per triple per epoch.
  const size_t chains_per_epoch = unified.triples.size();

  // Path-based training converges slowly; allow a longer patience.
  return TrainWithEarlyStopping(
      config_, task.valid, /*patience=*/6,
      [&](int) {
        for (size_t c = 0; c < chains_per_epoch; ++c) {
          const auto chain = embedding::RsnModel::SampleChain(
              unified.triples, out_index, rng, options.path_hops);
          model.TrainOnChain(chain, rng);
        }
        model.PostEpoch();
      },
      [&] { return GatherUnifiedModel(unified, model.entity_table()); });
}

}  // namespace openea::approaches
