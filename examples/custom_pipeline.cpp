// Domain scenario 2 — composing a *new* approach from library components
// (the "loose coupling" design goal of OpenEA, paper Sect. 4).
//
// We assemble a pipeline that none of the 12 integrated approaches uses:
// margin-based TransE + parameter swapping + per-epoch seed calibration +
// CSLS / stable-marriage inference. This is exactly the kind of
// recombination the library architecture (Figure 4) is meant to enable.
// (Swap kTransE for kRotatE or any other TripleModelKind to explore
// further — RotatE needs a few hundred more epochs to catch up.)
//
//   ./build/examples/example_custom_pipeline

#include <cstdio>

#include "src/align/inference.h"
#include "src/approaches/common.h"
#include "src/core/benchmark.h"
#include "src/embedding/triple_model.h"
#include "src/eval/metrics.h"
#include "src/interaction/trainer.h"
#include "src/interaction/unified_kg.h"

int main() {
  using namespace openea;

  const auto dataset = core::BuildBenchmarkDataset(
      datagen::HeterogeneityProfile::EnFr(), core::ScalePreset::Small(),
      false, 7);
  const auto folds = eval::MakeFolds(dataset.pair.reference);
  const core::AlignmentTask task = core::MakeTask(dataset.pair, folds[0]);

  // --- Embedding module: TransE over a swapped unified KG -------------------
  const interaction::UnifiedKg unified = interaction::BuildUnifiedKg(
      task, interaction::CombinationMode::kSwapping, task.train);
  Rng rng(7);
  embedding::TripleModelOptions options;
  options.dim = 32;
  options.learning_rate = 0.05f;
  options.margin = 1.0f;
  auto model = CreateTripleModel(embedding::TripleModelKind::kTransE,
                                 unified.num_entities,
                                 unified.num_relations, options, rng);

  // --- Interaction: swapped triples + seed calibration each epoch ------------
  std::printf("Training custom TransE+swapping+calibration pipeline ...\n");
  core::TrainConfig schedule;
  schedule.max_epochs = 200;
  schedule.eval_every = 10;
  const core::AlignmentModel best = approaches::TrainWithEarlyStopping(
      schedule, task.valid, /*patience=*/3,
      [&](int) {
        interaction::TrainEpoch(*model, unified.triples, /*negatives=*/5,
                                rng);
        interaction::CalibrateEpoch(model->entity_table(),
                                    unified.merged_seeds,
                                    options.learning_rate, options.margin, 2,
                                    rng);
      },
      [&] {
        return approaches::GatherUnifiedModel(unified,
                                              model->entity_table());
      });

  // --- Alignment module: sweep the inference strategies -----------------------
  std::printf("\n%-24s Hits@1\n", "Inference strategy");
  for (const auto strategy : {align::InferenceStrategy::kGreedy,
                              align::InferenceStrategy::kGreedyCsls,
                              align::InferenceStrategy::kStableMarriage,
                              align::InferenceStrategy::kStableMarriageCsls,
                              align::InferenceStrategy::kKuhnMunkres}) {
    const double accuracy = eval::MatchAccuracy(
        best, task.test, align::DistanceMetric::kCosine, strategy);
    std::printf("%-24s %.3f\n", align::InferenceStrategyName(strategy),
                accuracy);
  }
  std::printf(
      "\nThe alignment-module upgrades (CSLS, stable marriage) lift the\n"
      "same trained embeddings — the paper's Sect. 6.1 observation, now on\n"
      "an embedding model the paper itself never paired with them.\n");
  return 0;
}
