// Reproduces Figure 12: the Venn decomposition of correct alignment found
// by OpenEA (best embedding approach), LogMap, and PARIS on EN-FR.

#include <cstdio>
#include <unordered_set>

#include "bench/bench_common.h"
#include "src/conventional/conventional.h"
#include "src/core/registry.h"
#include "src/eval/metrics.h"

int main(int argc, char** argv) {
  using namespace openea;
  const auto args = bench::ParseArgs("complementarity", argc, argv, 1, 200);
  bench::BeginRun(args);
  const core::TrainConfig config = bench::MakeTrainConfig(args);

  const auto dataset = core::BuildBenchmarkDataset(
      datagen::HeterogeneityProfile::EnFr(), args.scale, false, args.seed);
  const auto& reference = dataset.pair.reference;

  auto key_of = [](const kg::AlignmentPair& p) {
    return (static_cast<int64_t>(p.left) << 32) ^
           static_cast<int64_t>(p.right);
  };
  std::unordered_set<int64_t> ref_keys;
  for (const auto& p : reference) ref_keys.insert(key_of(p));

  // Correct pairs found by each system.
  auto correct_of = [&](const kg::Alignment& found) {
    std::unordered_set<int64_t> keys;
    for (const auto& p : found) {
      const int64_t k = key_of(p);
      if (ref_keys.count(k) > 0) keys.insert(k);
    }
    return keys;
  };

  conventional::ConventionalOptions conv;
  conv.translator = dataset.pair.dictionary.size() > 0
                        ? &dataset.pair.dictionary
                        : nullptr;
  const auto logmap = correct_of(
      conventional::RunLogMap(dataset.pair.kg1, dataset.pair.kg2, conv));
  const auto paris = correct_of(
      conventional::RunParis(dataset.pair.kg1, dataset.pair.kg2, conv));

  // OpenEA: best approach's greedy matching over the full reference space.
  const auto result =
      core::RunCrossValidation("RDGCN", dataset, config, 1, args.checkpoint);
  std::unordered_set<int64_t> openea;
  {
    const auto correct = eval::CorrectlyMatched(
        result.first_fold_model, result.first_fold_test,
        align::DistanceMetric::kCosine, align::InferenceStrategy::kGreedy);
    // Train/valid pairs are supervision — count them as found (they are
    // known), matching the paper's full-KG protocol for the conventional
    // systems.
    for (const auto& p : reference) {
      openea.insert(key_of(p));
    }
    std::unordered_set<int64_t> test_keys;
    for (const auto& p : result.first_fold_test) test_keys.insert(key_of(p));
    for (size_t i = 0; i < result.first_fold_test.size(); ++i) {
      if (!correct[i]) openea.erase(key_of(result.first_fold_test[i]));
    }
  }

  size_t all3 = 0, oe_lm = 0, oe_pa = 0, lm_pa = 0;
  size_t oe_only = 0, lm_only = 0, pa_only = 0, none = 0;
  for (const auto& p : reference) {
    const int64_t k = key_of(p);
    const bool in_oe = openea.count(k) > 0;
    const bool in_lm = logmap.count(k) > 0;
    const bool in_pa = paris.count(k) > 0;
    if (in_oe && in_lm && in_pa) ++all3;
    else if (in_oe && in_lm) ++oe_lm;
    else if (in_oe && in_pa) ++oe_pa;
    else if (in_lm && in_pa) ++lm_pa;
    else if (in_oe) ++oe_only;
    else if (in_lm) ++lm_only;
    else if (in_pa) ++pa_only;
    else ++none;
  }
  const double n = static_cast<double>(reference.size());
  std::printf("== Figure 12: complementarity on %s ==\n",
              dataset.name.c_str());
  std::printf("All three:          %5.2f%%\n", 100.0 * all3 / n);
  std::printf("OpenEA & LogMap:    %5.2f%%\n", 100.0 * oe_lm / n);
  std::printf("OpenEA & PARIS:     %5.2f%%\n", 100.0 * oe_pa / n);
  std::printf("LogMap & PARIS:     %5.2f%%\n", 100.0 * lm_pa / n);
  std::printf("OpenEA only:        %5.2f%%\n", 100.0 * oe_only / n);
  std::printf("LogMap only:        %5.2f%%\n", 100.0 * lm_only / n);
  std::printf("PARIS only:         %5.2f%%\n", 100.0 * pa_only / n);
  std::printf("Found by none:      %5.2f%%\n", 100.0 * none / n);
  std::printf("OpenEA finds %.2f%% that LogMap misses and %.2f%% that PARIS "
              "misses.\n",
              100.0 * (oe_only + oe_pa) / n, 100.0 * (oe_only + oe_lm) / n);

  std::printf(
      "\nShape check (paper Fig. 12): a large core is found by all three\n"
      "systems; each system also finds alignment the others miss; a\n"
      "residual fraction is found by none — motivating hybrid systems.\n");
  return bench::Finish(args);
}
