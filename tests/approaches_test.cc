#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/approaches/common.h"
#include "src/approaches/imuse.h"
#include "src/approaches/mtranse.h"
#include "src/core/benchmark.h"
#include "src/core/registry.h"
#include "src/datagen/kg_pair.h"
#include "src/eval/folds.h"
#include "src/eval/metrics.h"

namespace openea::approaches {
namespace {

/// Shared small task so the whole suite stays fast: one EN-FR pair, one
/// fold, ~300 entities.
struct SharedTask {
  datagen::DatasetPair pair;
  core::AlignmentTask task;

  SharedTask() {
    datagen::SyntheticKgConfig config;
    config.num_entities = 300;
    config.avg_degree = 6.0;
    config.num_relations = 15;
    config.num_attributes = 12;
    config.vocabulary_size = 150;
    config.seed = 77;
    pair = GenerateDatasetPair(config,
                               datagen::HeterogeneityProfile::EnFr(), 77);
    const auto folds = eval::MakeFolds(pair.reference, 5, 0.1, 3);
    task.kg1 = &pair.kg1;
    task.kg2 = &pair.kg2;
    task.train = folds[0].train;
    task.valid = folds[0].valid;
    task.test = folds[0].test;
    task.dictionary = &pair.dictionary;
  }
};

const SharedTask& GetSharedTask() {
  static const SharedTask* shared = new SharedTask();
  return *shared;
}

class ApproachTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ApproachTest, TrainsAndBeatsRandomBaseline) {
  core::TrainConfig config;
  config.dim = 16;
  config.max_epochs = 60;
  config.seed = 1;
  auto approach = core::CreateApproachOrDie(GetParam(), config);
  ASSERT_NE(approach, nullptr);
  EXPECT_EQ(approach->name(), GetParam());

  const auto& shared = GetSharedTask();
  const core::AlignmentModel model = approach->Train(shared.task);
  EXPECT_EQ(model.emb1.rows(), shared.pair.kg1.NumEntities());
  EXPECT_EQ(model.emb2.rows(), shared.pair.kg2.NumEntities());
  EXPECT_EQ(model.emb1.cols(), model.emb2.cols());
  for (float v : model.emb1.Data()) ASSERT_TRUE(std::isfinite(v));

  const auto metrics = eval::EvaluateRanking(
      model, shared.task.test, align::DistanceMetric::kCosine);
  // Random baseline Hits@1 is 1/|test| (~0.6%); every approach must beat
  // it several times over even with this tiny budget (RSN4EA is the
  // slowest learner and sets the floor).
  EXPECT_GT(metrics.hits1, 0.02) << GetParam();
  EXPECT_GE(metrics.hits5, metrics.hits1);
  EXPECT_GE(metrics.mrr, metrics.hits1);
  // The literal-based leaders should already be strong (Table 5 top-3).
  if (GetParam() == "MultiKE" || GetParam() == "RDGCN") {
    EXPECT_GT(metrics.hits1, 0.3) << GetParam();
  }
}

TEST_P(ApproachTest, RequirementsDeclareSeedAlignment) {
  core::TrainConfig config;
  auto approach = core::CreateApproachOrDie(GetParam(), config);
  ASSERT_NE(approach, nullptr);
  // All 12 embedding-based approaches are (semi-)supervised (Table 9).
  EXPECT_EQ(approach->requirements().pre_aligned_entities,
            core::Requirement::kMandatory);
}

INSTANTIATE_TEST_SUITE_P(All12, ApproachTest,
                         ::testing::ValuesIn(core::ApproachNames()),
                         [](const auto& info) { return info.param; });

TEST(RegistryTest, UnknownNameReturnsNotFoundListingValidNames) {
  core::TrainConfig config;
  const auto made = core::CreateApproach("NoSuchApproach", config);
  ASSERT_FALSE(made.ok());
  EXPECT_EQ(made.status().code(), StatusCode::kNotFound);
  // The error must name the valid approaches so the caller can self-serve.
  EXPECT_NE(made.status().message().find("NoSuchApproach"),
            std::string::npos);
  for (const auto& name : core::ApproachNames()) {
    EXPECT_NE(made.status().message().find(name), std::string::npos) << name;
  }
}

TEST(RegistryTest, InvalidConfigRejectedBeforeLookup) {
  core::TrainConfig config;
  config.dim = 0;
  const auto made = core::CreateApproach("MTransE", config);
  ASSERT_FALSE(made.ok());
  EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument);

  core::TrainConfig bad_epochs;
  bad_epochs.max_epochs = 0;
  EXPECT_FALSE(core::CreateApproach("MTransE", bad_epochs).ok());
  core::TrainConfig bad_eval;
  bad_eval.eval_every = -1;
  EXPECT_FALSE(core::CreateApproach("MTransE", bad_eval).ok());
  core::TrainConfig bad_threads;
  bad_threads.threads = -2;
  EXPECT_FALSE(core::CreateApproach("MTransE", bad_threads).ok());
}

TEST(RegistryTest, TrainConfigValidateAcceptsDefaults) {
  EXPECT_TRUE(core::TrainConfig{}.Validate().ok());
  core::TrainConfig all_hardware;
  all_hardware.threads = 0;  // 0 = all hardware threads is valid.
  EXPECT_TRUE(all_hardware.Validate().ok());
}

TEST(RegistryTest, RegisterHookExtendsTheFactoryTable) {
  const std::string name = "RegistryTestCustomApproach";
  ASSERT_TRUE(core::RegisterApproach(name, [](const core::TrainConfig& c) {
    return std::make_unique<MTransE>(c);
  }));
  // Second registration under the same name is rejected.
  EXPECT_FALSE(core::RegisterApproach(name, [](const core::TrainConfig& c) {
    return std::make_unique<MTransE>(c);
  }));
  const auto registered = core::RegisteredApproachNames();
  EXPECT_NE(std::find(registered.begin(), registered.end(), name),
            registered.end());
  core::TrainConfig config;
  config.dim = 16;
  auto made = core::CreateApproach(name, config);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  EXPECT_EQ(made.value()->name(), "MTransE");
}

TEST(RegistryTest, RegisteredNamesIncludePaperTwelveAndChassis) {
  const auto registered = core::RegisteredApproachNames();
  for (const auto& name : core::ApproachNames()) {
    EXPECT_NE(std::find(registered.begin(), registered.end(), name),
              registered.end())
        << name;
  }
  EXPECT_NE(std::find(registered.begin(), registered.end(),
                      std::string("MTransE-RotatE")),
            registered.end());
}

TEST(RegistryTest, UnexploredModelChassis) {
  core::TrainConfig config;
  config.dim = 16;
  for (const char* name :
       {"MTransE-TransH", "MTransE-TransD", "MTransE-RotatE",
        "MTransE-SimplE", "MTransE-ProjE", "MTransE-ConvE",
        "MTransE-TransR", "MTransE-HolE", "MTransE-DistMult"}) {
    auto approach = core::CreateApproachOrDie(name, config);
    ASSERT_NE(approach, nullptr) << name;
    EXPECT_EQ(approach->name(), name);
  }
}

TEST(SemiSupervisedTest, TracesAreRecorded) {
  core::TrainConfig config;
  config.dim = 16;
  config.max_epochs = 60;
  for (const char* name : {"BootEA", "IPTransE", "KDCoE"}) {
    auto approach = core::CreateApproachOrDie(name, config);
    const core::AlignmentModel model = approach->Train(GetSharedTask().task);
    EXPECT_FALSE(model.semi_supervised_trace.empty()) << name;
    for (const auto& stat : model.semi_supervised_trace) {
      EXPECT_GE(stat.precision, 0.0);
      EXPECT_LE(stat.precision, 1.0);
      EXPECT_GE(stat.recall, 0.0);
      EXPECT_LE(stat.recall, 1.0);
    }
  }
}

TEST(AblationTest, AttributeSwitchChangesLiteralApproaches) {
  // Figure 6: disabling attribute embedding must hurt the literal-based
  // approaches on this dataset.
  core::TrainConfig with_attr;
  with_attr.dim = 16;
  with_attr.max_epochs = 40;
  core::TrainConfig without_attr = with_attr;
  without_attr.use_attributes = false;

  const auto& shared = GetSharedTask();
  for (const char* name : {"MultiKE", "RDGCN"}) {
    const double h1_with =
        eval::EvaluateRanking(
            core::CreateApproachOrDie(name, with_attr)->Train(shared.task),
            shared.task.test, align::DistanceMetric::kCosine)
            .hits1;
    const double h1_without =
        eval::EvaluateRanking(
            core::CreateApproachOrDie(name, without_attr)->Train(shared.task),
            shared.task.test, align::DistanceMetric::kCosine)
            .hits1;
    EXPECT_GT(h1_with, h1_without) << name;
  }
}

TEST(ImuseHarvestTest, LiteralPairsAreMostlyCorrect) {
  const auto& shared = GetSharedTask();
  const kg::Alignment harvested = Imuse::HarvestLiteralPairs(shared.task);
  EXPECT_GT(harvested.size(), 10u);
  const auto prf = eval::ComparePairs(harvested, shared.pair.reference);
  // Mostly right but imperfect — the error source the paper discusses.
  EXPECT_GT(prf.precision, 0.5);
}

TEST(BenchmarkSuiteTest, BuildsDatasetsAndRunsFolds) {
  core::ScalePreset tiny{"tiny", 500, 250, 25.0};
  const auto dataset = core::BuildBenchmarkDataset(
      datagen::HeterogeneityProfile::DbpYg(), tiny, false, 5);
  EXPECT_LE(dataset.pair.kg1.NumEntities(), 250u);
  EXPECT_GE(dataset.pair.kg1.NumEntities(), 240u);
  EXPECT_EQ(dataset.name, "D-Y-tiny (V1)");

  core::TrainConfig config;
  config.dim = 16;
  config.max_epochs = 30;
  const auto result =
      core::RunCrossValidation("MTransE", dataset, config, 2);
  EXPECT_EQ(result.approach, "MTransE");
  EXPECT_GE(result.hits1.mean, 0.0);
  EXPECT_LE(result.hits1.mean, 1.0);
  EXPECT_GT(result.mean_seconds, 0.0);
  EXPECT_EQ(result.first_fold_model.emb1.rows(),
            dataset.pair.kg1.NumEntities());
}

/// A snapshot whose cosine Hits@1 on EarlyStoppingPairs() is exactly
/// matched / kScriptRows: emb1 is the identity, emb2 keeps the first
/// `matched` rows and rotates the rest by one. Every row of emb2 is scaled
/// by `tag` (cosine ignores it), so a returned snapshot names its epoch.
constexpr size_t kScriptRows = 10;

core::AlignmentModel ScriptedSnapshot(size_t matched, float tag) {
  core::AlignmentModel model;
  model.emb1 = math::Matrix(kScriptRows, kScriptRows, 0.0f);
  model.emb2 = math::Matrix(kScriptRows, kScriptRows, 0.0f);
  const size_t rotated = kScriptRows - matched;
  for (size_t i = 0; i < kScriptRows; ++i) {
    model.emb1.Row(i)[i] = 1.0f;
    const size_t col =
        i < matched ? i : matched + (i - matched + 1) % rotated;
    model.emb2.Row(i)[col] = tag;
  }
  return model;
}

kg::Alignment EarlyStoppingPairs() {
  kg::Alignment pairs;
  for (size_t i = 0; i < kScriptRows; ++i) {
    pairs.push_back({static_cast<kg::EntityId>(i),
                     static_cast<kg::EntityId>(i)});
  }
  return pairs;
}

/// Runs TrainWithEarlyStopping over scripted snapshots: the check of epoch
/// e matches `matched[e - 1]` rows. Records the trained and the evaluated
/// epochs and returns the epoch of the kept snapshot.
struct ScriptedRun {
  std::vector<int> trained;
  std::vector<int> evaluated;
  int kept = 0;
};

ScriptedRun RunScript(int max_epochs, int eval_every, int patience,
                      const std::vector<size_t>& matched) {
  core::TrainConfig config;
  config.max_epochs = max_epochs;
  config.eval_every = eval_every;
  ScriptedRun run;
  int epoch = 0;
  const core::AlignmentModel best = TrainWithEarlyStopping(
      config, EarlyStoppingPairs(), patience,
      [&](int e) {
        epoch = e;
        run.trained.push_back(e);
      },
      [&] {
        run.evaluated.push_back(epoch);
        return ScriptedSnapshot(matched.at(epoch - 1),
                                static_cast<float>(epoch));
      });
  const auto values = best.emb2.Data();
  run.kept = static_cast<int>(*std::max_element(values.begin(), values.end()));
  return run;
}

TEST(EarlyStoppingTest, ScriptedSnapshotsScoreTheirMatchedShare) {
  for (size_t matched : {0u, 3u, 8u, 10u}) {
    EXPECT_DOUBLE_EQ(
        eval::Hits1(ScriptedSnapshot(matched, 2.0f), EarlyStoppingPairs(),
                    align::DistanceMetric::kCosine),
        static_cast<double>(matched) / kScriptRows)
        << matched;
  }
}

TEST(EarlyStoppingTest, EvaluatesEveryEvalEveryEpochAndTheLast) {
  const ScriptedRun run =
      RunScript(/*max_epochs=*/10, /*eval_every=*/4, /*patience=*/100,
                std::vector<size_t>(10, 5));
  EXPECT_EQ(run.trained, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  EXPECT_EQ(run.evaluated, (std::vector<int>{4, 8, 10}));
  // A run shorter than eval_every still checks (and keeps) its last epoch.
  const ScriptedRun short_run = RunScript(3, 10, 2, {0, 0, 0});
  EXPECT_EQ(short_run.evaluated, (std::vector<int>{3}));
  EXPECT_EQ(short_run.kept, 3);
}

TEST(EarlyStoppingTest, StopsAfterPatienceChecksWithoutImprovement) {
  // Checks score 2, 5, 5, 4: the third and fourth do not improve on 5.
  const ScriptedRun run = RunScript(20, 1, 2, {2, 5, 5, 4, 9, 9, 9, 9, 9, 9,
                                               9, 9, 9, 9, 9, 9, 9, 9, 9, 9});
  EXPECT_EQ(run.trained, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(run.evaluated, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(run.kept, 2);
  // An improvement resets the count: 2, 1, 6, 6, 6 stops at the fifth.
  const ScriptedRun reset = RunScript(8, 1, 2, {2, 1, 6, 6, 6, 9, 9, 9});
  EXPECT_EQ(reset.evaluated, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(reset.kept, 3);
}

TEST(EarlyStoppingTest, KeepsFirstSnapshotWhenNothingImproves) {
  const ScriptedRun run = RunScript(12, 2, 3, std::vector<size_t>(12, 0));
  EXPECT_EQ(run.evaluated, (std::vector<int>{2, 4, 6, 8}));
  EXPECT_EQ(run.kept, 2);
}

TEST(EarlyStoppingTest, ReturnsTheBestSnapshot) {
  // Hits@1 climbs to 0.8 at epoch 6, dips, and the run ends at max_epochs
  // before patience runs out: the epoch-6 snapshot is returned.
  const ScriptedRun run = RunScript(10, 2, 3, {0, 3, 0, 6, 0, 8, 0, 7, 0, 8});
  EXPECT_EQ(run.evaluated, (std::vector<int>{2, 4, 6, 8, 10}));
  EXPECT_EQ(run.kept, 6);
}

}  // namespace
}  // namespace openea::approaches
