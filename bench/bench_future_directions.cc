// Exploratory bench for the paper's Sect. 7.2 future directions:
//   (1) Unsupervised entity alignment: literal-harvest pseudo-seeds +
//       self-training vs. the supervised counterpart.
//   (2) Large-scale entity alignment: LSH blocking vs. exact greedy search
//       (candidate-space reduction and accuracy retention).

#include <cstdio>

#include "bench/bench_common.h"
#include "src/align/candidate_source.h"
#include "src/approaches/unsupervised.h"
#include "src/common/stopwatch.h"
#include "src/core/registry.h"
#include "src/eval/metrics.h"

int main(int argc, char** argv) {
  using namespace openea;
  const auto args = bench::ParseArgs("future_directions", argc, argv, 1, 200);
  bench::BeginRun(args);
  const core::TrainConfig config = bench::MakeTrainConfig(args);

  const auto dataset = core::BuildBenchmarkDataset(
      datagen::HeterogeneityProfile::DbpYg(), args.scale, false, args.seed);
  const auto folds = eval::MakeFolds(dataset.pair.reference, 5, 0.1,
                                     config.seed ^ 0xF01D);
  const core::AlignmentTask task = core::MakeTask(dataset.pair, folds[0]);

  // ---- (1) Unsupervised vs supervised -----------------------------------------
  std::printf("== Future direction 1: unsupervised entity alignment (%s) ==\n",
              dataset.name.c_str());
  {
    approaches::UnsupervisedEa unsupervised(config);
    const double h_unsup =
        eval::EvaluateRanking(unsupervised.Train(task), task.test,
                              align::DistanceMetric::kCosine)
            .hits1;
    const double h_sup =
        eval::EvaluateRanking(
            core::CreateApproachOrDie("IMUSE", config)->Train(task), task.test,
            align::DistanceMetric::kCosine)
            .hits1;
    std::printf("Unsupervised (0 seeds):    Hits@1 = %.3f\n", h_unsup);
    std::printf("Supervised IMUSE (20%%):    Hits@1 = %.3f\n", h_sup);
    std::printf(
        "Observation: distant supervision from literal overlap recovers a\n"
        "large share of the supervised accuracy on literal-rich pairs.\n\n");
  }

  // ---- (2) LSH blocking --------------------------------------------------------
  std::printf("== Future direction 2: LSH blocking for large-scale EA ==\n");
  {
    auto approach = core::CreateApproachOrDie("MultiKE", config);
    const core::AlignmentModel model = approach->Train(task);
    std::vector<kg::EntityId> lefts, rights;
    for (const auto& p : task.test) {
      lefts.push_back(p.left);
      rights.push_back(p.right);
    }
    const math::Matrix src = eval::GatherRows(model.emb1, lefts);
    const math::Matrix tgt = eval::GatherRows(model.emb2, rights);

    Stopwatch exact_watch;
    const auto sim =
        align::SimilarityMatrix(src, tgt, align::DistanceMetric::kCosine);
    const auto exact = align::GreedyMatch(sim);
    const double exact_ms = exact_watch.ElapsedMillis();
    size_t exact_hits = 0;
    for (size_t i = 0; i < exact.size(); ++i) {
      if (exact[i] == static_cast<int>(i)) ++exact_hits;
    }

    std::printf("%-28s %10s %10s\n", "Matcher", "Hits@1", "ms");
    std::printf("%-28s %10.3f %10.1f\n", "Exact greedy",
                static_cast<double>(exact_hits) / exact.size(), exact_ms);
    for (const int bits : {3, 5, 8}) {
      Stopwatch watch;
      align::CandidateSourceConfig config;
      config.kind = align::CandidateSourceKind::kLsh;
      config.lsh_bits = bits;
      config.lsh_tables = 8;
      config.seed = args.seed;
      const auto source = align::CreateCandidateSourceOrDie(config);
      OPENEA_CHECK(source->Index(tgt).ok());
      const align::TopKResult top1 = source->TopK(src, 1);
      const double ms = watch.ElapsedMillis();
      size_t hits = 0;
      for (size_t i = 0; i < src.rows(); ++i) {
        if (top1.BestIndex(i) == static_cast<int>(i)) ++hits;
      }
      std::printf("%-28s %10.3f %10.1f\n",
                  ("LSH-blocked (" + std::to_string(bits) + " bits)").c_str(),
                  static_cast<double>(hits) / src.rows(), ms);
    }
    std::printf(
        "Observation: the bit count is a recall/candidate-set dial — few\n"
        "bits keep Hits@1 near the exact search while already pruning\n"
        "candidates; many bits prune aggressively and lose recall. At this\n"
        "benchmark's tiny scale the wall-clock win is modest; the pruning\n"
        "ratio is what transfers to the paper's very-large-KG setting.\n");
  }
  return bench::Finish(args);
}
