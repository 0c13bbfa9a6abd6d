// Reproduces Figure 11: entity-alignment Hits@1 of the "unexplored" KG
// embedding models (TransH/R/D, HolE, SimplE, RotatE, ProjE, ConvE) on the
// MTransE chassis across all V1 dataset families, against the MTransE
// baseline.

#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "src/common/table_printer.h"
#include "src/core/registry.h"

int main(int argc, char** argv) {
  using namespace openea;
  const auto args = bench::ParseArgs("unexplored_models", argc, argv, 1, 150);
  bench::BeginRun(args);
  const core::TrainConfig config = bench::MakeTrainConfig(args);

  const char* kModels[] = {"MTransE",        "MTransE-TransH",
                           "MTransE-TransR", "MTransE-TransD",
                           "MTransE-HolE",   "MTransE-SimplE",
                           "MTransE-RotatE", "MTransE-DistMult",
                           "MTransE-ProjE",  "MTransE-ConvE"};

  const auto datasets =
      core::BuildBenchmarkSuite(args.scale, /*include_v2=*/false, args.seed);
  std::printf("== Figure 11: unexplored KG embedding models, Hits@1 ==\n");
  TablePrinter table({"Model", "EN-FR", "EN-DE", "D-W", "D-Y"});
  for (const char* name : kModels) {
    std::vector<std::string> row = {name};
    for (const auto& dataset : datasets) {
      const auto result =
          core::RunCrossValidation(name, dataset, config, args.folds,
                                   args.checkpoint);
      row.push_back(FormatDouble(result.hits1.mean, 3));
      std::fflush(stdout);
    }
    table.AddRow(row);
  }
  table.Print(std::cout);

  std::printf(
      "Shape check (paper Fig. 11 / Sect. 6.2): TransH and TransD are\n"
      "stable improvements over positive-only MTransE (negative sampling +\n"
      "multi-mapping handling); TransR and HolE collapse (TransR needs\n"
      "relation alignment) — confirming the paper's conclusion that not\n"
      "all link-prediction models suit entity alignment. Known deviation:\n"
      "in this reproduction RotatE/SimplE also collapse under the linear\n"
      "transformation chassis (their multiplicative/rotational geometry\n"
      "does not survive a least-squares map at our scale), whereas the\n"
      "paper's RotatE was the best semantic-matching model.\n");
  return bench::Finish(args);
}
