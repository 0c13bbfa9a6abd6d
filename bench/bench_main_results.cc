// Reproduces Table 5 (the main cross-validation comparison of the 12
// approaches on all dataset families, V1 and V2) and prints the Table 9
// required-information matrix from the approaches' declared requirements.

#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "src/common/table_printer.h"
#include "src/core/registry.h"

int main(int argc, char** argv) {
  using namespace openea;
  const auto args = bench::ParseArgs("main_results", argc, argv, /*default_folds=*/2,
                                     /*default_epochs=*/200);
  bench::BeginRun(args);
  const core::TrainConfig config = bench::MakeTrainConfig(args);

  // ---- Table 9 first (static metadata, instant) ------------------------------
  {
    std::printf("== Table 9: required information of the approaches ==\n");
    TablePrinter table({"Approach", "Rel. triples", "Att. triples",
                        "Pre-aligned ent.", "Pre-aligned prop.",
                        "Word emb."});
    auto cell = [](core::Requirement r) -> std::string {
      switch (r) {
        case core::Requirement::kMandatory: return "*";
        case core::Requirement::kOptional: return "o";
        case core::Requirement::kNotApplicable: return "";
      }
      return "";
    };
    for (const auto& name : args.approaches) {
      const auto approach = core::CreateApproachOrDie(name, config);
      const auto req = approach->requirements();
      table.AddRow({name, cell(req.relation_triples),
                    cell(req.attribute_triples),
                    cell(req.pre_aligned_entities),
                    cell(req.pre_aligned_properties),
                    cell(req.word_embeddings)});
    }
    table.Print(std::cout);
    std::printf("(* mandatory, o optional)\n\n");
  }

  // ---- Table 5 ----------------------------------------------------------------
  std::printf(
      "== Table 5: %d-fold cross-validation, %s datasets, %d epochs ==\n",
      args.folds, args.scale.label.c_str(), args.epochs);
  const auto datasets =
      core::BuildBenchmarkSuite(args.scale, /*include_v2=*/true, args.seed);

  for (const auto& dataset : datasets) {
    TablePrinter table({"Approach", "Hits@1", "Hits@5", "MRR", "sec/fold"});
    std::string best_name;
    double best_hits1 = -1.0;
    for (const auto& name : args.approaches) {
      const auto result =
          core::RunCrossValidation(name, dataset, config, args.folds,
                                   args.checkpoint);
      table.AddRow({name, bench::Cell(result.hits1),
                    bench::Cell(result.hits5), bench::Cell(result.mrr),
                    FormatDouble(result.mean_seconds, 1)});
      if (result.hits1.mean > best_hits1) {
        best_hits1 = result.hits1.mean;
        best_name = name;
      }
      std::fflush(stdout);
    }
    std::printf("\n-- %s (best: %s, Hits@1 %.3f) --\n", dataset.name.c_str(),
                best_name.c_str(), best_hits1);
    table.Print(std::cout);
    std::fflush(stdout);
  }

  std::printf(
      "Shape check (paper Table 5): RDGCN, BootEA and MultiKE lead; KDCoE\n"
      "is close behind; purely relation-based approaches (MTransE, IPTransE,\n"
      "SEA, GCNAlign) trail; relation-based approaches improve on the dense\n"
      "V2 variants while literal-based leaders are less sensitive.\n");
  return bench::Finish(args);
}
