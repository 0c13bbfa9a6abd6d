// Reproduces Table 8: LogMap, PARIS, BootEA, MultiKE and RDGCN when given
// only relation triples or only attribute triples, on EN-FR (V1).

#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "src/common/table_printer.h"
#include "src/conventional/conventional.h"
#include "src/core/registry.h"
#include "src/eval/metrics.h"

int main(int argc, char** argv) {
  using namespace openea;
  const auto args = bench::ParseArgs("feature_study", argc, argv, 1, 200);
  bench::BeginRun(args);

  const auto dataset = core::BuildBenchmarkDataset(
      datagen::HeterogeneityProfile::EnFr(), args.scale, false, args.seed);

  std::printf("== Table 8: feature study on %s ==\n", dataset.name.c_str());
  TablePrinter table({"System", "Setting", "Precision", "Recall", "F1"});

  conventional::ConventionalOptions base;
  base.translator = &dataset.pair.dictionary;
  for (const char* system : {"LogMap", "PARIS"}) {
    for (const bool relations_only : {true, false}) {
      conventional::ConventionalOptions options = base;
      options.use_attributes = !relations_only;
      options.use_relations = relations_only;
      const kg::Alignment found =
          std::string(system) == "LogMap"
              ? conventional::RunLogMap(dataset.pair.kg1, dataset.pair.kg2,
                                        options)
              : conventional::RunParis(dataset.pair.kg1, dataset.pair.kg2,
                                       options);
      const char* setting = relations_only ? "relations only"
                                           : "attributes only";
      if (found.empty()) {
        table.AddRow({system, setting, "-", "-", "-"});
      } else {
        const auto prf = eval::ComparePairs(found, dataset.pair.reference);
        table.AddRow({system, setting, FormatDouble(prf.precision, 3),
                      FormatDouble(prf.recall, 3),
                      FormatDouble(prf.f1, 3)});
      }
    }
  }

  for (const char* system : {"BootEA", "MultiKE", "RDGCN"}) {
    for (const bool relations_only : {true, false}) {
      core::TrainConfig config = bench::MakeTrainConfig(args);
      config.use_relations = relations_only;
      config.use_attributes = !relations_only;
      const auto result =
          core::RunCrossValidation(system, dataset, config, 1, args.checkpoint);
      table.AddRow({system,
                    relations_only ? "relations only" : "attributes only",
                    bench::Cell(result.hits1), bench::Cell(result.hits1),
                    bench::Cell(result.hits1)});
      std::fflush(stdout);
    }
  }
  table.Print(std::cout);

  std::printf(
      "Shape check (paper Table 8): the conventional systems cannot run\n"
      "from relation triples alone but stay strong on attributes alone;\n"
      "BootEA is unaffected by dropping attributes (it never uses them);\n"
      "MultiKE and RDGCN lose much of their lead without literals but can\n"
      "still learn from relations.\n");
  return bench::Finish(args);
}
