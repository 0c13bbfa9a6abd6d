// Reproduces Table 7: precision / recall / F1 of LogMap, PARIS, and the
// best embedding-based approach on every dataset family (V1 and V2).

#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "src/common/table_printer.h"
#include "src/conventional/conventional.h"
#include "src/core/registry.h"
#include "src/eval/metrics.h"

int main(int argc, char** argv) {
  using namespace openea;
  const auto args = bench::ParseArgs("conventional_comparison", argc, argv, 1, 200);
  bench::BeginRun(args);
  const core::TrainConfig config = bench::MakeTrainConfig(args);

  // The paper compares against the best OpenEA approach per dataset; we
  // use the overall leaders (RDGCN / BootEA / MultiKE) and report the best.
  const char* kCandidates[] = {"RDGCN", "BootEA", "MultiKE"};

  std::printf("== Table 7: conventional vs. embedding-based (%s) ==\n",
              args.scale.label.c_str());
  TablePrinter table({"Dataset", "System", "Precision", "Recall", "F1"});
  for (const auto& dataset :
       core::BuildBenchmarkSuite(args.scale, /*include_v2=*/true,
                                 args.seed)) {
    conventional::ConventionalOptions conv;
    conv.translator = dataset.pair.dictionary.size() > 0
                          ? &dataset.pair.dictionary
                          : nullptr;
    const auto report = [&](const char* system, const kg::Alignment& found) {
      const auto prf = eval::ComparePairs(found, dataset.pair.reference);
      table.AddRow({dataset.name, system, FormatDouble(prf.precision, 3),
                    FormatDouble(prf.recall, 3), FormatDouble(prf.f1, 3)});
    };
    report("LogMap",
           conventional::RunLogMap(dataset.pair.kg1, dataset.pair.kg2, conv));
    report("PARIS",
           conventional::RunParis(dataset.pair.kg1, dataset.pair.kg2, conv));

    // Best embedding approach: Hits@1 equals P = R = F1 in the 1-to-1 test
    // protocol (paper Sect. 6.3).
    double best = -1.0;
    std::string best_name;
    for (const char* name : kCandidates) {
      const auto result =
          core::RunCrossValidation(name, dataset, config, 1, args.checkpoint);
      if (result.hits1.mean > best) {
        best = result.hits1.mean;
        best_name = name;
      }
      std::fflush(stdout);
    }
    table.AddRow({dataset.name, "OpenEA (" + best_name + ")",
                  FormatDouble(best, 3), FormatDouble(best, 3),
                  FormatDouble(best, 3)});
    table.AddSeparator();
  }
  table.Print(std::cout);

  std::printf(
      "Shape check (paper Table 7): PARIS is the strongest system overall;\n"
      "LogMap is competitive except on D-W, where Wikidata's opaque local\n"
      "names starve its lexical index; the best embedding approach shows no\n"
      "superiority over the conventional systems.\n");
  return bench::Finish(args);
}
