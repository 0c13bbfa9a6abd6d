// Reproduces Figure 8: average running time of each approach on the V1
// datasets (log-scale bar chart rendered as text). With --threads=N it also
// reports the serial-vs-parallel speedup of the compute-core kernels (Gemm,
// SimilarityMatrix) so the running-time study doubles as the scaling check
// for the parallel substrate.

#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "src/align/similarity.h"
#include "src/common/parallel.h"
#include "src/common/stopwatch.h"
#include "src/common/table_printer.h"
#include "src/core/registry.h"
#include "src/math/matrix.h"

namespace {

using namespace openea;

/// Median-of-repeats wall time of `fn` in seconds.
template <typename Fn>
double TimeIt(Fn&& fn, int repeats = 3) {
  double best = 1e30;
  for (int r = 0; r < repeats; ++r) {
    Stopwatch watch;
    fn();
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best;
}

/// Serial-vs-parallel wall time of the two dominant kernels at `threads`.
void PrintKernelSpeedup(int threads) {
  Rng rng(7);
  math::Matrix a(256, 256), b(256, 256), c;
  a.FillUniform(rng, 1.0f);
  b.FillUniform(rng, 1.0f);
  math::Matrix emb1(800, 64), emb2(800, 64);
  emb1.FillUniform(rng, 1.0f);
  emb2.FillUniform(rng, 1.0f);

  auto gemm = [&] { Gemm(a, b, c); };
  auto sim = [&] {
    auto s = align::SimilarityMatrix(emb1, emb2,
                                     align::DistanceMetric::kCosine);
    (void)s;
  };

  SetThreads(1);
  const double gemm_serial = TimeIt(gemm);
  const double sim_serial = TimeIt(sim);
  SetThreads(threads);
  const double gemm_par = TimeIt(gemm);
  const double sim_par = TimeIt(sim);

  std::printf("== Compute-core kernel speedup (%d thread%s) ==\n", threads,
              threads == 1 ? "" : "s");
  TablePrinter table({"Kernel", "Serial ms", "Parallel ms", "Speedup"});
  table.AddRow({"Gemm 256x256x256", FormatDouble(gemm_serial * 1e3, 2),
                FormatDouble(gemm_par * 1e3, 2),
                FormatDouble(gemm_serial / gemm_par, 2) + "x"});
  table.AddRow({"SimilarityMatrix 800x800 (d=64)",
                FormatDouble(sim_serial * 1e3, 2),
                FormatDouble(sim_par * 1e3, 2),
                FormatDouble(sim_serial / sim_par, 2) + "x"});
  table.Print(std::cout);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace openea;
  const auto args = bench::ParseArgs("running_time", argc, argv, 1, 150);
  bench::BeginRun(args);
  const core::TrainConfig config = bench::MakeTrainConfig(args);

  PrintKernelSpeedup(args.threads);

  const auto datasets =
      core::BuildBenchmarkSuite(args.scale, /*include_v2=*/false, args.seed);

  std::printf("== Figure 8: running time on the V1 datasets (%s) ==\n",
              args.scale.label.c_str());
  TablePrinter table({"Approach", "Mean sec", "Log bar"});
  for (const auto& name : args.approaches) {
    double total = 0.0;
    for (const auto& dataset : datasets) {
      total += core::RunCrossValidation(name, dataset, config, 1,
                                        args.checkpoint)
                   .mean_seconds;
    }
    const double mean = total / static_cast<double>(datasets.size());
    const int bars =
        static_cast<int>(10.0 * std::log10(std::max(mean, 0.01) * 100.0));
    table.AddRow({name, FormatDouble(mean, 2),
                  std::string(static_cast<size_t>(std::max(bars, 1)), '#')});
    std::fflush(stdout);
  }
  table.Print(std::cout);

  std::printf(
      "Shape check (paper Fig. 8): BootEA is the slowest (truncated\n"
      "sampling + bootstrapping); RSN4EA is also slow (path training);\n"
      "KDCoE/AttrE pay for literal encoding; MTransE and GCNAlign are the\n"
      "cheapest.\n");
  return bench::Finish(args);
}
