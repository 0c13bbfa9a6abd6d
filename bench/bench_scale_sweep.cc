// Out-of-core scale sweep (DESIGN.md, "Out-of-core scale"): runs the full
// pipeline — datagen -> train -> sharded eval -> shard-banked serve
// checkpoint -> align-serve load + probe — at a sweep of entity counts and
// records the wall-time and peak-RSS curves vs N. Eval streams each fold's
// candidate rows through a ShardedEmbeddingTable (bank-bounded memory,
// results bit-identical to the in-RAM path), and the target table the run
// leaves behind is the same file align-serve loads, so "serve-loadable
// checkpoint" is verified by actually serving from it.
//
// Flags are the shared set (bench_common.h); the sweep axis comes from
// --sizes=csv (e.g. --sizes=1000,15000,100000 for the paper-scale run;
// default: two sub-second sizes derived from the scale preset so the smoke
// and diff-gate runs stay fast). Deterministic gauges scale/hits1_<n> and
// scale/test_pairs_<n> are diff-gated; timing (scale/ms/*) and memory
// (mem/*) series are recorded for the curves but skipped by the gate.
//
// Memory contract: the whole sweep must stay under the laptop-class budget
// mem/scale_budget_mb (default 4096 MB) — the per-size peak lands in
// mem/scale_peak_rss_mb_<n> and the final within-budget verdict in
// mem/scale_within_budget.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/align/candidate_source.h"
#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/common/table_printer.h"
#include "src/core/benchmark.h"
#include "src/math/sharded_table.h"
#include "src/serve/server.h"

namespace {

/// Scale preset for an arbitrary entity count, interpolating the Small()
/// (500 -> mu 40) and Large() (1000 -> mu 80) presets: IDS samples `n`
/// entities out of a synthetic source KG 2.4x as large.
openea::core::ScalePreset PresetForSize(size_t n) {
  openea::core::ScalePreset preset;
  preset.label = std::to_string(n) + "-sweep";
  preset.sample_entities = n;
  preset.source_entities = (n * 12) / 5;
  preset.ids_mu = std::max(4.0, 0.08 * static_cast<double>(n));
  return preset;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace openea;
  const auto args = bench::ParseArgs("scale_sweep", argc, argv, /*folds=*/1,
                                     /*epochs=*/10);
  bench::BeginRun(args);

  // Default sweep: two fast sizes off the scale preset; the real curves come
  // from --sizes=1000,15000,100000 (see README, "Out-of-core scale sweep").
  const size_t base = args.scale.sample_entities;
  const std::vector<size_t> sizes =
      args.sizes.empty() ? std::vector<size_t>{base / 2, base} : args.sizes;
  const std::string approach = args.approaches.front();
  core::CheckpointConfig checkpoint = args.checkpoint;
  if (!checkpoint.sharded_eval()) checkpoint.shard_dir = "scale_sweep_shards";
  const std::string& shard_dir = checkpoint.shard_dir;
  constexpr double kBudgetMb = 4096.0;
  telemetry::SetGauge("mem/scale_budget_mb", kBudgetMb);

  std::printf("== Out-of-core scale sweep (%s, 1 fold, %d epochs) ==\n",
              approach.c_str(), args.epochs);
  TablePrinter table({"N", "test pairs", "hits@1", "train+eval s", "serve ms",
                      "peak RSS MB"});
  bool within_budget = true;
  double last_peak_mb = 0.0;
  for (const size_t n : sizes) {
    telemetry::ScopedSpan size_span("scale_size");
    Stopwatch total_watch;

    // Datagen: synthetic EN-FR pair sampled to n entities by IDS.
    Stopwatch phase_watch;
    const core::BenchmarkDataset dataset = core::BuildBenchmarkDataset(
        datagen::HeterogeneityProfile::EnFr(), PresetForSize(n),
        /*dense_v2=*/false, args.seed);
    const double datagen_ms = phase_watch.ElapsedMillis();

    // Train + sharded eval: the fold's ranking evaluation streams its
    // candidate rows through a shard-banked table under shard_dir instead of
    // holding the test sub-matrix in RAM.
    core::TrainConfig config = bench::MakeTrainConfig(args);
    phase_watch.Reset();
    const core::CrossValidationResult result = core::RunCrossValidation(
        approach, dataset, config, args.folds, checkpoint);
    const double cv_seconds = phase_watch.ElapsedSeconds();

    // Serve-loadable checkpoint: spill the trained target-KG table to a
    // shard-banked file, then prove it serves by loading it through
    // align-serve's own loader and answering a probe query out-of-core.
    phase_watch.Reset();
    const std::string ckpt_path =
        shard_dir + "/scale_" + std::to_string(n) + "_targets.shard";
    const math::Matrix& targets = result.first_fold_model.emb2;
    const Status written = math::WriteShardedTable(ckpt_path, targets);
    OPENEA_CHECK(written.ok()) << written.ToString();
    serve::ServeConfig serve_config;
    serve_config.checkpoint_path = ckpt_path;
    auto server = serve::AlignServer::Create(serve_config);
    OPENEA_CHECK(server.ok()) << server.status().ToString();
    OPENEA_CHECK_EQ((*server)->source().num_targets(), targets.rows());
    const size_t probe_rows =
        std::min<size_t>(4, result.first_fold_model.emb1.rows());
    math::Matrix probes(probe_rows, targets.cols());
    for (size_t i = 0; i < probe_rows; ++i) {
      const auto row = result.first_fold_model.emb1.Row(i);
      std::copy(row.begin(), row.end(), probes.Row(i).begin());
    }
    const align::TopKResult probed = (*server)->source().TopK(probes, 5);
    OPENEA_CHECK_EQ(probed.rows, probe_rows);
    const double serve_ms = phase_watch.ElapsedMillis();

    const double total_seconds = total_watch.ElapsedSeconds();
    const double peak_mb = telemetry::PeakRssMb();
    last_peak_mb = peak_mb;
    if (peak_mb > kBudgetMb) within_budget = false;

    const size_t test_pairs = result.first_fold_test.size();
    table.AddRow({std::to_string(n), std::to_string(test_pairs),
                  FormatDouble(result.hits1.mean, 3),
                  FormatDouble(cv_seconds, 2), FormatDouble(serve_ms, 1),
                  FormatDouble(peak_mb, 1)});
    const std::string suffix = std::to_string(n);
    // Deterministic under a pinned backend/seed/thread count — diff-gated.
    telemetry::SetGauge("scale/hits1_" + suffix, result.hits1.mean);
    telemetry::SetGauge("scale/test_pairs_" + suffix,
                        static_cast<double>(test_pairs));
    // Timing and memory curves — recorded, not gated.
    telemetry::SetGauge("scale/ms/datagen_" + suffix, datagen_ms);
    telemetry::SetGauge("scale/ms/cv_" + suffix, cv_seconds * 1000.0);
    telemetry::SetGauge("scale/ms/serve_" + suffix, serve_ms);
    telemetry::SetGauge("scale/ms/total_" + suffix, total_seconds * 1000.0);
    telemetry::SetGauge("mem/scale_peak_rss_mb_" + suffix, peak_mb);
    std::fflush(stdout);
  }
  table.Print(std::cout);
  telemetry::SetGauge("mem/scale_within_budget", within_budget ? 1.0 : 0.0);

  std::printf(
      "Shape check: eval streams candidate rows bank by bank and serving\n"
      "maps the shard-banked checkpoint on demand, so peak RSS should grow\n"
      "far slower than N (the out-of-core contract) and stay under the\n"
      "%.0f MB budget. Final peak RSS: %.1f MB (%s budget).\n",
      kBudgetMb, last_peak_mb, within_budget ? "within" : "OVER");
  return bench::Finish(args);
}
