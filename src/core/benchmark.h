#ifndef OPENEA_CORE_BENCHMARK_H_
#define OPENEA_CORE_BENCHMARK_H_

#include <string>
#include <vector>

#include "src/common/health.h"
#include "src/core/approach.h"
#include "src/core/task.h"
#include "src/datagen/kg_pair.h"
#include "src/eval/folds.h"
#include "src/eval/metrics.h"

namespace openea::core {

/// Scale preset for the benchmark datasets. The paper's 15K / 100K scales
/// map to proportionally smaller CPU-friendly sizes (DESIGN.md, "Scaled
/// protocol"); relative comparisons are preserved.
struct ScalePreset {
  std::string label;        // e.g. "15K-scale".
  size_t source_entities;   // Synthetic source KG size fed to IDS.
  size_t sample_entities;   // IDS target size.
  double ids_mu;

  static ScalePreset Small();  // The 15K analogue.
  static ScalePreset Large();  // The 100K analogue.
};

/// One benchmark dataset: a sampled pair plus its provenance.
struct BenchmarkDataset {
  std::string name;  // e.g. "EN-FR-15K-scale (V1)".
  datagen::DatasetPair pair;
};

/// Builds one dataset family member: generates the synthetic source pair
/// for `profile`, densifies it for V2 (paper Sect. 3.2), and samples with
/// IDS.
BenchmarkDataset BuildBenchmarkDataset(
    const datagen::HeterogeneityProfile& profile, const ScalePreset& scale,
    bool dense_v2, uint64_t seed);

/// All four dataset families (EN-FR, EN-DE, D-W, D-Y) at one scale;
/// `include_v2` adds the dense variants.
std::vector<BenchmarkDataset> BuildBenchmarkSuite(const ScalePreset& scale,
                                                  bool include_v2,
                                                  uint64_t seed);

/// Builds the AlignmentTask for one fold of a dataset.
AlignmentTask MakeTask(const datagen::DatasetPair& pair,
                       const eval::FoldSplit& fold);

/// Wall time of one cross-validation phase aggregated over folds, fed by
/// the telemetry trace spans RunCrossValidation opens around each phase.
struct PhaseSeconds {
  std::string phase;  // "fold_split", "train", "eval".
  double total_seconds = 0.0;
  int count = 0;  // Number of spans aggregated (folds, or 1 for the split).
};

/// Fault-tolerance configuration of a cross-validation run (DESIGN.md,
/// "Fault tolerance"): crash-safe fold checkpoints plus the numerical-health
/// retry policy.
struct CheckpointConfig {
  /// Directory for fold checkpoints; empty disables checkpointing. Created
  /// on first write.
  std::string directory;
  /// Load an existing checkpoint and skip its completed folds. A missing,
  /// damaged, or configuration-mismatched checkpoint is ignored (with a
  /// warning) and the run recomputes from scratch.
  bool resume = false;
  /// Health-guard policy: a fold whose training diverges or goes non-finite
  /// (under the default health::GuardConfig) is retried from the fold's
  /// initial state with the learning rate halved, at most `max_retries`
  /// times; a fold that stays unhealthy is marked degraded instead of
  /// aborting the suite.
  int max_retries = 2;

  /// Out-of-core eval (DESIGN.md, "Out-of-core scale"): when non-empty,
  /// each fold's ranking evaluation streams its candidate rows through a
  /// shard-banked table under this directory
  /// (`<approach>_<dataset>_fold<N>.shard`) and ranks it bank by bank
  /// instead of holding the test sub-matrix in RAM. The results are
  /// bit-identical to the in-RAM path at any thread count, so this knob is
  /// deliberately excluded from the resume fingerprint — a run may toggle
  /// it between kill and resume without invalidating its checkpoint. Fold
  /// shard files are left in place: they are serve-loadable artifacts
  /// (align-serve --checkpoint accepts them directly). Independent of
  /// `directory`; either can be set without the other. The files use
  /// EvaluateRankingSharded's default bank size and residency budget.
  std::string shard_dir;

  bool enabled() const { return !directory.empty(); }
  bool sharded_eval() const { return !shard_dir.empty(); }
};

/// Health record of one cross-validation fold.
struct FoldHealth {
  int fold = 0;
  int retries = 0;        // Health-guard retries consumed by this fold.
  bool degraded = false;  // Unhealthy after every retry; excluded from means.
  bool resumed = false;   // Restored from a checkpoint, not recomputed.
  health::Verdict verdict = health::Verdict::kHealthy;  // Final attempt's.
};

/// Aggregated cross-validation result of one approach on one dataset
/// (means and standard deviations over folds, as in Table 5).
struct CrossValidationResult {
  std::string approach;
  std::string dataset;
  /// Aggregated over healthy folds only — degraded folds never poison the
  /// reported means (they are listed in `fold_health` and in the telemetry
  /// "faults" annotation instead).
  eval::MeanStd hits1, hits5, mr, mrr;
  /// Abstention-aware metrics (robustness workload). Populated — and
  /// `has_abstention` set — only when the dataset carries dangling entities
  /// or corrupted seeds; ranking metrics above always score the clean
  /// matchable test pairs only. The threshold is
  /// TrainConfig::abstention_threshold.
  bool has_abstention = false;
  eval::MeanStd abstention_precision, abstention_recall, abstention_f1;
  eval::MeanStd abstention_dangling_recall;
  double mean_seconds = 0.0;
  /// Per-phase wall time across the folds (always populated, independent of
  /// whether a telemetry sink is attached).
  std::vector<PhaseSeconds> phase_seconds;
  /// Semi-supervised traces of the first fold (Figure 7).
  std::vector<IterationStat> trace;
  /// First-fold artifacts for the geometric analyses.
  AlignmentModel first_fold_model;
  kg::Alignment first_fold_test;
  /// One record per fold, in fold order.
  std::vector<FoldHealth> fold_health;

  int DegradedFolds() const {
    int n = 0;
    for (const FoldHealth& h : fold_health) n += h.degraded ? 1 : 0;
    return n;
  }
};

/// Trains and evaluates the named approach over `num_folds` folds of
/// `dataset` (paper protocol: train 20% / valid 10% / test 70%).
/// `checkpoint` sets the fold checkpoints, the health-guard retry policy and
/// the out-of-core eval; the default writes no checkpoint and evaluates in
/// RAM.
///
/// Determinism: the result depends only on the arguments. It is bit-identical
/// at any `config.threads`, and a run killed at any point and resumed from
/// its checkpoint directory, at the same or any other thread count, produces
/// the same metrics, trace, and first-fold embeddings, bit for bit, as an
/// uninterrupted run.
///
/// Robustness: folds always split the *clean* reference. When the dataset
/// pair carries corrupted seeds (`noisy_reference`), the train and valid
/// splits are rewritten to the corrupted rights before training (counted
/// under `robust/corrupted_train_seeds`) while evaluation keeps the clean
/// truth; when it carries dangling entities or corruptions, each healthy
/// fold additionally runs the abstention-aware evaluation at
/// `TrainConfig::abstention_threshold` (aggregated into the
/// `abstention_*` fields, gauge `robust/last_abstention_f1_mean`).
CrossValidationResult RunCrossValidation(
    const std::string& approach_name, const BenchmarkDataset& dataset,
    const TrainConfig& config, int num_folds,
    const CheckpointConfig& checkpoint = {});

/// Loads the fold-0 alignment model (emb1 = source KG, emb2 = target KG
/// embeddings) out of a CV checkpoint written under `CheckpointConfig`.
/// This is the offline-train -> online-serve bridge: align-serve falls back
/// to it when a --checkpoint file is not a raw TrainState, so the files a
/// bench --checkpoint-dir leaves behind are directly servable. NotFound
/// when the file is absent; FailedPrecondition when it exists but predates
/// a completed fold 0 (nothing to serve yet) or is not a CV checkpoint.
StatusOr<AlignmentModel> LoadCvFoldModel(const std::string& path);

}  // namespace openea::core

#endif  // OPENEA_CORE_BENCHMARK_H_
