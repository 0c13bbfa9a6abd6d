#include "src/core/benchmark.h"

#include <cmath>
#include <cstring>
#include <filesystem>
#include <unordered_map>

#include "src/common/checkpoint.h"
#include "src/common/fault.h"
#include "src/common/health.h"
#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/common/stopwatch.h"
#include "src/common/telemetry.h"
#include "src/common/trace.h"
#include "src/core/registry.h"
#include "src/sampling/samplers.h"

namespace openea::core {

ScalePreset ScalePreset::Small() {
  return {"15K-scale", /*source_entities=*/1200, /*sample_entities=*/500,
          /*ids_mu=*/40.0};
}

ScalePreset ScalePreset::Large() {
  return {"100K-scale", /*source_entities=*/2400, /*sample_entities=*/1000,
          /*ids_mu=*/80.0};
}

BenchmarkDataset BuildBenchmarkDataset(
    const datagen::HeterogeneityProfile& profile, const ScalePreset& scale,
    bool dense_v2, uint64_t seed) {
  datagen::SyntheticKgConfig config;
  config.num_entities = scale.source_entities;
  config.avg_degree = 5.8;
  config.num_relations = 30;
  config.num_attributes = 18;
  config.vocabulary_size = 400;
  config.seed = seed;
  if (dense_v2) {
    // V2 targets twice the V1 density (paper Sect. 3.2). At paper scale the
    // density comes purely from deleting low-degree entities in a huge
    // source; our sources are small, so most of the density comes from a
    // denser generator and the paper's low-degree deletion supplies the
    // rest without exhausting the entity pool.
    config.num_entities = scale.source_entities * 2;
    config.avg_degree *= 1.6;
  }
  datagen::DatasetPair source;
  {
    telemetry::ScopedSpan span("datagen");
    source = GenerateDatasetPair(config, profile, seed);
    if (dense_v2) {
      source = sampling::DensifyPair(source, 1.25, seed ^ 0xD2);
    }
  }
  sampling::IdsOptions ids;
  ids.target_size = scale.sample_entities;
  ids.mu = scale.ids_mu;
  ids.seed = seed ^ 0x1D5;
  BenchmarkDataset out;
  {
    telemetry::ScopedSpan span("ids");
    out.pair = sampling::IterativeDegreeSampling(source, ids);
    telemetry::IncrCounter("datagen/datasets");
    telemetry::IncrCounter("datagen/sampled_entities",
                           out.pair.kg1.NumEntities());
  }
  out.pair.name = profile.name;
  out.name = profile.name + "-" + scale.label + (dense_v2 ? " (V2)" : " (V1)");
  return out;
}

std::vector<BenchmarkDataset> BuildBenchmarkSuite(const ScalePreset& scale,
                                                  bool include_v2,
                                                  uint64_t seed) {
  std::vector<BenchmarkDataset> out;
  const datagen::HeterogeneityProfile profiles[] = {
      datagen::HeterogeneityProfile::EnFr(),
      datagen::HeterogeneityProfile::EnDe(),
      datagen::HeterogeneityProfile::DbpWd(),
      datagen::HeterogeneityProfile::DbpYg(),
  };
  for (const auto& profile : profiles) {
    out.push_back(BuildBenchmarkDataset(profile, scale, false, seed));
    if (include_v2) {
      out.push_back(BuildBenchmarkDataset(profile, scale, true, seed));
    }
  }
  return out;
}

AlignmentTask MakeTask(const datagen::DatasetPair& pair,
                       const eval::FoldSplit& fold) {
  AlignmentTask task;
  task.kg1 = &pair.kg1;
  task.kg2 = &pair.kg2;
  task.train = fold.train;
  task.valid = fold.valid;
  task.test = fold.test;
  task.dictionary = pair.dictionary.size() > 0 ? &pair.dictionary : nullptr;
  return task;
}

namespace {

/// Version of the fold-granular CV checkpoint payload below. v2 added the
/// abstention-aware metrics of the robustness workload.
constexpr uint32_t kCvCheckpointVersion = 2;

/// One completed fold as persisted in (and restored from) a CV checkpoint.
struct FoldRecord {
  eval::RankingMetrics metrics;
  /// Abstention metrics at TrainConfig::abstention_threshold; all-zero when
  /// the dataset has no robustness surface (no dangling, no corruptions).
  eval::AbstentionMetrics abstention;
  double train_seconds = 0.0;
  double eval_seconds = 0.0;
  FoldHealth health;
};

/// Fingerprint of everything the per-fold computation depends on. A resumed
/// run with a different configuration must not splice foreign fold results
/// into its aggregates, so the checkpoint is ignored unless this matches.
/// `config.threads` is left out: results are bit-identical at any thread
/// count, so a run may resume at a different one.
uint64_t ConfigFingerprint(const std::string& approach_name,
                           const BenchmarkDataset& dataset,
                           const TrainConfig& config, int num_folds) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a.
  auto mix_bytes = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  auto mix_string = [&](const std::string& s) { mix_bytes(s.data(), s.size()); };
  auto mix_u64 = [&](uint64_t v) { mix_bytes(&v, sizeof(v)); };
  auto mix_f32 = [&](float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    mix_u64(bits);
  };
  mix_string(approach_name);
  mix_string(dataset.name);
  mix_u64(config.dim);
  mix_u64(static_cast<uint64_t>(config.max_epochs));
  mix_u64(static_cast<uint64_t>(config.eval_every));
  mix_f32(config.learning_rate);
  mix_f32(config.margin);
  mix_u64(static_cast<uint64_t>(config.negatives_per_positive));
  mix_u64(config.batch_size);
  mix_u64(config.seed);
  mix_u64(config.use_attributes ? 1 : 0);
  mix_u64(config.use_relations ? 1 : 0);
  mix_f32(config.abstention_threshold);
  mix_u64(static_cast<uint64_t>(num_folds));
  return h;
}

std::string SanitizeForFilename(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.';
    if (!keep) c = '_';
  }
  return out;
}

std::string CvCheckpointPath(const CheckpointConfig& ckpt,
                             const std::string& approach_name,
                             const BenchmarkDataset& dataset) {
  return ckpt.directory + "/" + SanitizeForFilename(approach_name) + "_" +
         SanitizeForFilename(dataset.name) + ".ckpt";
}

/// Mid-run CV state: completed fold records plus the first-fold artifacts
/// the result carries (model embeddings, semi-supervised trace, test split).
struct CvCheckpointState {
  uint64_t fingerprint = 0;
  std::vector<FoldRecord> folds;
  bool has_first_fold = false;
  AlignmentModel first_fold_model;
  kg::Alignment first_fold_test;
};

Status SaveCvCheckpoint(const std::string& path,
                        const CvCheckpointState& state) {
  checkpoint::BinaryWriter writer;
  writer.PutU64(state.fingerprint);
  writer.PutU64(state.folds.size());
  for (const FoldRecord& record : state.folds) {
    writer.PutDouble(record.metrics.hits1);
    writer.PutDouble(record.metrics.hits5);
    writer.PutDouble(record.metrics.mr);
    writer.PutDouble(record.metrics.mrr);
    writer.PutDouble(record.abstention.precision);
    writer.PutDouble(record.abstention.recall);
    writer.PutDouble(record.abstention.f1);
    writer.PutDouble(record.abstention.abstain_rate);
    writer.PutDouble(record.abstention.dangling_recall);
    writer.PutDouble(record.train_seconds);
    writer.PutDouble(record.eval_seconds);
    writer.PutI64(record.health.fold);
    writer.PutI64(record.health.retries);
    writer.PutBool(record.health.degraded);
    writer.PutU32(static_cast<uint32_t>(record.health.verdict));
  }
  writer.PutBool(state.has_first_fold);
  if (state.has_first_fold) {
    checkpoint::PutMatrix(writer, state.first_fold_model.emb1);
    checkpoint::PutMatrix(writer, state.first_fold_model.emb2);
    writer.PutU64(state.first_fold_model.semi_supervised_trace.size());
    for (const IterationStat& stat :
         state.first_fold_model.semi_supervised_trace) {
      writer.PutI64(stat.iteration);
      writer.PutDouble(stat.precision);
      writer.PutDouble(stat.recall);
      writer.PutDouble(stat.f1);
    }
    writer.PutU64(state.first_fold_test.size());
    for (const kg::AlignmentPair& pair : state.first_fold_test) {
      writer.PutI64(pair.left);
      writer.PutI64(pair.right);
    }
  }
  return checkpoint::WriteFileAtomic(path, writer.buffer(),
                                     kCvCheckpointVersion);
}

StatusOr<CvCheckpointState> LoadCvCheckpoint(const std::string& path) {
  StatusOr<std::string> payload =
      checkpoint::ReadFilePayload(path, kCvCheckpointVersion);
  if (!payload.ok()) return payload.status();
  checkpoint::BinaryReader reader(*payload);
  CvCheckpointState state;
  Status status = reader.ReadU64(&state.fingerprint);
  if (!status.ok()) return status;
  uint64_t num_folds = 0;
  status = reader.ReadU64(&num_folds);
  if (!status.ok()) return status;
  if (num_folds > 4096) {
    return Status::FailedPrecondition("implausible fold count in " + path);
  }
  state.folds.resize(static_cast<size_t>(num_folds));
  for (FoldRecord& record : state.folds) {
    int64_t fold = 0, retries = 0;
    uint32_t verdict = 0;
    if (!(status = reader.ReadDouble(&record.metrics.hits1)).ok()) return status;
    if (!(status = reader.ReadDouble(&record.metrics.hits5)).ok()) return status;
    if (!(status = reader.ReadDouble(&record.metrics.mr)).ok()) return status;
    if (!(status = reader.ReadDouble(&record.metrics.mrr)).ok()) return status;
    if (!(status = reader.ReadDouble(&record.abstention.precision)).ok()) return status;
    if (!(status = reader.ReadDouble(&record.abstention.recall)).ok()) return status;
    if (!(status = reader.ReadDouble(&record.abstention.f1)).ok()) return status;
    if (!(status = reader.ReadDouble(&record.abstention.abstain_rate)).ok()) return status;
    if (!(status = reader.ReadDouble(&record.abstention.dangling_recall)).ok()) return status;
    if (!(status = reader.ReadDouble(&record.train_seconds)).ok()) return status;
    if (!(status = reader.ReadDouble(&record.eval_seconds)).ok()) return status;
    if (!(status = reader.ReadI64(&fold)).ok()) return status;
    if (!(status = reader.ReadI64(&retries)).ok()) return status;
    if (!(status = reader.ReadBool(&record.health.degraded)).ok()) return status;
    if (!(status = reader.ReadU32(&verdict)).ok()) return status;
    if (verdict > static_cast<uint32_t>(health::Verdict::kNonFinite)) {
      return Status::FailedPrecondition("bad verdict in checkpoint " + path);
    }
    record.health.fold = static_cast<int>(fold);
    record.health.retries = static_cast<int>(retries);
    record.health.verdict = static_cast<health::Verdict>(verdict);
    record.health.resumed = true;
  }
  if (!(status = reader.ReadBool(&state.has_first_fold)).ok()) return status;
  if (state.has_first_fold) {
    status = checkpoint::ReadMatrix(reader, &state.first_fold_model.emb1);
    if (!status.ok()) return status;
    status = checkpoint::ReadMatrix(reader, &state.first_fold_model.emb2);
    if (!status.ok()) return status;
    uint64_t trace_size = 0;
    if (!(status = reader.ReadU64(&trace_size)).ok()) return status;
    if (trace_size > reader.remaining()) {
      return Status::FailedPrecondition("implausible trace size in " + path);
    }
    state.first_fold_model.semi_supervised_trace.resize(
        static_cast<size_t>(trace_size));
    for (IterationStat& stat : state.first_fold_model.semi_supervised_trace) {
      int64_t iteration = 0;
      if (!(status = reader.ReadI64(&iteration)).ok()) return status;
      stat.iteration = static_cast<int>(iteration);
      if (!(status = reader.ReadDouble(&stat.precision)).ok()) return status;
      if (!(status = reader.ReadDouble(&stat.recall)).ok()) return status;
      if (!(status = reader.ReadDouble(&stat.f1)).ok()) return status;
    }
    uint64_t test_size = 0;
    if (!(status = reader.ReadU64(&test_size)).ok()) return status;
    if (test_size > reader.remaining()) {
      return Status::FailedPrecondition("implausible test size in " + path);
    }
    state.first_fold_test.resize(static_cast<size_t>(test_size));
    for (kg::AlignmentPair& pair : state.first_fold_test) {
      int64_t left = 0, right = 0;
      if (!(status = reader.ReadI64(&left)).ok()) return status;
      if (!(status = reader.ReadI64(&right)).ok()) return status;
      pair.left = static_cast<kg::EntityId>(left);
      pair.right = static_cast<kg::EntityId>(right);
    }
  }
  if (!reader.AtEnd()) {
    return Status::FailedPrecondition("trailing bytes in checkpoint " + path);
  }
  return state;
}

}  // namespace

StatusOr<AlignmentModel> LoadCvFoldModel(const std::string& path) {
  StatusOr<CvCheckpointState> state = LoadCvCheckpoint(path);
  if (!state.ok()) return state.status();
  if (!state->has_first_fold) {
    return Status::FailedPrecondition(
        "CV checkpoint " + path + " has no completed fold 0 yet");
  }
  return std::move(state->first_fold_model);
}

CrossValidationResult RunCrossValidation(
    const std::string& approach_name, const BenchmarkDataset& dataset,
    const TrainConfig& config, int num_folds,
    const CheckpointConfig& checkpoint_config) {
  // Surface configuration errors before any data generation or training.
  const Status valid = config.Validate();
  OPENEA_CHECK(valid.ok()) << valid.ToString();

  CrossValidationResult result;
  result.approach = approach_name;
  result.dataset = dataset.name;
  SetThreads(config.threads);
  telemetry::ScopedSpan cv_span("cross_validation");

  PhaseSeconds split_phase{"fold_split", 0.0, 0};
  PhaseSeconds train_phase{"train", 0.0, 0};
  PhaseSeconds eval_phase{"eval", 0.0, 0};

  Stopwatch phase_watch;
  std::vector<eval::FoldSplit> folds;
  {
    telemetry::ScopedSpan span("fold_split");
    folds = eval::MakeFolds(dataset.pair.reference, 5, 0.1,
                            config.seed ^ 0xF01D);
  }
  split_phase.total_seconds = phase_watch.ElapsedSeconds();
  split_phase.count = 1;
  if (telemetry::Enabled()) {
    telemetry::SetGauge("mem/after_fold_split_peak_rss_mb",
                        telemetry::PeakRssMb());
  }
  OPENEA_CHECK_LE(static_cast<size_t>(num_folds), folds.size());

  if (checkpoint_config.sharded_eval()) {
    std::error_code ec;
    std::filesystem::create_directories(checkpoint_config.shard_dir, ec);
  }

  // ---- Checkpoint restore --------------------------------------------------
  const uint64_t fingerprint =
      ConfigFingerprint(approach_name, dataset, config, num_folds);
  std::string ckpt_path;
  CvCheckpointState state;
  state.fingerprint = fingerprint;
  if (checkpoint_config.enabled()) {
    std::error_code ec;
    std::filesystem::create_directories(checkpoint_config.directory, ec);
    ckpt_path = CvCheckpointPath(checkpoint_config, approach_name, dataset);
    if (checkpoint_config.resume) {
      StatusOr<CvCheckpointState> loaded = LoadCvCheckpoint(ckpt_path);
      if (loaded.ok()) {
        if (loaded->fingerprint == fingerprint) {
          state = std::move(loaded).value();
          if (state.folds.size() > static_cast<size_t>(num_folds)) {
            state.folds.resize(static_cast<size_t>(num_folds));
          }
          telemetry::IncrCounter("fault/resumed_folds", state.folds.size());
          OPENEA_LOG(kInfo) << "resuming " << approach_name << " on "
                            << dataset.name << " from " << ckpt_path << " ("
                            << state.folds.size() << " folds done)";
        } else {
          OPENEA_LOG(kWarning)
              << "ignoring checkpoint " << ckpt_path
              << ": configuration fingerprint mismatch (recomputing)";
          state = CvCheckpointState{};
          state.fingerprint = fingerprint;
        }
      } else if (loaded.status().code() != StatusCode::kNotFound) {
        telemetry::IncrCounter("fault/corrupt_checkpoints");
        OPENEA_LOG(kWarning) << "ignoring damaged checkpoint " << ckpt_path
                             << ": " << loaded.status().ToString();
      }
    }
  }

  // ---- Robustness surface --------------------------------------------------
  // Training sees the corrupted seed view (left -> wrong right) while
  // evaluation keeps the clean truth; abstention-aware evaluation runs when
  // the pair carries dangling entities or corrupted seeds.
  const datagen::DatasetPair& pair = dataset.pair;
  const bool robustness = !pair.corruptions.empty() ||
                          !pair.dangling1.empty() || !pair.dangling2.empty();
  std::unordered_map<kg::EntityId, kg::EntityId> noisy_right;
  if (!pair.corruptions.empty() &&
      pair.noisy_reference.size() == pair.reference.size()) {
    for (size_t i = 0; i < pair.reference.size(); ++i) {
      if (pair.noisy_reference[i].right != pair.reference[i].right) {
        noisy_right[pair.reference[i].left] = pair.noisy_reference[i].right;
      }
    }
  }

  // ---- Fold loop (restore, or compute with health-guarded retries) --------
  std::vector<double> hits1, hits5, mr, mrr;
  std::vector<double> abst_p, abst_r, abst_f1, abst_dangling;
  double total_seconds = 0.0;
  for (int f = 0; f < num_folds; ++f) {
    if (static_cast<size_t>(f) < state.folds.size()) {
      // Fold restored from the checkpoint: splice its record into the
      // aggregates without recomputing. Metrics are bit-exact because the
      // fold computation depends only on (config, fold split), both of
      // which the fingerprint pins.
      const FoldRecord& record = state.folds[static_cast<size_t>(f)];
      total_seconds += record.train_seconds;
      train_phase.total_seconds += record.train_seconds;
      ++train_phase.count;
      eval_phase.total_seconds += record.eval_seconds;
      ++eval_phase.count;
      if (!record.health.degraded) {
        hits1.push_back(record.metrics.hits1);
        hits5.push_back(record.metrics.hits5);
        mr.push_back(record.metrics.mr);
        mrr.push_back(record.metrics.mrr);
        if (robustness) {
          abst_p.push_back(record.abstention.precision);
          abst_r.push_back(record.abstention.recall);
          abst_f1.push_back(record.abstention.f1);
          abst_dangling.push_back(record.abstention.dangling_recall);
        }
      }
      result.fold_health.push_back(record.health);
      if (f == 0 && state.has_first_fold) {
        result.trace = state.first_fold_model.semi_supervised_trace;
        result.first_fold_model = state.first_fold_model;
        result.first_fold_test = state.first_fold_test;
      }
      continue;
    }

    telemetry::ScopedSpan fold_span("fold");
    // Fold id threads into every trace event of the fold (args.ctx) and
    // into the heartbeat gauge the live-metrics thread reports.
    trace::ScopedThreadContext fold_ctx("fold:" + std::to_string(f));
    telemetry::SetGauge("heartbeat/fold", static_cast<double>(f));
    trace::Instant("fold_begin");
    trace::Counter("cv/fold_index", f);
    AlignmentTask task = MakeTask(dataset.pair, folds[f]);
    if (!noisy_right.empty()) {
      // Substitute the corrupted rights into the supervision splits only;
      // task.test keeps the clean truth.
      uint64_t corrupted = 0;
      for (kg::Alignment* split : {&task.train, &task.valid}) {
        for (kg::AlignmentPair& p : *split) {
          const auto it = noisy_right.find(p.left);
          if (it != noisy_right.end()) {
            p.right = it->second;
            ++corrupted;
          }
        }
      }
      if (corrupted > 0) {
        telemetry::IncrCounter("robust/corrupted_train_seeds", corrupted);
      }
    }

    // Health-guarded training: retry from the fold's initial state with a
    // backed-off learning rate while the verdict stays unhealthy.
    FoldRecord record;
    record.health.fold = f;
    AlignmentModel model;
    TrainConfig attempt_config = config;
    health::Verdict verdict = health::Verdict::kHealthy;
    double fold_train_seconds = 0.0;
    for (int attempt = 0;; ++attempt) {
      auto made = CreateApproach(approach_name, attempt_config);
      OPENEA_CHECK(made.ok()) << made.status().ToString();
      auto approach = std::move(made).value();
      health::HealthMonitor monitor;
      {
        telemetry::ScopedSpan span("train");
        phase_watch.Reset();
        health::ScopedHealthMonitor scope(&monitor);
        model = approach->Train(task);
      }
      const double train_seconds = phase_watch.ElapsedSeconds();
      total_seconds += train_seconds;
      fold_train_seconds += train_seconds;
      train_phase.total_seconds += train_seconds;
      ++train_phase.count;
      // Post-training sweep: embeddings must be finite even when every
      // per-epoch loss looked plausible.
      monitor.ObserveTensor(model.emb1.Data());
      monitor.ObserveTensor(model.emb2.Data());
      verdict = monitor.worst();
      if (verdict == health::Verdict::kHealthy) break;
      if (attempt >= checkpoint_config.max_retries) {
        record.health.degraded = true;
        break;
      }
      record.health.retries = attempt + 1;
      attempt_config.learning_rate *= 0.5f;
      telemetry::IncrCounter("fault/retries");
      trace::Instant("fold_retry");
      OPENEA_LOG(kWarning) << approach_name << " on " << dataset.name
                           << " fold " << f << ": "
                           << health::VerdictName(verdict)
                           << ", retrying with learning rate "
                           << attempt_config.learning_rate;
    }
    record.health.verdict = verdict;
    if (telemetry::Enabled()) {
      telemetry::SetGauge("mem/after_train_peak_rss_mb",
                          telemetry::PeakRssMb());
    }

    if (record.health.degraded) {
      // Exhausted retries: exclude the fold from every aggregate and
      // annotate instead of aborting the suite (or, worse, silently
      // averaging NaNs into BENCH_*.json).
      telemetry::IncrCounter("fault/diverged_folds");
      if (telemetry::Enabled()) {
        telemetry::AppendContextEntry(
            "faults",
            json::Value(json::Value::Object{
                {"approach", json::Value(approach_name)},
                {"dataset", json::Value(dataset.name)},
                {"fold", json::Value(f)},
                {"verdict", json::Value(health::VerdictName(verdict))},
                {"retries", json::Value(record.health.retries)},
            }));
      }
      OPENEA_LOG(kError) << approach_name << " on " << dataset.name
                         << " fold " << f << " marked degraded ("
                         << health::VerdictName(verdict) << " after "
                         << record.health.retries
                         << " retries); excluded from aggregates";
    } else {
      telemetry::ScopedSpan span("eval");
      phase_watch.Reset();
      if (checkpoint_config.sharded_eval()) {
        // Out-of-core path: stream the fold's candidate rows through a
        // shard-banked table and rank bank by bank. Bit-identical to the
        // in-RAM branch below (same cell kernel, same accumulation), which
        // is why shard_dir stays out of ConfigFingerprint.
        const std::string shard_path =
            checkpoint_config.shard_dir + "/" +
            SanitizeForFilename(approach_name) + "_" +
            SanitizeForFilename(dataset.name) + "_fold" + std::to_string(f) +
            ".shard";
        record.metrics = eval::EvaluateRankingSharded(
            model, task.test, align::DistanceMetric::kCosine, shard_path);
      } else {
        record.metrics = eval::EvaluateRanking(
            model, task.test, align::DistanceMetric::kCosine);
      }
      if (robustness) {
        eval::AbstentionOptions abstention_options;
        abstention_options.threshold =
            static_cast<double>(config.abstention_threshold);
        record.abstention =
            eval::EvaluateAbstention(model, task.test, pair.dangling1,
                                     pair.dangling2, abstention_options);
        abst_p.push_back(record.abstention.precision);
        abst_r.push_back(record.abstention.recall);
        abst_f1.push_back(record.abstention.f1);
        abst_dangling.push_back(record.abstention.dangling_recall);
      }
      record.eval_seconds = phase_watch.ElapsedSeconds();
      eval_phase.total_seconds += record.eval_seconds;
      ++eval_phase.count;
      hits1.push_back(record.metrics.hits1);
      hits5.push_back(record.metrics.hits5);
      mr.push_back(record.metrics.mr);
      mrr.push_back(record.metrics.mrr);
    }
    if (telemetry::Enabled()) {
      telemetry::SetGauge("mem/after_eval_peak_rss_mb",
                          telemetry::PeakRssMb());
    }
    trace::Instant("fold_end");
    record.train_seconds = fold_train_seconds;
    if (f == 0) {
      result.trace = model.semi_supervised_trace;
      result.first_fold_model = std::move(model);
      result.first_fold_test = task.test;
      state.has_first_fold = true;
      state.first_fold_model = result.first_fold_model;
      state.first_fold_test = result.first_fold_test;
    }
    result.fold_health.push_back(record.health);
    state.folds.push_back(record);
    telemetry::IncrCounter("cv/folds");

    if (checkpoint_config.enabled()) {
      const Status saved = SaveCvCheckpoint(ckpt_path, state);
      if (!saved.ok()) {
        telemetry::IncrCounter("fault/checkpoint_write_failures");
        OPENEA_LOG(kWarning) << "checkpoint write failed (continuing): "
                             << saved.ToString();
      } else {
        telemetry::IncrCounter("fault/checkpoints_written");
      }
    }
  }
  result.hits1 = eval::Aggregate(hits1);
  result.hits5 = eval::Aggregate(hits5);
  result.mr = eval::Aggregate(mr);
  result.mrr = eval::Aggregate(mrr);
  if (robustness) {
    result.has_abstention = true;
    result.abstention_precision = eval::Aggregate(abst_p);
    result.abstention_recall = eval::Aggregate(abst_r);
    result.abstention_f1 = eval::Aggregate(abst_f1);
    result.abstention_dangling_recall = eval::Aggregate(abst_dangling);
    telemetry::SetGauge("robust/last_abstention_f1_mean",
                        result.abstention_f1.mean);
  }
  result.mean_seconds = total_seconds / std::max(num_folds, 1);
  result.phase_seconds = {split_phase, train_phase, eval_phase};
  telemetry::SetGauge("cv/last_hits1_mean", result.hits1.mean);
  if (telemetry::Enabled()) {
    telemetry::SetGauge("mem/peak_rss_mb", telemetry::PeakRssMb());
  }
  return result;
}

}  // namespace openea::core
