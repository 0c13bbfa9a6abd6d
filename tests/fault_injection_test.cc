// End-to-end fault-injection scenarios (ctest label: fault_injection).
//
// The kill/resume tests spawn tests/cv_resume_driver.cc as a subprocess
// (the fault registry's kKill action `_exit`s the process, so it cannot run
// in the test binary itself), kill it at an armed checkpoint fault point,
// resume from the checkpoint directory, and require the result to be byte-
// identical to an uninterrupted run — at 1 thread, at 8 threads, and across
// a change of thread count between kill and resume. The
// NaN-recovery and torn-write scenarios run in-process against
// core::RunCrossValidation directly.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#ifdef __unix__
#include <sys/wait.h>
#endif

#include <gtest/gtest.h>

#include "src/common/fault.h"
#include "src/common/telemetry.h"
#include "src/core/benchmark.h"
#include "src/core/registry.h"
#include "src/datagen/kg_pair.h"

#ifndef OPENEA_CV_RESUME_DRIVER
#error "OPENEA_CV_RESUME_DRIVER must point at the cv_resume_driver binary"
#endif

namespace openea {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::DisarmAll();
    // Unique per test: ctest runs cases as concurrent processes, and a
    // shared directory would let one test's SetUp wipe another's files.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("openea_fault_injection_") + info->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    fault::DisarmAll();
    std::filesystem::remove_all(dir_);
  }
  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

/// Runs the driver with `args`; returns the process exit code (-1 when the
/// shell could not run it at all).
int RunDriver(const std::string& args) {
  const std::string command =
      std::string("\"") + OPENEA_CV_RESUME_DRIVER + "\" " + args;
  const int raw = std::system(command.c_str());
  if (raw == -1) return -1;
#ifdef WEXITSTATUS
  if (WIFEXITED(raw)) return WEXITSTATUS(raw);
  return -1;
#else
  return raw;
#endif
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

core::BenchmarkDataset TinyDataset() {
  return core::BuildBenchmarkDataset(
      datagen::HeterogeneityProfile::EnFr(),
      core::ScalePreset{"tiny", 500, 250, 25.0}, false, 5);
}

core::TrainConfig TinyConfig(int threads) {
  core::TrainConfig config;
  config.dim = 16;
  config.max_epochs = 10;
  config.seed = 7;
  config.threads = threads;
  return config;
}

/// The tentpole determinism claim: kill the run at the checkpoint fault
/// point after the second fold's checkpoint is durable, resume, and require
/// the exact bytes of an uninterrupted run.
void KillAndResumeBitIdentical(int threads) {
  const auto base = std::filesystem::temp_directory_path() /
                    ("openea_fault_injection_t" + std::to_string(threads));
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);
  const std::string ckpt_dir = (base / "ckpt").string();
  const std::string uninterrupted_out = (base / "uninterrupted.bin").string();
  const std::string resumed_out = (base / "resumed.bin").string();
  const std::string common = "--approach=MTransE --folds=3 --epochs=10 "
                             "--seed=7 --threads=" +
                             std::to_string(threads) + " ";

  // Reference: no checkpointing, no faults.
  ASSERT_EQ(RunDriver(common + "--out=" + uninterrupted_out), 0);

  // Victim: killed at "checkpoint/after_write" hit 2 — fold 0 and fold 1
  // checkpoints are durable, fold 2 never runs. _exit(86) skips every
  // destructor, simulating SIGKILL mid-run.
  ASSERT_EQ(RunDriver(common + "--checkpoint-dir=" + ckpt_dir +
                      " --fault=checkpoint/after_write:2:kill"),
            fault::kKillExitCode);

  // Resume: folds 0-1 restore from the checkpoint, fold 2 computes fresh.
  ASSERT_EQ(RunDriver(common + "--checkpoint-dir=" + ckpt_dir +
                      " --resume --out=" + resumed_out),
            0);

  const std::string uninterrupted = ReadAll(uninterrupted_out);
  const std::string resumed = ReadAll(resumed_out);
  ASSERT_FALSE(uninterrupted.empty());
  EXPECT_EQ(uninterrupted, resumed)
      << "killed-and-resumed run diverged from the uninterrupted run at "
      << threads << " thread(s)";
  std::filesystem::remove_all(base);
}

TEST_F(FaultInjectionTest, KillAndResumeBitIdenticalSingleThread) {
  KillAndResumeBitIdentical(1);
}

TEST_F(FaultInjectionTest, KillAndResumeBitIdenticalEightThreads) {
  KillAndResumeBitIdentical(8);
}

/// Results do not depend on the thread count, so neither does a checkpoint:
/// a run killed at 8 threads after fold 1's checkpoint and resumed at 1
/// thread restores folds 0-1 and gives the bytes of an uninterrupted run at
/// 2 threads. BootEA draws pair and calibration negatives, so a thread-
/// dependent stream would show in the bytes.
TEST_F(FaultInjectionTest, KillAtEightThreadsResumeAtOneMatchesTwoThreads) {
  const std::string ckpt_dir = Path("ckpt");
  const std::string uninterrupted_out = Path("uninterrupted.bin");
  const std::string resumed_out = Path("resumed.bin");
  const std::string common =
      "--approach=BootEA --folds=3 --epochs=10 --seed=7 ";

  ASSERT_EQ(RunDriver(common + "--threads=2 --out=" + uninterrupted_out), 0);
  ASSERT_EQ(RunDriver(common + "--threads=8 --checkpoint-dir=" + ckpt_dir +
                      " --fault=checkpoint/after_write:2:kill"),
            fault::kKillExitCode);
  // Armed again on the resume: only fold 2 may write a checkpoint, so a
  // resume that recomputed folds 0-1 would be killed at its second write.
  ASSERT_EQ(RunDriver(common + "--threads=1 --checkpoint-dir=" + ckpt_dir +
                      " --resume --fault=checkpoint/after_write:2:kill" +
                      " --out=" + resumed_out),
            0)
      << "the resume at 1 thread recomputed checkpointed folds";

  const std::string uninterrupted = ReadAll(uninterrupted_out);
  ASSERT_FALSE(uninterrupted.empty());
  EXPECT_EQ(uninterrupted, ReadAll(resumed_out))
      << "resumed at 1 thread, diverged from the uninterrupted 2-thread run";
}

/// Out-of-core variant of the tentpole claim, with a deliberately stronger
/// reference: the uninterrupted run is the plain *in-RAM* eval path, while
/// the killed-and-resumed run evaluates through shard-banked tables
/// (--shard-dir). Byte equality therefore pins two contracts at once —
/// sharded eval is bit-identical to in-RAM eval, and a kill between a
/// fold's shard write and its checkpoint write resumes losslessly.
void ShardedKillAndResumeMatchesInRamReference(int threads) {
  const auto base = std::filesystem::temp_directory_path() /
                    ("openea_fault_injection_shard_t" + std::to_string(threads));
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);
  const std::string ckpt_dir = (base / "ckpt").string();
  const std::string shard_dir = (base / "shards").string();
  const std::string reference_out = (base / "in_ram.bin").string();
  const std::string resumed_out = (base / "resumed.bin").string();
  const std::string common = "--approach=MTransE --folds=3 --epochs=10 "
                             "--seed=7 --threads=" +
                             std::to_string(threads) + " ";

  // Reference: uninterrupted, in-RAM eval, no checkpointing.
  ASSERT_EQ(RunDriver(common + "--out=" + reference_out), 0);

  // Victim: sharded eval, killed at "shard/after_write" hit 2 — fold 1's
  // eval shard is durable on disk but its fold checkpoint is not yet
  // written, the mid-shard crash window. _exit(86) skips every destructor.
  ASSERT_EQ(RunDriver(common + "--checkpoint-dir=" + ckpt_dir +
                      " --shard-dir=" + shard_dir +
                      " --fault=shard/after_write:2:kill"),
            fault::kKillExitCode);

  // Resume, still sharded: fold 0 restores from its checkpoint, folds 1-2
  // recompute (overwriting fold 1's orphaned shard file).
  ASSERT_EQ(RunDriver(common + "--checkpoint-dir=" + ckpt_dir +
                      " --shard-dir=" + shard_dir + " --resume --out=" +
                      resumed_out),
            0);

  const std::string reference = ReadAll(reference_out);
  const std::string resumed = ReadAll(resumed_out);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(reference, resumed)
      << "sharded killed-and-resumed run diverged from the in-RAM "
      << "uninterrupted run at " << threads << " thread(s)";
  std::filesystem::remove_all(base);
}

TEST_F(FaultInjectionTest, ShardedKillAndResumeBitIdenticalSingleThread) {
  ShardedKillAndResumeMatchesInRamReference(1);
}

TEST_F(FaultInjectionTest, ShardedKillAndResumeBitIdenticalEightThreads) {
  ShardedKillAndResumeMatchesInRamReference(8);
}

TEST_F(FaultInjectionTest, KillBeforeAnyCheckpointResumesFromScratch) {
  const std::string ckpt_dir = Path("ckpt_first");
  const std::string uninterrupted_out = Path("u.bin");
  const std::string resumed_out = Path("r.bin");
  const std::string common =
      "--approach=MTransE --folds=2 --epochs=6 --seed=11 --threads=1 ";
  ASSERT_EQ(RunDriver(common + "--out=" + uninterrupted_out), 0);
  // Killed at the very first checkpoint write: fold 0 is durable, nothing
  // else. (hit 1, not 2.)
  ASSERT_EQ(RunDriver(common + "--checkpoint-dir=" + ckpt_dir +
                      " --fault=checkpoint/after_write:1:kill"),
            fault::kKillExitCode);
  ASSERT_EQ(RunDriver(common + "--checkpoint-dir=" + ckpt_dir +
                      " --resume --out=" + resumed_out),
            0);
  EXPECT_EQ(ReadAll(uninterrupted_out), ReadAll(resumed_out));
}

TEST_F(FaultInjectionTest, TransientNaNRetriesAndRecovers) {
  // A single injected NaN epoch: the health guard retries the fold with a
  // backed-off learning rate, the retry is clean, and no fold is degraded.
  fault::Spec spec;
  spec.point = "train/epoch_loss";
  spec.hit = 1;
  fault::Arm(spec);

  const auto dataset = TinyDataset();
  core::CheckpointConfig checkpoint_config;  // No checkpointing; guards only.
  const auto result = core::RunCrossValidation("MTransE", dataset,
                                               TinyConfig(1), 1,
                                               checkpoint_config);
  ASSERT_EQ(result.fold_health.size(), 1u);
  EXPECT_EQ(result.fold_health[0].retries, 1);
  EXPECT_FALSE(result.fold_health[0].degraded);
  EXPECT_EQ(result.DegradedFolds(), 0);
  EXPECT_EQ(result.fold_health[0].verdict, health::Verdict::kHealthy);
  EXPECT_GT(result.hits1.mean, 0.0);
  EXPECT_EQ(fault::FiredCount("train/epoch_loss"), 1u);
}

TEST_F(FaultInjectionTest, PersistentNaNDegradesFoldInsteadOfCrashing) {
  telemetry::ResetForTesting();
  telemetry::SetCollectForTesting(true);
  // Every epoch's loss is poisoned: retries cannot help, the fold must be
  // marked degraded, excluded from the aggregates, and counted in the
  // fault/* telemetry — and the run must not crash or return NaN means.
  fault::Spec spec;
  spec.point = "train/epoch_loss";
  spec.hit = 1;
  spec.repeat = true;
  fault::Arm(spec);

  const auto dataset = TinyDataset();
  core::CheckpointConfig checkpoint_config;
  checkpoint_config.max_retries = 2;
  const auto result = core::RunCrossValidation("MTransE", dataset,
                                               TinyConfig(1), 1,
                                               checkpoint_config);
  ASSERT_EQ(result.fold_health.size(), 1u);
  EXPECT_TRUE(result.fold_health[0].degraded);
  EXPECT_EQ(result.fold_health[0].retries, 2);
  EXPECT_EQ(result.fold_health[0].verdict, health::Verdict::kNonFinite);
  EXPECT_EQ(result.DegradedFolds(), 1);
  // Degraded folds are excluded: the aggregate is the empty-set default,
  // never NaN.
  EXPECT_EQ(result.hits1.mean, 0.0);
  EXPECT_EQ(result.hits1.mean, result.hits1.mean);  // Not NaN.

  const auto metrics = telemetry::SnapshotMetrics();
  EXPECT_EQ(metrics.counters.at("fault/retries"), 2u);
  EXPECT_EQ(metrics.counters.at("fault/diverged_folds"), 1u);
  telemetry::SetCollectForTesting(false);
  telemetry::ResetForTesting();
}

TEST_F(FaultInjectionTest, TornCheckpointFallsBackToCleanRecompute) {
  const auto dataset = TinyDataset();
  const auto config = TinyConfig(1);
  core::CheckpointConfig checkpoint_config;
  checkpoint_config.directory = Path("ckpt_torn");

  // Run 1 writes a complete checkpoint.
  const auto reference =
      core::RunCrossValidation("MTransE", dataset, config, 2,
                               checkpoint_config);

  // Damage every checkpoint in the directory (simulates the torn write
  // that escaped the rename barrier).
  size_t damaged = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(checkpoint_config.directory)) {
    std::filesystem::resize_file(
        entry.path(), std::filesystem::file_size(entry.path()) / 2);
    ++damaged;
  }
  ASSERT_GT(damaged, 0u);

  // Resume over the damaged checkpoint: it must be ignored (not trusted,
  // not fatal) and the recomputed result must match the reference.
  checkpoint_config.resume = true;
  const auto recomputed =
      core::RunCrossValidation("MTransE", dataset, config, 2,
                               checkpoint_config);
  EXPECT_EQ(recomputed.hits1.mean, reference.hits1.mean);
  EXPECT_EQ(recomputed.mrr.mean, reference.mrr.mean);
  ASSERT_EQ(recomputed.fold_health.size(), 2u);
  EXPECT_FALSE(recomputed.fold_health[0].resumed);
  EXPECT_FALSE(recomputed.fold_health[1].resumed);
}

TEST_F(FaultInjectionTest, ConfigChangeInvalidatesCheckpoint) {
  const auto dataset = TinyDataset();
  core::CheckpointConfig checkpoint_config;
  checkpoint_config.directory = Path("ckpt_fp");
  const auto first = core::RunCrossValidation("MTransE", dataset,
                                              TinyConfig(1), 2,
                                              checkpoint_config);

  // Same checkpoint directory, different seed: the fingerprint must reject
  // the stale folds instead of splicing them into the new run.
  core::TrainConfig other = TinyConfig(1);
  other.seed = 1234;
  checkpoint_config.resume = true;
  const auto second = core::RunCrossValidation("MTransE", dataset, other, 2,
                                               checkpoint_config);
  ASSERT_EQ(second.fold_health.size(), 2u);
  EXPECT_FALSE(second.fold_health[0].resumed);
  EXPECT_FALSE(second.fold_health[1].resumed);
}

TEST_F(FaultInjectionTest, SeedCorruptFaultForcesCorruptionAtZeroRate) {
  // The datagen/seed_corrupt point is hit once per reference pair; arming
  // it through the --fault flag grammar forces corruption of the n-th pair
  // even at seed_noise_rate 0 — without perturbing the rng stream, so the
  // rest of the dataset is bit-identical to a clean run.
  datagen::SyntheticKgConfig source;
  source.num_entities = 200;
  source.seed = 3;
  datagen::HeterogeneityProfile profile;  // seed_noise_rate = 0.

  const datagen::DatasetPair clean =
      datagen::GenerateDatasetPair(source, profile, 3);
  ASSERT_TRUE(clean.corruptions.empty());

  ASSERT_TRUE(fault::ArmFromFlag("datagen/seed_corrupt:5:fail").ok());
  const datagen::DatasetPair forced =
      datagen::GenerateDatasetPair(source, profile, 3);
  EXPECT_EQ(fault::FiredCount("datagen/seed_corrupt"), 1u);
  EXPECT_EQ(fault::HitCount("datagen/seed_corrupt"),
            forced.reference.size());
  fault::DisarmAll();

  // Exactly the 5th pair is corrupted; everything else matches the clean
  // run (including the dangling bookkeeping and the rest of the alignment).
  ASSERT_EQ(forced.corruptions.size(), 1u);
  EXPECT_EQ(forced.corruptions[0].index, 4u);
  ASSERT_EQ(forced.reference.size(), clean.reference.size());
  for (size_t i = 0; i < forced.reference.size(); ++i) {
    EXPECT_EQ(forced.reference[i].left, clean.reference[i].left);
    EXPECT_EQ(forced.reference[i].right, clean.reference[i].right);
    if (i == 4) {
      EXPECT_NE(forced.noisy_reference[i].right, forced.reference[i].right);
    } else {
      EXPECT_EQ(forced.noisy_reference[i].right, clean.reference[i].right);
    }
  }
  EXPECT_EQ(forced.dangling1, clean.dangling1);
  EXPECT_EQ(forced.dangling2, clean.dangling2);
}

TEST_F(FaultInjectionTest, ResumeRestoresCompletedFoldsWithoutRecompute) {
  const auto dataset = TinyDataset();
  const auto config = TinyConfig(1);
  core::CheckpointConfig checkpoint_config;
  checkpoint_config.directory = Path("ckpt_resume");

  const auto reference =
      core::RunCrossValidation("MTransE", dataset, config, 2,
                               checkpoint_config);

  // Resume with everything already done: both folds restore, metrics and
  // first-fold artifacts are bit-identical.
  checkpoint_config.resume = true;
  const auto resumed =
      core::RunCrossValidation("MTransE", dataset, config, 2,
                               checkpoint_config);
  ASSERT_EQ(resumed.fold_health.size(), 2u);
  EXPECT_TRUE(resumed.fold_health[0].resumed);
  EXPECT_TRUE(resumed.fold_health[1].resumed);
  EXPECT_EQ(resumed.hits1.mean, reference.hits1.mean);
  EXPECT_EQ(resumed.hits1.std, reference.hits1.std);
  EXPECT_EQ(resumed.mrr.mean, reference.mrr.mean);
  ASSERT_EQ(resumed.first_fold_model.emb1.size(),
            reference.first_fold_model.emb1.size());
  EXPECT_TRUE(std::equal(resumed.first_fold_model.emb1.Data().begin(),
                         resumed.first_fold_model.emb1.Data().end(),
                         reference.first_fold_model.emb1.Data().begin()));
  EXPECT_EQ(resumed.first_fold_test.size(), reference.first_fold_test.size());
}

}  // namespace
}  // namespace openea
