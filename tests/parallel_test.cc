// Tests for the parallel compute core: ParallelFor edge cases, the ordered
// reduction, shard RNG forking, and the determinism contract — similarity,
// ranking, training and whole cross-validation runs must be bit-identical
// at 1, 2, and 8 threads (DESIGN.md, "Compute core").

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

#include "src/align/similarity.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/common/telemetry.h"
#include "src/core/benchmark.h"
#include "src/datagen/kg_pair.h"
#include "src/embedding/triple_model.h"
#include "src/eval/metrics.h"
#include "src/interaction/trainer.h"
#include "src/math/embedding_table.h"
#include "src/math/matrix.h"

namespace openea {
namespace {

/// Restores the global thread count on scope exit; the gtest binary shares
/// one process, so tests must not leak their thread setting.
struct ThreadGuard {
  int saved = Threads();
  ~ThreadGuard() { SetThreads(saved); }
};

TEST(ParallelForTest, EmptyRangeNeverInvokesFn) {
  ThreadGuard guard;
  SetThreads(8);
  bool called = false;
  ParallelFor(5, 5, 1, [&](size_t, size_t) { called = true; });
  ParallelFor(7, 3, 1, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, GrainLargerThanRangeYieldsSingleChunk) {
  ThreadGuard guard;
  SetThreads(8);
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> calls;
  ParallelFor(3, 10, 100, [&](size_t lo, size_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    calls.emplace_back(lo, hi);
  });
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].first, 3u);
  EXPECT_EQ(calls[0].second, 10u);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadGuard guard;
  SetThreads(8);
  const size_t n = 10'000;
  std::vector<int> hits(n, 0);  // Chunks are disjoint: no data race.
  ParallelFor(0, n, 7, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ParallelForTest, AutoGrainYieldsAtLeastFourChunksPerWorker) {
  ThreadGuard guard;
  // Regression for the auto-grain heuristic: ceil division could leave
  // workers with ~3 chunks each (range 100 / 8 threads gave 25 chunks for
  // a 32-chunk target). The floor guarantees >= min(range, 4 * threads).
  for (const auto& [range, threads] : std::vector<std::pair<size_t, int>>{
           {100, 8}, {33, 8}, {1'000, 4}, {31, 8}, {4, 2}}) {
    SetThreads(threads);
    std::atomic<size_t> chunks{0};
    std::atomic<size_t> covered{0};
    ParallelFor(0, range, 0, [&](size_t lo, size_t hi) {
      ++chunks;
      covered += hi - lo;
    });
    const size_t want =
        std::min(range, static_cast<size_t>(threads) * 4);
    EXPECT_GE(chunks.load(), want) << "range " << range << " threads "
                                   << threads;
    EXPECT_EQ(covered.load(), range);
  }
}

TEST(ParallelForTest, AutoGrainJobObservesImbalanceGauge) {
  ThreadGuard guard;
  SetThreads(4);
  telemetry::ResetForTesting();
  telemetry::SetCollectForTesting(true);
  std::atomic<size_t> chunks{0};
  ParallelFor(0, 64, 0, [&](size_t lo, size_t hi) {
    ++chunks;
    volatile float sink = 0.0f;
    for (size_t i = lo; i < hi; ++i) sink = sink + static_cast<float>(i);
    (void)sink;
  });
  const telemetry::MetricsSnapshot snap = telemetry::SnapshotMetrics();
  telemetry::SetCollectForTesting(false);
  telemetry::ResetForTesting();
  ASSERT_EQ(snap.counters.count("parallel/chunks"), 1u);
  EXPECT_EQ(snap.counters.at("parallel/chunks"), chunks.load());
  EXPECT_GE(snap.counters.at("parallel/chunks"), 16u);  // 4 per worker.
  // Every parallel job with nonzero work must observe the imbalance
  // histogram exactly once.
  ASSERT_EQ(snap.histograms.count("parallel/chunk_imbalance"), 1u);
  EXPECT_EQ(snap.histograms.at("parallel/chunk_imbalance").count, 1u);
  // max/mean ratio is >= 1 by construction.
  EXPECT_GE(snap.histograms.at("parallel/chunk_imbalance").Quantile(0.0),
            0.0);
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  ThreadGuard guard;
  SetThreads(4);
  std::atomic<size_t> inner_iterations{0};
  std::atomic<bool> saw_worker_flag{true};
  ParallelFor(0, 8, 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      if (!InParallelWorker()) saw_worker_flag = false;
      ParallelFor(0, 100, 10, [&](size_t ilo, size_t ihi) {
        inner_iterations += ihi - ilo;
      });
    }
  });
  EXPECT_EQ(inner_iterations.load(), 800u);
  EXPECT_TRUE(saw_worker_flag.load());
  EXPECT_FALSE(InParallelWorker());  // Flag restored on the caller.
}

TEST(ParallelThreadsTest, ZeroSelectsHardwareThreads) {
  ThreadGuard guard;
  SetThreads(0);
  EXPECT_EQ(Threads(), HardwareThreads());
  EXPECT_GE(Threads(), 1);
  SetThreads(-3);
  EXPECT_EQ(Threads(), 1);
  SetThreads(5);
  EXPECT_EQ(Threads(), 5);
}

TEST(ParallelReduceOrderedTest, BitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const size_t n = 5'000;
  auto reduce = [&](int threads) {
    SetThreads(threads);
    return ParallelReduceOrdered<float>(
        0, n, 64, 0.0f,
        [](size_t lo, size_t hi) {
          float s = 0.0f;
          for (size_t i = lo; i < hi; ++i) {
            s += 1.0f / static_cast<float>(i + 1);
          }
          return s;
        },
        [](float acc, float partial) { return acc + partial; });
  };
  const float serial = reduce(1);
  EXPECT_EQ(serial, reduce(2));
  EXPECT_EQ(serial, reduce(8));
  EXPECT_NEAR(serial, 9.0945f, 0.01f);  // Harmonic number H_5000.
}

TEST(RngForkTest, ShardForkDoesNotAdvanceParent) {
  Rng forked(5);
  Rng untouched(5);
  const Rng child = forked.Fork(3);
  (void)child;
  EXPECT_EQ(forked.NextU64(), untouched.NextU64());
}

TEST(RngForkTest, ShardForkIsStableAndDistinctPerShard) {
  const Rng parent(5);
  std::vector<uint64_t> first_draws;
  for (uint64_t s = 0; s < 8; ++s) {
    Rng once = parent.Fork(s);
    Rng twice = parent.Fork(s);
    const uint64_t draw = once.NextU64();
    EXPECT_EQ(draw, twice.NextU64()) << "shard " << s;
    first_draws.push_back(draw);
  }
  for (size_t a = 0; a < first_draws.size(); ++a) {
    for (size_t b = a + 1; b < first_draws.size(); ++b) {
      EXPECT_NE(first_draws[a], first_draws[b]) << a << " vs " << b;
    }
  }
}

math::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  math::Matrix m(rows, cols);
  m.FillUniform(rng, 1.0f);
  return m;
}

TEST(DeterminismTest, SimilarityMatrixAndCslsBitIdenticalAcrossThreads) {
  ThreadGuard guard;
  const auto emb1 = RandomMatrix(90, 24, 1);
  const auto emb2 = RandomMatrix(90, 24, 2);
  auto run = [&](int threads) {
    SetThreads(threads);
    math::Matrix sim = align::SimilarityMatrix(
        emb1, emb2, align::DistanceMetric::kCosine);
    align::ApplyCsls(sim, 10);
    return sim;
  };
  const math::Matrix serial = run(1);
  const std::vector<float> want(serial.Data().begin(), serial.Data().end());
  for (int threads : {2, 8}) {
    const math::Matrix parallel = run(threads);
    const std::vector<float> got(parallel.Data().begin(),
                                 parallel.Data().end());
    ASSERT_EQ(got, want) << threads << " threads";
  }
}

TEST(DeterminismTest, EvaluateRankingBitIdenticalAcrossThreads) {
  ThreadGuard guard;
  core::AlignmentModel model;
  model.emb1 = RandomMatrix(120, 16, 3);
  model.emb2 = RandomMatrix(120, 16, 4);
  kg::Alignment pairs;
  for (size_t i = 0; i < 120; ++i) {
    pairs.push_back({static_cast<kg::EntityId>(i),
                     static_cast<kg::EntityId>(i)});
  }
  auto run = [&](int threads) {
    SetThreads(threads);
    return eval::EvaluateRanking(model, pairs,
                                 align::DistanceMetric::kCosine);
  };
  const auto serial = run(1);
  for (int threads : {2, 8}) {
    const auto parallel = run(threads);
    EXPECT_EQ(parallel.hits1, serial.hits1) << threads << " threads";
    EXPECT_EQ(parallel.hits5, serial.hits5) << threads << " threads";
    EXPECT_EQ(parallel.mr, serial.mr) << threads << " threads";
    EXPECT_EQ(parallel.mrr, serial.mrr) << threads << " threads";
  }
}

std::vector<kg::Triple> RandomTriples(size_t count, size_t entities,
                                      size_t relations, uint64_t seed) {
  Rng rng(seed);
  std::vector<kg::Triple> triples(count);
  for (auto& t : triples) {
    t.head = static_cast<kg::EntityId>(rng.NextBounded(entities));
    t.relation = static_cast<kg::RelationId>(rng.NextBounded(relations));
    t.tail = static_cast<kg::EntityId>(rng.NextBounded(entities));
  }
  return triples;
}

std::vector<float> FlattenTable(const math::EmbeddingTable& table) {
  std::vector<float> flat;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    const auto row = table.Row(i);
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return flat;
}

TEST(DeterminismTest, ShardedTrainEpochBitIdenticalAcrossThreads) {
  ThreadGuard guard;
  // > 2 shards of 256 positives so the shard-parallel draw path matters.
  const auto triples = RandomTriples(600, 80, 10, 9);
  auto run = [&](int threads) {
    SetThreads(threads);
    Rng model_rng(11);
    auto model = embedding::CreateTripleModel(
        embedding::TripleModelKind::kTransE, 80, 10,
        embedding::TripleModelOptions{}, model_rng);
    Rng epoch_rng(42);
    const float loss =
        interaction::TrainEpoch(*model, triples, 2, epoch_rng);
    return std::make_pair(loss, FlattenTable(model->entity_table()));
  };
  const auto serial = run(1);
  for (int threads : {2, 8}) {
    const auto parallel = run(threads);
    EXPECT_EQ(parallel.first, serial.first) << threads << " threads";
    ASSERT_EQ(parallel.second, serial.second) << threads << " threads";
  }
}

TEST(DeterminismTest, ShardedCalibrateEpochBitIdenticalAcrossThreads) {
  ThreadGuard guard;
  std::vector<std::pair<kg::EntityId, kg::EntityId>> pairs;
  for (kg::EntityId i = 0; i < 300; ++i) pairs.push_back({i, i + 300});
  auto run = [&](int threads) {
    SetThreads(threads);
    Rng init_rng(13);
    math::EmbeddingTable entities(600, 16, math::InitScheme::kUnit,
                                  init_rng);
    Rng epoch_rng(42);
    const float loss = interaction::CalibrateEpoch(entities, pairs, 0.05f,
                                                   1.5f, 3, epoch_rng);
    return std::make_pair(loss, FlattenTable(entities));
  };
  const auto serial = run(1);
  for (int threads : {2, 8}) {
    const auto parallel = run(threads);
    EXPECT_EQ(parallel.first, serial.first) << threads << " threads";
    ASSERT_EQ(parallel.second, serial.second) << threads << " threads";
  }
}

bool SameBits(const math::Matrix& a, const math::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.Data().data(), b.Data().data(),
                     a.size() * sizeof(float)) == 0;
}

/// The contract end to end: a cross-validation run trains the same model at
/// one thread as at two or four. MultiKE runs pair epochs, BootEA adds
/// calibration epochs, MTransE runs positive-only epochs.
TEST(DeterminismTest, CrossValidationBitIdenticalAtOneTwoAndFourThreads) {
  ThreadGuard guard;
  const core::BenchmarkDataset dataset = core::BuildBenchmarkDataset(
      datagen::HeterogeneityProfile::EnFr(),
      core::ScalePreset{"tiny", 500, 250, 25.0}, false, 5);
  for (const char* approach : {"MultiKE", "BootEA", "MTransE"}) {
    auto run = [&](int threads) {
      core::TrainConfig config;
      config.dim = 16;
      config.max_epochs = 10;
      config.seed = 7;
      config.threads = threads;
      return core::RunCrossValidation(approach, dataset, config, 1);
    };
    const core::CrossValidationResult one = run(1);
    ASSERT_GT(one.first_fold_model.emb1.size(), 0u) << approach;
    for (int threads : {2, 4}) {
      const core::CrossValidationResult many = run(threads);
      EXPECT_EQ(many.hits1.mean, one.hits1.mean)
          << approach << " at " << threads << " threads";
      EXPECT_EQ(many.mrr.mean, one.mrr.mean)
          << approach << " at " << threads << " threads";
      EXPECT_TRUE(SameBits(many.first_fold_model.emb1,
                           one.first_fold_model.emb1))
          << approach << " at " << threads << " threads";
      EXPECT_TRUE(SameBits(many.first_fold_model.emb2,
                           one.first_fold_model.emb2))
          << approach << " at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace openea
