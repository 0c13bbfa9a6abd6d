// Micro-benchmarks (google-benchmark) for the substrate hot paths: vector
// kernels, similarity matrices, CSLS, inference strategies, PageRank, and
// negative sampling.

#include <benchmark/benchmark.h>

#include "src/align/inference.h"
#include "src/align/similarity.h"
#include "src/align/topk.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/datagen/synthetic_kg.h"
#include "src/eval/metrics.h"
#include "src/embedding/negative_sampling.h"
#include "src/kg/graph_stats.h"
#include "src/math/embedding_table.h"
#include "src/math/kernels.h"
#include "src/math/matrix.h"
#include "src/math/vec.h"

namespace openea {
namespace {

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = rng.NextFloat(-1, 1);
  return v;
}

// ---------------------------------------------------------------------------
// Kernel-table A/B cases: every dispatched kernel, scalar backend vs the
// AVX2 backend (second arg 0/1; on machines without AVX2+FMA the "1" rows
// silently measure scalar again — compare the `avx2` column against
// BM_Kernel*/…/0 for the dispatch win). These bottom out in the exact
// function pointers the library calls, so the measured ratio is the ratio
// training/alignment sees.
// ---------------------------------------------------------------------------

const math::kernels::KernelTable& BackendTable(int64_t which) {
  using math::kernels::Backend;
  return math::kernels::Table(which == 0 ? Backend::kScalar
                                         : Backend::kAvx2);
}

void BM_KernelDot(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto& kt = BackendTable(state.range(1));
  const auto a = RandomVec(n, 1), b = RandomVec(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kt.dot(a.data(), b.data(), n));
  }
}
BENCHMARK(BM_KernelDot)
    ->ArgNames({"n", "avx2"})
    ->Args({32, 0})->Args({32, 1})->Args({512, 0})->Args({512, 1});

void BM_KernelSquaredL2(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto& kt = BackendTable(state.range(1));
  const auto a = RandomVec(n, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kt.squared_l2(a.data(), n));
  }
}
BENCHMARK(BM_KernelSquaredL2)
    ->ArgNames({"n", "avx2"})
    ->Args({512, 0})->Args({512, 1});

void BM_KernelL1(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto& kt = BackendTable(state.range(1));
  const auto a = RandomVec(n, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kt.l1(a.data(), n));
  }
}
BENCHMARK(BM_KernelL1)
    ->ArgNames({"n", "avx2"})
    ->Args({512, 0})->Args({512, 1});

void BM_KernelSquaredL2Distance(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto& kt = BackendTable(state.range(1));
  const auto a = RandomVec(n, 1), b = RandomVec(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kt.squared_l2_distance(a.data(), b.data(), n));
  }
}
BENCHMARK(BM_KernelSquaredL2Distance)
    ->ArgNames({"n", "avx2"})
    ->Args({32, 0})->Args({32, 1})->Args({512, 0})->Args({512, 1});

void BM_KernelL1Distance(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto& kt = BackendTable(state.range(1));
  const auto a = RandomVec(n, 1), b = RandomVec(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kt.l1_distance(a.data(), b.data(), n));
  }
}
BENCHMARK(BM_KernelL1Distance)
    ->ArgNames({"n", "avx2"})
    ->Args({512, 0})->Args({512, 1});

void BM_KernelDotRows(benchmark::State& state) {
  const size_t rows = 256, n = static_cast<size_t>(state.range(0));
  const auto& kt = BackendTable(state.range(1));
  const auto a = RandomVec(n, 1), b = RandomVec(rows * n, 2);
  std::vector<float> out(rows);
  for (auto _ : state) {
    kt.dot_rows(a.data(), b.data(), n, out.data(), rows, n);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_KernelDotRows)
    ->ArgNames({"n", "avx2"})
    ->Args({32, 0})->Args({32, 1})->Args({128, 0})->Args({128, 1});

void BM_KernelSquaredL2DistanceRows(benchmark::State& state) {
  const size_t rows = 256, n = static_cast<size_t>(state.range(0));
  const auto& kt = BackendTable(state.range(1));
  const auto a = RandomVec(n, 1), b = RandomVec(rows * n, 2);
  std::vector<float> out(rows);
  for (auto _ : state) {
    kt.squared_l2_distance_rows(a.data(), b.data(), n, out.data(), rows, n);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_KernelSquaredL2DistanceRows)
    ->ArgNames({"n", "avx2"})
    ->Args({32, 0})->Args({32, 1});

void BM_KernelL1DistanceRows(benchmark::State& state) {
  const size_t rows = 256, n = static_cast<size_t>(state.range(0));
  const auto& kt = BackendTable(state.range(1));
  const auto a = RandomVec(n, 1), b = RandomVec(rows * n, 2);
  std::vector<float> out(rows);
  for (auto _ : state) {
    kt.l1_distance_rows(a.data(), b.data(), n, out.data(), rows, n);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_KernelL1DistanceRows)
    ->ArgNames({"n", "avx2"})
    ->Args({32, 0})->Args({32, 1});

void BM_KernelAxpy(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto& kt = BackendTable(state.range(1));
  const auto x = RandomVec(n, 1);
  auto y = RandomVec(n, 2);
  for (auto _ : state) {
    kt.axpy(0.37f, x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_KernelAxpy)
    ->ArgNames({"n", "avx2"})
    ->Args({32, 0})->Args({32, 1})->Args({512, 0})->Args({512, 1});

void BM_KernelScale(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto& kt = BackendTable(state.range(1));
  auto x = RandomVec(n, 1);
  for (auto _ : state) {
    kt.scale(1.0000001f, x.data(), n);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_KernelScale)
    ->ArgNames({"n", "avx2"})
    ->Args({512, 0})->Args({512, 1});

void BM_KernelAdd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto& kt = BackendTable(state.range(1));
  const auto a = RandomVec(n, 1), b = RandomVec(n, 2);
  std::vector<float> out(n);
  for (auto _ : state) {
    kt.add(a.data(), b.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_KernelAdd)
    ->ArgNames({"n", "avx2"})
    ->Args({512, 0})->Args({512, 1});

void BM_KernelSub(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto& kt = BackendTable(state.range(1));
  const auto a = RandomVec(n, 1), b = RandomVec(n, 2);
  std::vector<float> out(n);
  for (auto _ : state) {
    kt.sub(a.data(), b.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_KernelSub)
    ->ArgNames({"n", "avx2"})
    ->Args({512, 0})->Args({512, 1});

void BM_KernelHadamard(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto& kt = BackendTable(state.range(1));
  const auto a = RandomVec(n, 1), b = RandomVec(n, 2);
  std::vector<float> out(n);
  for (auto _ : state) {
    kt.hadamard(a.data(), b.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_KernelHadamard)
    ->ArgNames({"n", "avx2"})
    ->Args({512, 0})->Args({512, 1});

void BM_KernelGemmBlock(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto& kt = BackendTable(state.range(1));
  const auto a = RandomVec(n * n, 1), b = RandomVec(n * n, 2);
  std::vector<float> out(n * n);
  for (auto _ : state) {
    kt.gemm_block(a.data(), n, b.data(), n, out.data(), n, n, n, n);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_KernelGemmBlock)
    ->ArgNames({"n", "avx2"})
    ->Args({32, 0})->Args({32, 1})->Args({64, 0})->Args({64, 1});

void BM_KernelAdagradUpdate(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto& kt = BackendTable(state.range(1));
  const auto grad = RandomVec(n, 1);
  auto row = RandomVec(n, 2);
  std::vector<float> acc(n, 0.5f);
  for (auto _ : state) {
    kt.adagrad_update(row.data(), acc.data(), grad.data(), n, 1e-9f, 1e-8f);
    benchmark::DoNotOptimize(row.data());
  }
}
BENCHMARK(BM_KernelAdagradUpdate)
    ->ArgNames({"n", "avx2"})
    ->Args({32, 0})->Args({32, 1})->Args({512, 0})->Args({512, 1});

void BM_KernelSgdUpdate(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto& kt = BackendTable(state.range(1));
  const auto grad = RandomVec(n, 1);
  auto row = RandomVec(n, 2);
  for (auto _ : state) {
    kt.sgd_update(row.data(), grad.data(), n, 1e-9f);
    benchmark::DoNotOptimize(row.data());
  }
}
BENCHMARK(BM_KernelSgdUpdate)
    ->ArgNames({"n", "avx2"})
    ->Args({32, 0})->Args({32, 1})->Args({512, 0})->Args({512, 1});

void BM_Dot(benchmark::State& state) {
  const auto a = RandomVec(static_cast<size_t>(state.range(0)), 1);
  const auto b = RandomVec(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(math::Dot(a, b));
  }
}
BENCHMARK(BM_Dot)->Arg(32)->Arg(128)->Arg(512);

void BM_CosineSimilarity(benchmark::State& state) {
  const auto a = RandomVec(static_cast<size_t>(state.range(0)), 1);
  const auto b = RandomVec(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(math::CosineSimilarity(a, b));
  }
}
BENCHMARK(BM_CosineSimilarity)->Arg(32)->Arg(128);

void BM_Gemm(benchmark::State& state) {
  Rng rng(3);
  const size_t n = static_cast<size_t>(state.range(0));
  math::Matrix a(n, n), b(n, n), c;
  a.FillUniform(rng, 1.0f);
  b.FillUniform(rng, 1.0f);
  for (auto _ : state) {
    Gemm(a, b, c);
    benchmark::DoNotOptimize(c.Data().data());
  }
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128);

// Same kernel at a fixed thread count (second arg). Restores the serial
// default afterwards so the remaining benchmarks in this process are
// unaffected. Compare against BM_Gemm for the serial baseline.
void BM_GemmParallel(benchmark::State& state) {
  Rng rng(3);
  const size_t n = static_cast<size_t>(state.range(0));
  math::Matrix a(n, n), b(n, n), c;
  a.FillUniform(rng, 1.0f);
  b.FillUniform(rng, 1.0f);
  SetThreads(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    Gemm(a, b, c);
    benchmark::DoNotOptimize(c.Data().data());
  }
  SetThreads(1);
}
BENCHMARK(BM_GemmParallel)
    ->Args({128, 2})
    ->Args({128, 4})
    ->Args({256, 2})
    ->Args({256, 4});

math::Matrix RandomSim(size_t n, uint64_t seed) {
  Rng rng(seed);
  math::Matrix sim(n, n);
  sim.FillUniform(rng, 1.0f);
  return sim;
}

void BM_SimilarityMatrix(benchmark::State& state) {
  Rng rng(3);
  const size_t n = static_cast<size_t>(state.range(0));
  math::Matrix emb1(n, 32), emb2(n, 32);
  emb1.FillUniform(rng, 1.0f);
  emb2.FillUniform(rng, 1.0f);
  for (auto _ : state) {
    auto sim = align::SimilarityMatrix(emb1, emb2,
                                       align::DistanceMetric::kCosine);
    benchmark::DoNotOptimize(sim.Data().data());
  }
}
BENCHMARK(BM_SimilarityMatrix)->Arg(100)->Arg(400);

void BM_SimilarityMatrixParallel(benchmark::State& state) {
  Rng rng(3);
  const size_t n = static_cast<size_t>(state.range(0));
  math::Matrix emb1(n, 32), emb2(n, 32);
  emb1.FillUniform(rng, 1.0f);
  emb2.FillUniform(rng, 1.0f);
  SetThreads(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    auto sim = align::SimilarityMatrix(emb1, emb2,
                                       align::DistanceMetric::kCosine);
    benchmark::DoNotOptimize(sim.Data().data());
  }
  SetThreads(1);
}
BENCHMARK(BM_SimilarityMatrixParallel)
    ->Args({400, 2})
    ->Args({400, 4})
    ->Args({800, 2})
    ->Args({800, 4});

// Dense reference for the top-k extraction pipeline: materialize the full
// similarity matrix (optionally CSLS-adjusted) and take each row's argmax.
// Compare against BM_TopKStreaming, which produces the same matches without
// the N x N intermediate.
void BM_TopKDense(benchmark::State& state) {
  Rng rng(3);
  const size_t n = static_cast<size_t>(state.range(0));
  const bool csls = state.range(1) != 0;
  math::Matrix emb1(n, 32), emb2(n, 32);
  emb1.FillUniform(rng, 1.0f);
  emb2.FillUniform(rng, 1.0f);
  for (auto _ : state) {
    math::Matrix sim = align::SimilarityMatrix(emb1, emb2,
                                               align::DistanceMetric::kCosine);
    if (csls) align::ApplyCsls(sim, 10);
    benchmark::DoNotOptimize(align::GreedyMatch(sim));
  }
}
BENCHMARK(BM_TopKDense)
    ->Args({400, 0})
    ->Args({400, 1})
    ->Args({800, 0})
    ->Args({800, 1});

void BM_TopKStreaming(benchmark::State& state) {
  Rng rng(3);
  const size_t n = static_cast<size_t>(state.range(0));
  const bool csls = state.range(1) != 0;
  math::Matrix emb1(n, 32), emb2(n, 32);
  emb1.FillUniform(rng, 1.0f);
  emb2.FillUniform(rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::StreamingGreedyMatch(
        emb1, emb2, align::DistanceMetric::kCosine, csls));
  }
}
BENCHMARK(BM_TopKStreaming)
    ->Args({400, 0})
    ->Args({400, 1})
    ->Args({800, 0})
    ->Args({800, 1});

// The ranking scan of the evaluation protocol: EvaluateRanking over n
// planted pairs of width `dim` (cosine, no CSLS), n x n cells per call.
void BM_EvaluateRanking(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t dim = static_cast<size_t>(state.range(1));
  Rng rng(7);
  core::AlignmentModel model;
  model.emb1 = math::Matrix(n, dim);
  model.emb2 = math::Matrix(n, dim);
  model.emb2.FillUniform(rng, 1.0f);
  kg::Alignment pairs(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      model.emb1.Row(i)[d] =
          model.emb2.Row(i)[d] + 0.5f * rng.NextFloat(-1, 1);
    }
    pairs[i] = {static_cast<kg::EntityId>(i), static_cast<kg::EntityId>(i)};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::EvaluateRanking(
        model, pairs, align::DistanceMetric::kCosine));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n * n));
}
BENCHMARK(BM_EvaluateRanking)
    ->ArgNames({"n", "dim"})
    ->Args({10500, 32})
    ->Args({2100, 128})
    ->Unit(benchmark::kMillisecond);

void BM_ApplyCsls(benchmark::State& state) {
  const auto base = RandomSim(static_cast<size_t>(state.range(0)), 5);
  for (auto _ : state) {
    math::Matrix sim = base;
    align::ApplyCsls(sim, 10);
    benchmark::DoNotOptimize(sim.Data().data());
  }
}
BENCHMARK(BM_ApplyCsls)->Arg(100)->Arg(400);

void BM_GreedyMatch(benchmark::State& state) {
  const auto sim = RandomSim(static_cast<size_t>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::GreedyMatch(sim));
  }
}
BENCHMARK(BM_GreedyMatch)->Arg(100)->Arg(400);

void BM_StableMarriage(benchmark::State& state) {
  const auto sim = RandomSim(static_cast<size_t>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::StableMarriage(sim));
  }
}
BENCHMARK(BM_StableMarriage)->Arg(100)->Arg(400);

void BM_KuhnMunkres(benchmark::State& state) {
  const auto sim = RandomSim(static_cast<size_t>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::KuhnMunkres(sim));
  }
}
BENCHMARK(BM_KuhnMunkres)->Arg(50)->Arg(150);

void BM_PageRank(benchmark::State& state) {
  datagen::SyntheticKgConfig config;
  config.num_entities = static_cast<size_t>(state.range(0));
  config.seed = 5;
  const auto gen = datagen::GenerateSyntheticKg(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kg::PageRank(gen.graph));
  }
}
BENCHMARK(BM_PageRank)->Arg(500)->Arg(2000);

void BM_UniformNegativeSampling(benchmark::State& state) {
  Rng rng(3);
  const kg::Triple pos{10, 2, 20};
  for (auto _ : state) {
    benchmark::DoNotOptimize(embedding::CorruptUniform(pos, 10000, rng));
  }
}
BENCHMARK(BM_UniformNegativeSampling);

void BM_TruncatedSamplerRefresh(benchmark::State& state) {
  Rng rng(3);
  math::EmbeddingTable table(static_cast<size_t>(state.range(0)), 32,
                             math::InitScheme::kUnit, rng);
  embedding::TruncatedNegativeSampler sampler(16);
  for (auto _ : state) {
    sampler.Refresh(table);
  }
}
BENCHMARK(BM_TruncatedSamplerRefresh)->Arg(200)->Arg(500);

}  // namespace
}  // namespace openea
