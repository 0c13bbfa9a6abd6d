// Micro-benchmarks (google-benchmark) for the serving layer's own units of
// work: one-row IVF lookups, parsing a one-row topk request and writing its
// response. align-serve answers each request with these three steps plus
// the pipe round trip. BM_AnnIvfBuild times the IVF index build its start
// pays.
//
//   ./build/bench/micro_serve --benchmark_min_time=0.5

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>
#include <unistd.h>

#include "src/align/candidate_source.h"
#include "src/common/json.h"
#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/common/telemetry.h"
#include "src/math/kernels.h"
#include "src/math/matrix.h"
#include "src/math/sharded_table.h"
#include "src/serve/server.h"

namespace openea {
namespace {

constexpr size_t kRows = 100000;
constexpr size_t kDim = 32;
constexpr size_t kClusters = 400;
constexpr size_t kQueries = 2000;
constexpr size_t kK = 10;

/// 100K x 32 rows in 400 Gaussian clusters, and queries that are noisy
/// copies of random rows: the shape align-serve's IVF index is sized for.
struct ServeData {
  math::Matrix targets;
  math::Matrix queries;

  ServeData() : targets(kRows, kDim), queries(kQueries, kDim) {
    Rng rng(23);
    math::Matrix centers(kClusters, kDim);
    for (float& v : centers.Data()) v = static_cast<float>(rng.NextGaussian());
    for (size_t i = 0; i < kRows; ++i) {
      const auto center = centers.Row(rng.NextBounded(kClusters));
      auto row = targets.Row(i);
      for (size_t d = 0; d < kDim; ++d) {
        row[d] = center[d] + 0.5f * static_cast<float>(rng.NextGaussian());
      }
    }
    for (size_t q = 0; q < kQueries; ++q) {
      const auto target = targets.Row(rng.NextBounded(kRows));
      auto row = queries.Row(q);
      for (size_t d = 0; d < kDim; ++d) {
        row[d] = target[d] + 0.7f * static_cast<float>(rng.NextGaussian());
      }
    }
  }
};

const ServeData& Data() {
  static const ServeData* data = new ServeData();
  return *data;
}

/// Data().targets written as a shard-banked table to the temp directory
/// and opened. `name` tells a process's tables apart; each is removed at
/// exit, with the `.ivfpack` sidecar an IVF build writes next to it.
std::shared_ptr<const math::ShardedEmbeddingTable> DataTable(
    const std::string& name) {
  static std::vector<std::string>* paths = [] {
    std::atexit([] {
      for (const std::string& path : *paths) {
        std::remove(path.c_str());
        std::remove((path + ".ivfpack").c_str());
      }
    });
    return new std::vector<std::string>();
  }();
  const std::string path = std::string(P_tmpdir) + "/micro_serve_" + name +
                           "_" + std::to_string(::getpid()) + ".shard";
  paths->push_back(path);
  OPENEA_CHECK(math::WriteShardedTable(path, Data().targets).ok());
  auto table = math::ShardedEmbeddingTable::Open(path);
  OPENEA_CHECK(table.ok());
  return *std::move(table);
}

/// The cosine IVF index over Data(), in RAM or over DataTable("index").
/// Built once per storage and kept for the process.
const align::CandidateSource& IvfSource(bool sharded) {
  static std::unique_ptr<align::CandidateSource> sources[2];
  std::unique_ptr<align::CandidateSource>& source = sources[sharded ? 1 : 0];
  if (source != nullptr) return *source;
  align::CandidateSourceConfig config;
  config.kind = align::CandidateSourceKind::kAnnIvf;
  source = align::CreateCandidateSourceOrDie(config);
  OPENEA_CHECK(sharded ? source->IndexSharded(DataTable("index")).ok()
                       : source->Index(Data().targets).ok());
  return *source;
}

/// The `top1_cosine` body that assigns the IVF build's rows: "lanes:16",
/// "lanes:8" or "scalar". With more than one thread the build's row chunks
/// hold 8 rows, which the 16-lane body hands to the 8-lane one.
std::string DecisionBodyLabel() {
  const size_t lanes = math::kernels::DecisionLanes();
  if (lanes == 0) return "scalar";
  return "lanes:" + std::to_string(Threads() > 1 ? size_t{8} : lanes);
}

/// One IVF build at the default config over Data(): `Index` in RAM, or
/// `IndexSharded` over a table written once before the timing (each build
/// writes its packed sidecar again). Args: sharded (0 or 1). Runs at the
/// default thread count (OPENEA_THREADS).
void BM_AnnIvfBuild(benchmark::State& state) {
  const bool sharded = state.range(0) != 0;
  std::shared_ptr<const math::ShardedEmbeddingTable> table;
  if (sharded) {
    static const auto written = DataTable("build");
    table = written;
  }
  align::CandidateSourceConfig config;
  config.kind = align::CandidateSourceKind::kAnnIvf;
  state.SetLabel(DecisionBodyLabel());
  for (auto _ : state) {
    auto source = align::CreateCandidateSourceOrDie(config);
    OPENEA_CHECK(sharded ? source->IndexSharded(table).ok()
                         : source->Index(Data().targets).ok());
    benchmark::DoNotOptimize(source.get());
  }
}
BENCHMARK(BM_AnnIvfBuild)
    ->ArgNames({"sharded"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// One `CandidateSource::TopK` of one row, cycling through the queries.
/// Args: sharded (0 = in-RAM index, 1 = shard-banked) and telemetry
/// collection (align-serve runs with it on).
void BM_AnnIvfTopKOneRow(benchmark::State& state) {
  const align::CandidateSource& source = IvfSource(state.range(0) != 0);
  telemetry::SetCollection(state.range(1) != 0);
  math::Matrix one(1, kDim);
  size_t q = 0;
  for (auto _ : state) {
    const auto query = Data().queries.Row(q);
    std::copy(query.begin(), query.end(), one.Row(0).begin());
    benchmark::DoNotOptimize(source.TopK(one, kK));
    q = (q + 1) % kQueries;
  }
  telemetry::SetCollection(false);
}
BENCHMARK(BM_AnnIvfTopKOneRow)
    ->ArgNames({"sharded", "telemetry"})
    ->Args({0, 0})->Args({1, 0})->Args({1, 1});

/// json::Parse of a one-row topk request, cells written with "%.9g".
void BM_JsonParseTopKRequest(benchmark::State& state) {
  std::string request = "{\"op\":\"topk\",\"id\":17,\"k\":10,\"rows\":[[";
  const auto row = Data().queries.Row(0);
  for (size_t d = 0; d < kDim; ++d) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), d ? ",%.9g" : "%.9g",
                  static_cast<double>(row[d]));
    request += buf;
  }
  request += "]]}";
  for (auto _ : state) {
    json::Value value;
    benchmark::DoNotOptimize(json::Parse(request, &value));
    benchmark::DoNotOptimize(value);
  }
}
BENCHMARK(BM_JsonParseTopKRequest);

/// serve::AppendTopKResponse of one row's k = 10 answer into a reused
/// buffer.
void BM_WriteTopKResponse(benchmark::State& state) {
  math::Matrix one(1, kDim);
  const auto query = Data().queries.Row(0);
  std::copy(query.begin(), query.end(), one.Row(0).begin());
  const align::TopKResult topk = IvfSource(false).TopK(one, kK);
  const json::Value id(17);
  std::string out;
  for (auto _ : state) {
    out.clear();
    serve::AppendTopKResponse(id, "r-12345", topk, 0, 1, kK, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_WriteTopKResponse);

}  // namespace
}  // namespace openea
