// Tests for the telemetry subsystem: metric registry semantics, span
// nesting/aggregation, the JSON export round-trip, thread-safety under
// ParallelFor, and the determinism contract — collection-enabled runs must
// be bit-identical to collection-off runs at any thread count (DESIGN.md,
// "Observability").

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/common/telemetry.h"
#include "src/embedding/triple_model.h"
#include "src/interaction/trainer.h"
#include "src/math/embedding_table.h"

namespace openea {
namespace {

/// Restores the global thread count on scope exit (shared gtest process).
struct ThreadGuard {
  int saved = Threads();
  ~ThreadGuard() { SetThreads(saved); }
};

/// Turns collection on for the test body and wipes all telemetry state on
/// both ends, so tests compose in any order within the shared binary.
struct CollectGuard {
  CollectGuard() {
    telemetry::ResetForTesting();
    telemetry::SetCollectForTesting(true);
  }
  ~CollectGuard() {
    telemetry::SetCollectForTesting(false);
    telemetry::DetachSink();
    telemetry::ResetForTesting();
  }
};

TEST(TelemetryMetricsTest, CountersAccumulateAndGaugesLastWriteWins) {
  CollectGuard collect;
  telemetry::IncrCounter("t/counter");
  telemetry::IncrCounter("t/counter", 4);
  telemetry::SetGauge("t/gauge", 1.5);
  telemetry::SetGauge("t/gauge", -2.5);
  const auto snap = telemetry::SnapshotMetrics();
  EXPECT_EQ(snap.counters.at("t/counter"), 5u);
  EXPECT_EQ(snap.gauges.at("t/gauge"), -2.5);
}

TEST(TelemetryMetricsTest, MetricsAreDroppedWhileCollectionIsOff) {
  telemetry::ResetForTesting();
  ASSERT_FALSE(telemetry::Enabled());
  telemetry::IncrCounter("t/off_counter");
  telemetry::SetGauge("t/off_gauge", 1.0);
  telemetry::Observe("t/off_hist", 1.0);
  telemetry::AppendSeries("t/off_series", 1.0);
  const auto snap = telemetry::SnapshotMetrics();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
  EXPECT_TRUE(snap.series.empty());
}

TEST(TelemetryMetricsTest, HistogramBucketsCountAndBounds) {
  CollectGuard collect;
  telemetry::DefineHistogram("t/hist", {1.0, 10.0, 100.0});
  for (double v : {0.5, 0.9, 5.0, 50.0, 500.0, 5000.0}) {
    telemetry::Observe("t/hist", v);
  }
  const auto snap = telemetry::SnapshotMetrics();
  const auto& h = snap.histograms.at("t/hist");
  ASSERT_EQ(h.bounds, (std::vector<double>{1.0, 10.0, 100.0}));
  // counts has one overflow bucket past the last bound.
  ASSERT_EQ(h.counts.size(), 4u);
  EXPECT_EQ(h.counts[0], 2u);  // 0.5, 0.9 <= 1
  EXPECT_EQ(h.counts[1], 1u);  // 5
  EXPECT_EQ(h.counts[2], 1u);  // 50
  EXPECT_EQ(h.counts[3], 2u);  // 500, 5000 above every bound
  EXPECT_EQ(h.count, 6u);
  EXPECT_EQ(h.min, 0.5);
  EXPECT_EQ(h.max, 5000.0);
  EXPECT_NEAR(h.sum, 5556.4, 1e-9);
}

TEST(TelemetryMetricsTest, UndeclaredHistogramGetsDefaultDecadeBuckets) {
  CollectGuard collect;
  telemetry::Observe("t/default_hist", 0.02);
  const auto snap = telemetry::SnapshotMetrics();
  const auto& h = snap.histograms.at("t/default_hist");
  EXPECT_GE(h.bounds.size(), 5u);
  EXPECT_EQ(h.count, 1u);
}

TEST(TelemetryMetricsTest, SeriesAppendInOrderAndAreCapped) {
  CollectGuard collect;
  for (int i = 0; i < 5; ++i) {
    telemetry::AppendSeries("t/series", static_cast<double>(i));
  }
  const auto snap = telemetry::SnapshotMetrics();
  EXPECT_EQ(snap.series.at("t/series"),
            (std::vector<double>{0.0, 1.0, 2.0, 3.0, 4.0}));
}

TEST(TelemetrySpanTest, NestedSpansAggregateUnderSlashJoinedPaths) {
  CollectGuard collect;
  for (int i = 0; i < 3; ++i) {
    telemetry::ScopedSpan outer("outer");
    { telemetry::ScopedSpan inner("inner"); }
    { telemetry::ScopedSpan inner("inner"); }
  }
  { telemetry::ScopedSpan lone("inner"); }
  const auto spans = telemetry::SnapshotSpans();
  ASSERT_EQ(spans.size(), 3u);  // Sorted: inner, outer, outer/inner.
  EXPECT_EQ(spans[0].path, "inner");
  EXPECT_EQ(spans[0].count, 1u);
  EXPECT_EQ(spans[1].path, "outer");
  EXPECT_EQ(spans[1].count, 3u);
  EXPECT_EQ(spans[2].path, "outer/inner");
  EXPECT_EQ(spans[2].count, 6u);
  for (const auto& s : spans) {
    EXPECT_GE(s.total_ms, 0.0) << s.path;
    EXPECT_LE(s.min_ms, s.max_ms) << s.path;
    EXPECT_GE(s.total_ms, s.max_ms) << s.path;
  }
}

TEST(TelemetrySpanTest, SpansAreFreeWhenCollectionIsOff) {
  telemetry::ResetForTesting();
  ASSERT_FALSE(telemetry::Enabled());
  { telemetry::ScopedSpan span("ghost"); }
  EXPECT_TRUE(telemetry::SnapshotSpans().empty());
}

TEST(TelemetryThreadingTest, CountersAndSpansSurviveParallelForContention) {
  ThreadGuard guard;
  CollectGuard collect;
  SetThreads(8);
  const size_t n = 20'000;
  ParallelFor(0, n, 64, [](size_t lo, size_t hi) {
    telemetry::ScopedSpan span("worker_chunk");
    for (size_t i = lo; i < hi; ++i) {
      telemetry::IncrCounter("t/parallel_hits");
    }
    telemetry::Observe("t/parallel_obs", static_cast<double>(hi - lo));
  });
  const auto snap = telemetry::SnapshotMetrics();
  EXPECT_EQ(snap.counters.at("t/parallel_hits"), n);
  // ParallelFor itself reports per-job metrics on the forked path.
  EXPECT_EQ(snap.counters.at("parallel/jobs"), 1u);
  EXPECT_GE(snap.counters.at("parallel/chunks"), 2u);
  EXPECT_EQ(snap.histograms.at("t/parallel_obs").count,
            snap.counters.at("parallel/chunks"));
  EXPECT_GE(snap.histograms.at("parallel/chunk_imbalance").count, 1u);
  bool found = false;
  for (const auto& s : telemetry::SnapshotSpans()) {
    if (s.path == "worker_chunk") {
      found = true;
      EXPECT_EQ(s.count, snap.counters.at("parallel/chunks"));
    }
  }
  EXPECT_TRUE(found);
}

TEST(TelemetryExportTest, BuildExportDocumentHasSchemaStableKeys) {
  CollectGuard collect;
  telemetry::IncrCounter("t/c", 3);
  telemetry::SetGauge("t/g", 0.25);
  telemetry::Observe("t/h", 2.0);
  telemetry::AppendSeries("t/s", 7.0);
  { telemetry::ScopedSpan span("phase"); }
  json::Value::Object context;
  context.emplace("bench", "unit");
  const json::Value doc = telemetry::BuildExportDocument(
      json::Value(std::move(context)), telemetry::SnapshotMetrics(),
      telemetry::SnapshotSpans());
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.Find("schema_version"), nullptr);
  EXPECT_EQ(doc.Find("schema_version")->number(), 1.0);
  ASSERT_NE(doc.Find("bench"), nullptr);
  EXPECT_EQ(doc.Find("bench")->string_value(), "unit");
  for (const char* key : {"counters", "gauges", "histograms", "series"}) {
    ASSERT_NE(doc.Find(key), nullptr) << key;
    EXPECT_TRUE(doc.Find(key)->is_object()) << key;
  }
  ASSERT_NE(doc.Find("spans"), nullptr);
  ASSERT_TRUE(doc.Find("spans")->is_array());
  ASSERT_EQ(doc.Find("spans")->array().size(), 1u);
  const json::Value& span = doc.Find("spans")->array()[0];
  for (const char* key : {"path", "count", "total_ms", "min_ms", "max_ms"}) {
    EXPECT_NE(span.Find(key), nullptr) << key;
  }
  const auto& hist = doc.Find("histograms")->object().at("t/h");
  for (const char* key :
       {"bounds", "bucket_counts", "count", "sum", "min", "max"}) {
    EXPECT_NE(hist.Find(key), nullptr) << key;
  }
}

TEST(TelemetryExportTest, JsonSinkRoundTripsThroughParser) {
  CollectGuard collect;
  const std::string path =
      ::testing::TempDir() + "/telemetry_roundtrip.json";
  telemetry::IncrCounter("t/exported", 9);
  telemetry::SetGauge("t/ratio", 0.5);
  { telemetry::ScopedSpan span("export_phase"); }
  telemetry::AttachSink(std::make_unique<telemetry::JsonSink>(path));
  json::Value::Object context;
  context.emplace("bench", "roundtrip");
  telemetry::SetContext(json::Value(std::move(context)));
  telemetry::Flush();

  json::Value doc;
  const Status read = json::ReadFile(path, &doc);
  ASSERT_TRUE(read.ok()) << read.ToString();
  EXPECT_EQ(doc.Find("bench")->string_value(), "roundtrip");
  EXPECT_EQ(doc.Find("counters")->object().at("t/exported").number(), 9.0);
  EXPECT_EQ(doc.Find("gauges")->object().at("t/ratio").number(), 0.5);
  std::remove(path.c_str());
}

TEST(JsonTest, ParseRejectsMalformedDocuments) {
  json::Value out;
  EXPECT_FALSE(json::Parse("", &out).ok());
  EXPECT_FALSE(json::Parse("{", &out).ok());
  EXPECT_FALSE(json::Parse("[1, 2,]", &out).ok());
  EXPECT_FALSE(json::Parse("{\"a\": 1} extra", &out).ok());
  EXPECT_FALSE(json::Parse("nul", &out).ok());
}

TEST(JsonTest, DumpParseRoundTripPreservesStructure) {
  json::Value::Object obj;
  obj.emplace("flag", true);
  obj.emplace("name", "a \"quoted\" string\nwith newline");
  obj.emplace("nothing", json::Value());
  obj.emplace("nums", json::Value::Array{1.5, -2, 1e6});
  const json::Value original{std::move(obj)};
  json::Value parsed;
  ASSERT_TRUE(json::Parse(original.Dump(), &parsed).ok());
  EXPECT_EQ(parsed.Dump(), original.Dump());
  EXPECT_EQ(parsed.Find("flag")->bool_value(), true);
  EXPECT_TRUE(parsed.Find("nothing")->is_null());
  EXPECT_EQ(parsed.Find("nums")->array()[2].number(), 1e6);
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

/// The core zero-perturbation pin: a sharded training epoch with collection
/// enabled must be bit-identical to the collection-off run, serial and
/// parallel alike — instrumentation may observe but never steer.
TEST(TelemetryDeterminismTest, TrainEpochBitIdenticalWithCollectionOn) {
  ThreadGuard guard;
  const auto triples = RandomTriples(600, 80, 10, 9);
  auto run = [&](int threads, bool collect) {
    telemetry::ResetForTesting();
    telemetry::SetCollectForTesting(collect);
    SetThreads(threads);
    Rng model_rng(11);
    auto model = embedding::CreateTripleModel(
        embedding::TripleModelKind::kTransE, 80, 10,
        embedding::TripleModelOptions{}, model_rng);
    Rng epoch_rng(42);
    const float loss =
        interaction::TrainEpoch(*model, triples, 2, epoch_rng);
    telemetry::SetCollectForTesting(false);
    return std::make_pair(loss, FlattenTable(model->entity_table()));
  };
  const auto baseline = run(1, /*collect=*/false);
  for (int threads : {1, 8}) {
    const auto observed = run(threads, /*collect=*/true);
    EXPECT_EQ(observed.first, baseline.first) << threads << " threads";
    ASSERT_EQ(observed.second, baseline.second) << threads << " threads";
  }
  telemetry::ResetForTesting();
}

TEST(TelemetryDeterminismTest, TrainEpochRecordsPerEpochMetrics) {
  ThreadGuard guard;
  CollectGuard collect;
  SetThreads(2);
  const auto triples = RandomTriples(600, 80, 10, 9);
  Rng model_rng(11);
  auto model = embedding::CreateTripleModel(
      embedding::TripleModelKind::kTransE, 80, 10,
      embedding::TripleModelOptions{}, model_rng);
  Rng epoch_rng(42);
  for (int epoch = 0; epoch < 3; ++epoch) {
    interaction::TrainEpoch(*model, triples, 2, epoch_rng);
  }
  const auto snap = telemetry::SnapshotMetrics();
  EXPECT_EQ(snap.counters.at("train/pair_epochs"), 3u);
  EXPECT_EQ(snap.counters.at("train/positives"), 3u * 600u);
  EXPECT_EQ(snap.series.at("train/pair_loss").size(), 3u);
  EXPECT_EQ(snap.histograms.at("train/pair_epoch_ms").count, 3u);
  bool saw_epoch_span = false;
  for (const auto& s : telemetry::SnapshotSpans()) {
    if (s.path == "train_epoch") {
      saw_epoch_span = true;
      EXPECT_EQ(s.count, 3u);
    }
  }
  EXPECT_TRUE(saw_epoch_span);
}

}  // namespace
}  // namespace openea
