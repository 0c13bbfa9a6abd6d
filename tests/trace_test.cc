// Tests for the event-tracing layer: ring wraparound + drop accounting,
// multi-thread merge ordering, Chrome trace JSON validity (every B has a
// matching E), the dual-emit path out of telemetry::ScopedSpan, and the
// zero-perturbation pin — traced training must be bit-identical to
// untraced training at any thread count (DESIGN.md, "Observability").

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/json.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/common/telemetry.h"
#include "src/common/trace.h"
#include "src/embedding/triple_model.h"
#include "src/interaction/trainer.h"
#include "src/math/embedding_table.h"

namespace openea {
namespace {

/// Stops and drains any session on both ends so tests compose in any order
/// within the shared gtest binary.
struct TraceGuard {
  TraceGuard() {
    trace::Stop();
    trace::DrainEvents();
  }
  ~TraceGuard() {
    trace::Stop();
    trace::DrainEvents();
  }
};

/// Restores the global thread count on scope exit (shared gtest process).
struct ThreadGuard {
  int saved = Threads();
  ~ThreadGuard() { SetThreads(saved); }
};

TEST(TraceRingTest, NoEventsRecordedWhileDisabled) {
  TraceGuard guard;
  ASSERT_FALSE(trace::Enabled());
  trace::Begin("off");
  trace::Instant("off");
  trace::Counter("off", 1.0);
  trace::End();
  uint64_t dropped = 7;
  EXPECT_TRUE(trace::DrainEvents(&dropped).empty());
  EXPECT_EQ(dropped, 7u + 0u);
}

TEST(TraceRingTest, WraparoundKeepsNewestAndCountsDropped) {
  TraceGuard guard;
  telemetry::ResetForTesting();
  telemetry::SetCollectForTesting(true);
  trace::TraceConfig config;
  config.events_per_thread = 8;
  trace::Start(config);
  for (int i = 0; i < 20; ++i) {
    trace::Instant("event_" + std::to_string(i));
  }
  trace::Stop();
  uint64_t dropped = 0;
  const auto events = trace::DrainEvents(&dropped);
  EXPECT_EQ(dropped, 12u);
  ASSERT_EQ(events.size(), 8u);
  // The ring overwrites oldest-first: events 12..19 survive, in order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].name_view(), "event_" + std::to_string(12 + i));
  }
  const auto snap = telemetry::SnapshotMetrics();
  EXPECT_EQ(snap.counters.at("telemetry/trace_dropped"), 12u);
  telemetry::SetCollectForTesting(false);
  telemetry::ResetForTesting();
}

TEST(TraceRingTest, EventNamesAreTruncatedNotOverrun) {
  TraceGuard guard;
  trace::Start({});
  const std::string long_name(200, 'x');
  trace::Instant(long_name);
  trace::Stop();
  const auto events = trace::DrainEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name_view(),
            long_name.substr(0, trace::TraceEvent::kMaxNameLength));
}

TEST(TraceMergeTest, MultiThreadDrainIsTimeSortedAcrossDistinctTids) {
  TraceGuard guard;
  trace::Start({});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      trace::SetCurrentThreadName("merge-test-" + std::to_string(t));
      for (int i = 0; i < kPerThread; ++i) {
        trace::Instant("tick");
        trace::Counter("count", static_cast<double>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  trace::Stop();
  uint64_t dropped = 0;
  const auto events = trace::DrainEvents(&dropped);
  EXPECT_EQ(dropped, 0u);
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads * kPerThread * 2));
  std::map<uint32_t, int> per_tid;
  for (size_t i = 0; i < events.size(); ++i) {
    ++per_tid[events[i].tid];
    if (i > 0) {
      EXPECT_LE(events[i - 1].ts_us, events[i].ts_us);
    }
  }
  EXPECT_EQ(per_tid.size(), static_cast<size_t>(kThreads));
  for (const auto& [tid, count] : per_tid) {
    EXPECT_EQ(count, kPerThread * 2) << "tid " << tid;
  }
}

TEST(TraceExportTest, ChromeDocumentParsesAndEveryBeginHasMatchingEnd) {
  TraceGuard guard;
  const std::string path = ::testing::TempDir() + "/trace_export.json";
  trace::Start({path});
  {
    trace::ScopedEvent outer("outer");
    trace::Instant("marker");
    {
      trace::ScopedEvent inner("inner");
      trace::Counter("loss", 0.5);
    }
  }
  ASSERT_TRUE(trace::StopAndExport().ok());

  json::Value doc;
  ASSERT_TRUE(json::ReadFile(path, &doc).ok());
  EXPECT_EQ(doc.Find("displayTimeUnit")->string_value(), "ms");
  EXPECT_EQ(doc.Find("otherData")->Find("dropped_events")->number(), 0.0);
  const auto& events = doc.Find("traceEvents")->array();
  std::map<double, std::vector<std::string>> open_by_tid;
  int begins = 0, ends = 0, instants = 0, counters = 0;
  for (const json::Value& e : events) {
    const std::string ph = e.Find("ph")->string_value();
    EXPECT_EQ(e.Find("pid")->number(), 1.0);
    const double tid = e.Find("tid")->number();
    if (ph == "B") {
      ++begins;
      open_by_tid[tid].push_back(e.Find("name")->string_value());
    } else if (ph == "E") {
      ++ends;
      ASSERT_FALSE(open_by_tid[tid].empty()) << "unmatched E";
      open_by_tid[tid].pop_back();
    } else if (ph == "i") {
      ++instants;
      EXPECT_EQ(e.Find("s")->string_value(), "t");
    } else if (ph == "C") {
      ++counters;
      EXPECT_EQ(e.Find("args")->Find("value")->number(), 0.5);
    }
  }
  EXPECT_EQ(begins, 2);
  EXPECT_EQ(ends, 2);
  EXPECT_EQ(instants, 1);
  EXPECT_EQ(counters, 1);
  for (const auto& [tid, open] : open_by_tid) {
    EXPECT_TRUE(open.empty()) << "unclosed B on tid " << tid;
  }
  // Atomic write: the finished export must not leave its temp file behind.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
  std::remove(path.c_str());
}

/// ScopedSpan dual-emits trace events even when the telemetry metric layer
/// is off — the span path machinery runs for whichever layer is enabled.
TEST(TraceDualEmitTest, ScopedSpanEmitsBeginEndWithTelemetryOff) {
  TraceGuard guard;
  ASSERT_FALSE(telemetry::Enabled());
  trace::Start({});
  {
    telemetry::ScopedSpan outer("span_outer");
    telemetry::ScopedSpan inner("span_inner");
  }
  trace::Stop();
  const auto events = trace::DrainEvents();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, trace::EventKind::kBegin);
  EXPECT_EQ(events[0].name_view(), "span_outer");
  EXPECT_EQ(events[1].kind, trace::EventKind::kBegin);
  EXPECT_EQ(events[1].name_view(), "span_inner");
  EXPECT_EQ(events[2].kind, trace::EventKind::kEnd);
  EXPECT_EQ(events[3].kind, trace::EventKind::kEnd);
  // Telemetry aggregation saw none of it.
  EXPECT_TRUE(telemetry::SnapshotSpans().empty());
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

/// The zero-perturbation pin for tracing, mirroring the telemetry one: a
/// sharded training epoch with a trace session active must be bit-identical
/// to the untraced run, serial and parallel alike.
TEST(TraceDeterminismTest, TrainEpochBitIdenticalWithTracingOn) {
  ThreadGuard thread_guard;
  TraceGuard trace_guard;
  const auto triples = RandomTriples(600, 80, 10, 9);
  auto run = [&](int threads, bool traced) {
    if (traced) trace::Start({});
    SetThreads(threads);
    Rng model_rng(11);
    auto model = embedding::CreateTripleModel(
        embedding::TripleModelKind::kTransE, 80, 10,
        embedding::TripleModelOptions{}, model_rng);
    Rng epoch_rng(42);
    const float loss =
        interaction::TrainEpoch(*model, triples, 2, epoch_rng);
    if (traced) {
      trace::Stop();
      EXPECT_FALSE(trace::DrainEvents().empty());
    }
    return std::make_pair(loss, FlattenTable(model->entity_table()));
  };
  const auto baseline = run(1, /*traced=*/false);
  for (int threads : {1, 8}) {
    const auto observed = run(threads, /*traced=*/true);
    EXPECT_EQ(observed.first, baseline.first) << threads << " threads";
    ASSERT_EQ(observed.second, baseline.second) << threads << " threads";
  }
}

}  // namespace
}  // namespace openea
