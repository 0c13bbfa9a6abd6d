#include "src/interaction/trainer.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "src/common/fault.h"
#include "src/common/health.h"
#include "src/common/parallel.h"
#include "src/common/stopwatch.h"
#include "src/common/telemetry.h"
#include "src/common/trace.h"
#include "src/math/vec.h"

namespace openea::interaction {
namespace {

/// Ends an epoch of the given kind ("pair", "positive", "calibrate"): the
/// `train/epoch_loss` fault point may poison the loss; the loss goes to the
/// active health monitor's window for `kind`; and the per-epoch telemetry
/// shared by the epoch trainers is recorded: loss and throughput series
/// (Figure 7-style convergence traces), epoch wall time, and the epoch
/// counter. With a trace session active, the same numbers go out as
/// timeline counter events plus an epoch-boundary instant. Never touches
/// any RNG.
EpochOutcome FinishEpoch(const char* kind, float loss, size_t positives,
                         double seconds) {
  if (FAULT_POINT("train/epoch_loss")) {
    loss = std::numeric_limits<float>::quiet_NaN();
  }
  const EpochOutcome outcome{loss, health::ReportLoss(loss, kind)};
  const bool telem = telemetry::Enabled();
  const bool tracing = trace::Enabled();
  if (!telem && !tracing) return outcome;
  const std::string prefix = std::string("train/") + kind;
  if (telem) {
    const uint64_t epochs = telemetry::IncrCounter(prefix + "_epochs");
    telemetry::IncrCounter("train/positives", positives);
    telemetry::AppendSeries(prefix + "_loss", loss);
    telemetry::Observe(prefix + "_epoch_ms", seconds * 1e3);
    if (seconds > 0.0) {
      telemetry::Observe(prefix + "_positives_per_sec",
                         static_cast<double>(positives) / seconds);
      telemetry::SetGauge("heartbeat/rows_per_sec",
                          static_cast<double>(positives) / seconds);
    }
    telemetry::SetGauge(prefix + "_last_loss", loss);
    // Progress gauges read by the live-metrics heartbeat (metrics_export):
    // cumulative epochs across every trained kind and fold.
    telemetry::SetGauge("heartbeat/epoch", static_cast<double>(epochs));
  }
  if (tracing) {
    trace::Instant(prefix + "_epoch_done");
    trace::Counter(prefix + "_loss", loss);
    if (seconds > 0.0) {
      trace::Counter(prefix + "_positives_per_sec",
                     static_cast<double>(positives) / seconds);
    }
  }
  return outcome;
}

/// Positives per shard of the epoch draws. Fixed (never derived from the
/// thread count) so the shard -> RNG-stream assignment, and with it every
/// drawn corruption, is identical no matter how many threads run.
constexpr size_t kEpochShardSize = 256;

/// Calls draw(i, stream) for every i in [0, count), shard-parallel, where
/// `stream` is Rng::Fork(shard) of i's shard and visits the shard in order.
/// `rng` is not advanced. Sharding over shard *indices* (not raw ParallelFor
/// chunks) keeps the stream assignment exact on the pool's serial fast path.
template <typename Draw>
void ShardedDraw(size_t count, const Rng& rng, const Draw& draw) {
  const size_t num_shards = (count + kEpochShardSize - 1) / kEpochShardSize;
  ParallelFor(0, num_shards, 1, [&](size_t shard_begin, size_t shard_end) {
    for (size_t s = shard_begin; s < shard_end; ++s) {
      Rng stream = rng.Fork(s);
      const size_t hi = std::min(count, (s + 1) * kEpochShardSize);
      for (size_t i = s * kEpochShardSize; i < hi; ++i) draw(i, stream);
    }
  });
}

}  // namespace

EpochOutcome TrainEpoch(embedding::TripleModel& model,
                        const std::vector<kg::Triple>& triples, int negatives,
                        Rng& rng,
                        const embedding::TruncatedNegativeSampler* truncated) {
  if (triples.empty()) return {};
  telemetry::ScopedSpan span("train_epoch");
  Stopwatch watch;
  std::vector<size_t> order(triples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);
  const size_t n = model.num_entities();
  const bool use_truncated = truncated != nullptr && truncated->initialized();

  // Corruptions are drawn shard-parallel from forked streams, then the
  // (sequentially dependent) gradient updates replay serially in shuffle
  // order.
  const size_t per_positive = static_cast<size_t>(std::max(negatives, 0));
  std::vector<kg::Triple> negs(order.size() * per_positive);
  ShardedDraw(order.size(), rng, [&](size_t i, Rng& stream) {
    const kg::Triple& pos = triples[order[i]];
    for (size_t k = 0; k < per_positive; ++k) {
      negs[i * per_positive + k] =
          use_truncated ? truncated->Corrupt(pos, n, stream)
                        : embedding::CorruptUniform(pos, n, stream);
    }
  });
  float total = 0.0f;
  for (size_t i = 0; i < order.size(); ++i) {
    const kg::Triple& pos = triples[order[i]];
    for (size_t k = 0; k < per_positive; ++k) {
      total += model.TrainOnPair(pos, negs[i * per_positive + k]);
    }
  }
  model.PostEpoch();
  return FinishEpoch("pair", total / static_cast<float>(triples.size()),
                     triples.size(), watch.ElapsedSeconds());
}

EpochOutcome TrainEpochPositiveOnly(embedding::TripleModel& model,
                                    const std::vector<kg::Triple>& triples,
                                    Rng& rng) {
  if (triples.empty()) return {};
  telemetry::ScopedSpan span("train_epoch");
  Stopwatch watch;
  std::vector<size_t> order(triples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);
  float total = 0.0f;
  for (size_t idx : order) total += model.TrainOnPositive(triples[idx]);
  model.PostEpoch();
  return FinishEpoch("positive",
                     total / static_cast<float>(triples.size()),
                     triples.size(), watch.ElapsedSeconds());
}

EpochOutcome CalibrateEpoch(
    math::EmbeddingTable& entities,
    const std::vector<std::pair<kg::EntityId, kg::EntityId>>& pairs,
    float learning_rate, float margin, int negatives, Rng& rng) {
  telemetry::ScopedSpan span("calibrate_epoch");
  Stopwatch watch;
  const size_t d = entities.dim();
  const size_t n = entities.num_rows();

  // Presample the negative candidates shard-parallel from forked streams,
  // then apply the (sequentially dependent) updates in pair order. With no
  // rows to draw from, no negatives are drawn.
  const size_t per_pair =
      n > 0 ? static_cast<size_t>(std::max(negatives, 0)) : 0;
  std::vector<kg::EntityId> candidates;
  if (per_pair > 0) {
    candidates.resize(pairs.size() * per_pair);
    ShardedDraw(pairs.size(), rng, [&](size_t i, Rng& stream) {
      for (size_t k = 0; k < per_pair; ++k) {
        candidates[i * per_pair + k] =
            static_cast<kg::EntityId>(stream.NextBounded(n));
      }
    });
  }

  std::vector<float> grad(d);
  float total = 0.0f;
  for (size_t pair_index = 0; pair_index < pairs.size(); ++pair_index) {
    const auto& [a, b] = pairs[pair_index];
    if (a == b) continue;  // Shared rows need no calibration.
    // Positive: pull together. grad_a = 2 (a - b).
    {
      const auto va = entities.Row(a);
      const auto vb = entities.Row(b);
      float dist = 0.0f;
      for (size_t i = 0; i < d; ++i) {
        grad[i] = 2.0f * (va[i] - vb[i]);
        const float diff = va[i] - vb[i];
        dist += diff * diff;
      }
      total += dist;
      entities.ApplyGradient(a, grad, learning_rate);
      for (size_t i = 0; i < d; ++i) grad[i] = -grad[i];
      entities.ApplyGradient(b, grad, learning_rate);
    }
    // Negatives: push a away from random entities within the margin.
    for (size_t k = 0; k < per_pair; ++k) {
      const kg::EntityId c = candidates[pair_index * per_pair + k];
      if (c == a || c == b) continue;
      const auto va = entities.Row(a);
      const auto vc = entities.Row(c);
      float dist = 0.0f;
      for (size_t i = 0; i < d; ++i) {
        const float diff = va[i] - vc[i];
        dist += diff * diff;
      }
      if (dist >= margin) continue;
      total += margin - dist;
      for (size_t i = 0; i < d; ++i) grad[i] = -2.0f * (va[i] - vc[i]);
      entities.ApplyGradient(a, grad, learning_rate);
      for (size_t i = 0; i < d; ++i) grad[i] = -grad[i];
      entities.ApplyGradient(c, grad, learning_rate);
    }
  }
  return FinishEpoch(
      "calibrate",
      pairs.empty() ? 0.0f : total / static_cast<float>(pairs.size()),
      pairs.size(), watch.ElapsedSeconds());
}

size_t PathCompositionEpoch(math::EmbeddingTable& relations,
                            const std::vector<kg::Triple>& triples,
                            size_t num_entities, float learning_rate,
                            size_t max_paths, Rng& rng) {
  // Index: outgoing triples per entity, and direct relation lookup.
  std::vector<std::vector<size_t>> outgoing(num_entities);
  std::unordered_map<int64_t, std::vector<kg::RelationId>> direct;
  for (size_t i = 0; i < triples.size(); ++i) {
    const kg::Triple& t = triples[i];
    outgoing[t.head].push_back(i);
    direct[(static_cast<int64_t>(t.head) << 32) ^
           static_cast<int64_t>(t.tail)]
        .push_back(t.relation);
  }

  const size_t d = relations.dim();
  std::vector<float> grad(d);
  size_t visited = 0;
  for (size_t attempt = 0; attempt < max_paths * 8 && visited < max_paths;
       ++attempt) {
    const kg::Triple& first = triples[rng.NextBounded(triples.size())];
    const auto& outs = outgoing[first.tail];
    if (outs.empty()) continue;
    const kg::Triple& second = triples[outs[rng.NextBounded(outs.size())]];
    const auto it = direct.find((static_cast<int64_t>(first.head) << 32) ^
                                static_cast<int64_t>(second.tail));
    if (it == direct.end()) continue;
    const kg::RelationId r3 =
        it->second[rng.NextBounded(it->second.size())];
    ++visited;
    // Minimize ||r1 + r2 - r3||^2 (paper Eq. 2 with sum composition).
    const auto r1 = relations.Row(first.relation);
    const auto r2 = relations.Row(second.relation);
    const auto r3v = relations.Row(r3);
    for (size_t i = 0; i < d; ++i) {
      grad[i] = 2.0f * (r1[i] + r2[i] - r3v[i]);
    }
    relations.ApplyGradient(first.relation, grad, learning_rate);
    relations.ApplyGradient(second.relation, grad, learning_rate);
    for (size_t i = 0; i < d; ++i) grad[i] = -grad[i];
    relations.ApplyGradient(r3, grad, learning_rate);
  }
  return visited;
}

}  // namespace openea::interaction
