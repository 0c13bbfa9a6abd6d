#include "src/approaches/common.h"

#include <cmath>
#include <functional>
#include <unordered_map>

#include "src/common/logging.h"
#include "src/common/telemetry.h"
#include "src/eval/metrics.h"
#include "src/math/vec.h"

namespace openea::approaches {
namespace {

core::AlignmentModel GatherFrom(
    const interaction::UnifiedKg& unified, size_t dim,
    const std::function<std::span<const float>(size_t)>& row_of) {
  core::AlignmentModel model;
  model.emb1 = math::Matrix(unified.map1.size(), dim);
  model.emb2 = math::Matrix(unified.map2.size(), dim);
  for (size_t e = 0; e < unified.map1.size(); ++e) {
    const auto src = row_of(unified.map1[e]);
    std::copy(src.begin(), src.end(), model.emb1.Row(e).begin());
  }
  for (size_t e = 0; e < unified.map2.size(); ++e) {
    const auto src = row_of(unified.map2[e]);
    std::copy(src.begin(), src.end(), model.emb2.Row(e).begin());
  }
  return model;
}

}  // namespace

core::AlignmentModel GatherUnifiedModel(const interaction::UnifiedKg& unified,
                                        const math::EmbeddingTable& entities) {
  return GatherFrom(unified, entities.dim(),
                    [&](size_t id) { return entities.Row(id); });
}

core::AlignmentModel GatherUnifiedModel(const interaction::UnifiedKg& unified,
                                        const math::Matrix& embeddings) {
  return GatherFrom(unified, embeddings.cols(),
                    [&](size_t id) { return embeddings.Row(id); });
}

math::Matrix ConcatViews(const math::Matrix& a, const math::Matrix& b,
                         float weight) {
  OPENEA_CHECK_EQ(a.rows(), b.rows());
  math::Matrix out(a.rows(), a.cols() + b.cols());
  std::vector<float> tmp;
  for (size_t i = 0; i < a.rows(); ++i) {
    auto dst = out.Row(i);
    tmp.assign(a.Row(i).begin(), a.Row(i).end());
    math::NormalizeL2(std::span<float>(tmp));
    std::copy(tmp.begin(), tmp.end(), dst.begin());
    tmp.assign(b.Row(i).begin(), b.Row(i).end());
    math::NormalizeL2(std::span<float>(tmp));
    math::Scale(weight, std::span<float>(tmp));
    std::copy(tmp.begin(), tmp.end(), dst.begin() + a.cols());
  }
  return out;
}

core::AlignmentModel TrainWithEarlyStopping(
    const core::TrainConfig& config, const kg::Alignment& valid, int patience,
    const std::function<void(int epoch)>& train_epoch,
    const std::function<core::AlignmentModel()>& snapshot) {
  core::AlignmentModel best;
  double best_hits1 = -1.0;
  int bad_checks = 0;
  for (int epoch = 1; epoch <= config.max_epochs; ++epoch) {
    train_epoch(epoch);
    // Always evaluate on the last epoch so that short runs (max_epochs <
    // eval_every) still snapshot a model instead of returning empty
    // embeddings.
    if (epoch % config.eval_every != 0 && epoch != config.max_epochs) {
      continue;
    }
    core::AlignmentModel current = snapshot();
    const double hits1 =
        eval::Hits1(current, valid, align::DistanceMetric::kCosine);
    const bool improved = hits1 > best_hits1 + 1e-6;
    if (improved) {
      best_hits1 = hits1;
      bad_checks = 0;
    } else {
      ++bad_checks;
    }
    if (improved || best.emb1.rows() == 0) best = std::move(current);
    const bool stop = bad_checks >= patience;
    if (telemetry::Enabled()) {
      telemetry::IncrCounter("train/early_stop_checks");
      telemetry::AppendSeries("train/valid_hits1", hits1);
      telemetry::SetGauge("train/best_valid_hits1", best_hits1);
      if (stop) telemetry::IncrCounter("train/early_stops");
    }
    if (stop) break;
  }
  return best;
}

std::vector<embedding::GcnEdge> BuildGcnEdges(
    const interaction::UnifiedKg& unified, bool relation_aware) {
  std::unordered_map<kg::RelationId, size_t> freq;
  if (relation_aware) {
    for (const kg::Triple& t : unified.triples) ++freq[t.relation];
  }
  std::unordered_map<int64_t, float> edges;
  for (const kg::Triple& t : unified.triples) {
    if (t.head == t.tail) continue;
    const kg::EntityId u = std::min(t.head, t.tail);
    const kg::EntityId v = std::max(t.head, t.tail);
    const float w =
        relation_aware
            ? 1.0f / std::log(2.0f + static_cast<float>(freq[t.relation]))
            : 1.0f;
    auto [it, inserted] =
        edges.emplace((static_cast<int64_t>(u) << 32) ^ v, w);
    if (!inserted) it->second = std::max(it->second, w);
  }
  std::vector<embedding::GcnEdge> out;
  out.reserve(edges.size());
  for (const auto& [key, w] : edges) {
    out.push_back({static_cast<int>(key >> 32),
                   static_cast<int>(key & 0xffffffff), w});
  }
  return out;
}

text::PseudoWordEmbeddings MakeWordEmbeddings(const core::AlignmentTask& task,
                                              size_t dim, uint64_t seed) {
  return text::PseudoWordEmbeddings(dim, seed, task.dictionary);
}

math::Matrix StackKgFeatures(const math::Matrix& features1,
                             const math::Matrix& features2) {
  OPENEA_CHECK_EQ(features1.cols(), features2.cols());
  math::Matrix out(features1.rows() + features2.rows(), features1.cols());
  for (size_t i = 0; i < features1.rows(); ++i) {
    const auto src = features1.Row(i);
    std::copy(src.begin(), src.end(), out.Row(i).begin());
  }
  for (size_t i = 0; i < features2.rows(); ++i) {
    const auto src = features2.Row(i);
    std::copy(src.begin(), src.end(),
              out.Row(features1.rows() + i).begin());
  }
  return out;
}

float AlignmentLossGrad(
    const math::Matrix& embeddings,
    const std::vector<std::pair<kg::EntityId, kg::EntityId>>& pairs,
    float margin, int negatives, Rng& rng, math::Matrix& grad) {
  grad = math::Matrix(embeddings.rows(), embeddings.cols(), 0.0f);
  if (pairs.empty()) return 0.0f;
  const size_t d = embeddings.cols();
  const size_t n = embeddings.rows();
  float total = 0.0f;
  for (const auto& [a, b] : pairs) {
    if (a == b) continue;
    const auto va = embeddings.Row(a);
    const auto vb = embeddings.Row(b);
    auto ga = grad.Row(a);
    auto gb = grad.Row(b);
    float dist = 0.0f;
    for (size_t i = 0; i < d; ++i) {
      const float diff = va[i] - vb[i];
      dist += diff * diff;
      ga[i] += 2.0f * diff;
      gb[i] -= 2.0f * diff;
    }
    total += dist;
    for (int k = 0; k < negatives; ++k) {
      const kg::EntityId c = static_cast<kg::EntityId>(rng.NextBounded(n));
      if (c == a || c == b) continue;
      const auto vc = embeddings.Row(c);
      float neg_dist = 0.0f;
      for (size_t i = 0; i < d; ++i) {
        const float diff = va[i] - vc[i];
        neg_dist += diff * diff;
      }
      if (neg_dist >= margin) continue;
      total += margin - neg_dist;
      auto gc = grad.Row(c);
      for (size_t i = 0; i < d; ++i) {
        const float diff = va[i] - vc[i];
        ga[i] -= 2.0f * diff;
        gc[i] += 2.0f * diff;
      }
    }
  }
  return total / static_cast<float>(pairs.size());
}

}  // namespace openea::approaches
