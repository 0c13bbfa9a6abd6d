#include "src/approaches/alinet.h"

#include <unordered_set>

#include "src/approaches/common.h"
#include "src/embedding/gcn.h"
#include "src/interaction/unified_kg.h"

namespace openea::approaches {
namespace {

/// One-hop edges (weight 1) plus sampled two-hop edges (down-weighted):
/// AliNet's multi-hop aggregation realized at the propagation-graph level.
std::vector<embedding::GcnEdge> BuildMultiHopEdges(
    const interaction::UnifiedKg& unified, float two_hop_weight,
    size_t max_two_hop_per_entity, Rng& rng) {
  std::vector<embedding::GcnEdge> edges =
      BuildGcnEdges(unified, /*relation_aware=*/false);

  // Undirected one-hop adjacency for the walk.
  std::vector<std::vector<int>> adj(unified.num_entities);
  for (const embedding::GcnEdge& e : edges) {
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  std::unordered_set<int64_t> seen;
  for (const embedding::GcnEdge& e : edges) {
    seen.insert((static_cast<int64_t>(std::min(e.u, e.v)) << 32) ^
                std::max(e.u, e.v));
  }
  for (size_t u = 0; u < unified.num_entities; ++u) {
    const auto& hop1 = adj[u];
    if (hop1.empty()) continue;
    for (size_t k = 0; k < max_two_hop_per_entity; ++k) {
      const int mid = hop1[rng.NextBounded(hop1.size())];
      const auto& hop2 = adj[mid];
      if (hop2.empty()) continue;
      const int v = hop2[rng.NextBounded(hop2.size())];
      if (v == static_cast<int>(u)) continue;
      const int64_t key =
          (static_cast<int64_t>(std::min<int>(u, v)) << 32) ^
          std::max<int>(u, v);
      if (!seen.insert(key).second) continue;  // Already 1-hop or sampled.
      edges.push_back({static_cast<int>(u), v, two_hop_weight});
    }
  }
  return edges;
}

}  // namespace

core::ApproachRequirements AliNet::requirements() const {
  core::ApproachRequirements req;
  req.relation_triples = core::Requirement::kMandatory;
  req.pre_aligned_entities = core::Requirement::kMandatory;
  return req;
}

core::AlignmentModel AliNet::Train(const core::AlignmentTask& task) {
  Rng rng(config_.seed);
  const interaction::UnifiedKg unified = interaction::BuildUnifiedKg(
      task, interaction::CombinationMode::kNone, task.train);

  embedding::GcnOptions options;
  options.dim = config_.dim;
  options.layers = 2;
  options.learning_rate = config_.learning_rate;
  options.highway = true;  // The gating element of AliNet's aggregation.
  options.trainable_features = true;
  embedding::GcnEncoder gcn(
      unified.num_entities,
      BuildMultiHopEdges(unified, /*two_hop_weight=*/0.3f,
                         /*max_two_hop_per_entity=*/4, rng),
      options, rng);

  math::Matrix grad;
  return TrainWithEarlyStopping(
      config_, task.valid, /*patience=*/10,
      [&](int) {
        const math::Matrix& output = gcn.Forward();
        AlignmentLossGrad(output, unified.merged_seeds, config_.margin,
                          3 * config_.negatives_per_positive, rng, grad);
        gcn.Backward(grad);
      },
      [&] {
        gcn.Forward();
        return GatherUnifiedModel(unified, gcn.output());
      });
}

}  // namespace openea::approaches
