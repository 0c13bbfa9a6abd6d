#include "src/sampling/samplers.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/telemetry.h"
#include "src/kg/alignment_util.h"
#include "src/kg/graph_stats.h"

namespace openea::sampling {
namespace {

using datagen::DatasetPair;
using kg::Alignment;
using kg::AlignmentPair;
using kg::DegreeDistribution;
using kg::EntityId;

/// Weighted sampling without replacement (Efraimidis–Spirakis exponential
/// race): returns `k` indices from `candidates`, preferring large weights.
std::vector<EntityId> WeightedSampleWithoutReplacement(
    const std::vector<EntityId>& candidates, const std::vector<double>& weights,
    size_t k, Rng& rng) {
  OPENEA_CHECK_EQ(candidates.size(), weights.size());
  if (k >= candidates.size()) return candidates;
  if (k == 0) return {};
  std::vector<std::pair<double, EntityId>> keyed;
  keyed.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    const double w = std::max(weights[i], 1e-12);
    const double u = std::max(rng.NextDouble(), 1e-300);
    keyed.emplace_back(-std::log(u) / w, candidates[i]);
  }
  std::nth_element(keyed.begin(), keyed.begin() + static_cast<long>(k) - 1,
                   keyed.end());
  std::vector<EntityId> out;
  out.reserve(k);
  for (size_t i = 0; i < k; ++i) out.push_back(keyed[i].second);
  return out;
}

/// The kept set of `view`, as RestrictPair takes it.
std::unordered_set<EntityId> KeptSet(const kg::MaskedGraph& view) {
  const std::vector<EntityId> ids = view.KeptIds();
  return {ids.begin(), ids.end()};
}

/// A deletion proposed by one side during an IDS round. `priority` is the
/// over-representation of the entity's degree bucket (P(x) - Q(x)), so
/// isolates and over-sampled degrees are removed first when the round is
/// truncated to the remaining size gap.
struct ProposedDeletion {
  double priority = 0.0;
  EntityId source_id = kg::kInvalidId;
};

/// One IDS deletion round on one side: proposes up to dsize(x, mu) entities
/// per degree bucket x (Algorithm 1, line 7), sampling within a bucket with
/// probability inversely related to PageRank (line 8). Adds the PageRank
/// work, iterations x kept edges, to `*pagerank_edges`.
std::vector<ProposedDeletion> ProposeDeletions(const kg::MaskedGraph& side,
                                               const DegreeDistribution& q,
                                               double mu,
                                               int pagerank_iterations,
                                               Rng& rng,
                                               uint64_t* pagerank_edges) {
  // Entity e below is the induced subgraph's id; live[e] its source id.
  const std::vector<EntityId> live = side.KeptIds();
  const size_t n = live.size();
  const DegreeDistribution p = side.Distribution();
  const kg::OutEdgeCsr edges = side.KeptOutEdges(live);
  const std::vector<double> pagerank =
      kg::PageRank(edges, 0.85, pagerank_iterations);
  *pagerank_edges += static_cast<uint64_t>(std::max(pagerank_iterations, 0)) *
                     edges.targets.size();

  std::unordered_map<size_t, std::vector<EntityId>> by_degree;
  for (size_t e = 0; e < n; ++e) {
    by_degree[side.Degree(live[e])].push_back(static_cast<EntityId>(e));
  }
  std::vector<ProposedDeletion> proposals;
  for (auto& [degree, bucket] : by_degree) {
    // Isolated entities can never regain edges; they are proposed with
    // maximal priority so each round clears them first (IDS samples contain
    // no isolates, Table 3).
    const double over =
        degree == 0 ? 1e9 : p.At(degree) - q.At(degree);
    const double dsize_f = mu * (1.0 + over);
    const size_t dsize = dsize_f <= 0.0 ? 0 : static_cast<size_t>(dsize_f);
    if (dsize == 0) continue;
    std::vector<double> weights;
    weights.reserve(bucket.size());
    for (EntityId e : bucket) {
      // Inverse PageRank: influential entities are strongly protected.
      weights.push_back(1.0 / (pagerank[e] + 1e-12));
    }
    for (EntityId e :
         WeightedSampleWithoutReplacement(bucket, weights, dsize, rng)) {
      proposals.push_back({over, live[e]});
    }
  }
  return proposals;
}

}  // namespace

DatasetPair RestrictPair(const DatasetPair& pair,
                         const std::unordered_set<EntityId>& kept1,
                         const std::unordered_set<EntityId>& kept2) {
  DatasetPair out;
  out.name = pair.name;
  out.dictionary = pair.dictionary;
  std::vector<EntityId> map1, map2;
  out.kg1 = pair.kg1.InducedSubgraph(kept1, &map1);
  out.kg2 = pair.kg2.InducedSubgraph(kept2, &map2);
  out.reference = kg::RemapAlignment(pair.reference, map1, map2);
  // Rebuild the noisy training view in lock step with the surviving clean
  // pairs (same drops, so it stays index-parallel to `out.reference`). A
  // noisy right whose entity was sampled away falls back to the clean right.
  if (!pair.noisy_reference.empty()) {
    std::unordered_map<size_t, const datagen::SeedCorruption*> corruption_at;
    for (const datagen::SeedCorruption& c : pair.corruptions) {
      corruption_at[c.index] = &c;
    }
    size_t new_index = 0;
    for (size_t i = 0; i < pair.reference.size(); ++i) {
      const EntityId l = map1[pair.reference[i].left];
      const EntityId r = map2[pair.reference[i].right];
      if (l == kg::kInvalidId || r == kg::kInvalidId) continue;
      EntityId noisy_r = map2[pair.noisy_reference[i].right];
      if (noisy_r == kg::kInvalidId) noisy_r = r;
      out.noisy_reference.push_back({l, noisy_r});
      const auto it = corruption_at.find(i);
      if (it != corruption_at.end() && noisy_r != r) {
        out.corruptions.push_back(
            {new_index, {l, r}, it->second->kind});
      }
      ++new_index;
    }
  }
  // Dangling ground truth survives only where the entity itself was kept.
  for (EntityId e : pair.dangling1) {
    if (map1[e] != kg::kInvalidId) out.dangling1.push_back(map1[e]);
  }
  for (EntityId e : pair.dangling2) {
    if (map2[e] != kg::kInvalidId) out.dangling2.push_back(map2[e]);
  }
  std::sort(out.dangling1.begin(), out.dangling1.end());
  std::sort(out.dangling2.begin(), out.dangling2.end());
  return out;
}

DatasetPair IterativeDegreeSampling(const DatasetPair& source,
                                    const IdsOptions& options) {
  const size_t target = options.target_size;
  OPENEA_CHECK_GT(target, 0u);

  // Source degree distributions Q1, Q2 (Algorithm 1, line 2).
  const DegreeDistribution q1 = kg::ComputeDegreeDistribution(source.kg1);
  const DegreeDistribution q2 = kg::ComputeDegreeDistribution(source.kg2);

  // Line 1: retain only entities in the reference alignment.
  std::vector<bool> aligned1(source.kg1.NumEntities(), false);
  std::vector<bool> aligned2(source.kg2.NumEntities(), false);
  std::vector<EntityId> l2r(source.kg1.NumEntities(), kg::kInvalidId);
  std::vector<EntityId> r2l(source.kg2.NumEntities(), kg::kInvalidId);
  for (const AlignmentPair& ap : source.reference) {
    aligned1[ap.left] = true;
    aligned2[ap.right] = true;
    l2r[ap.left] = ap.right;
    r2l[ap.right] = ap.left;
  }

  Rng rng(options.seed);
  DatasetPair best;
  double best_js = 1e9;
  uint64_t rounds = 0, pagerank_edges = 0;

  for (int attempt = 0; attempt < options.max_retries; ++attempt) {
    kg::MaskedGraph side1(source.kg1, aligned1);
    kg::MaskedGraph side2(source.kg2, aligned2);

    while (side1.NumKept() > target && side2.NumKept() > target) {
      ++rounds;
      auto proposals =
          ProposeDeletions(side1, q1, options.mu, options.pagerank_iterations,
                           rng, &pagerank_edges);
      // Side-2 proposals are mapped to their left counterparts so that an
      // aligned pair dies together (Algorithm 1, line 10).
      for (const ProposedDeletion& d :
           ProposeDeletions(side2, q2, options.mu, options.pagerank_iterations,
                            rng, &pagerank_edges)) {
        proposals.push_back({d.priority, r2l[d.source_id]});
      }
      if (proposals.empty()) break;  // No progress possible.

      // Deduplicate by left id, keeping the highest priority; then delete
      // the most over-represented entities first, capped to the remaining
      // gap so a round never overshoots the target size.
      std::unordered_map<EntityId, double> best;
      for (const ProposedDeletion& d : proposals) {
        auto [it, inserted] = best.emplace(d.source_id, d.priority);
        if (!inserted && d.priority > it->second) it->second = d.priority;
      }
      std::vector<ProposedDeletion> unique;
      unique.reserve(best.size());
      for (const auto& [id, priority] : best) unique.push_back({priority, id});
      std::sort(unique.begin(), unique.end(),
                [](const ProposedDeletion& a, const ProposedDeletion& b) {
                  return a.priority > b.priority;
                });
      const size_t gap = side1.NumKept() - target;
      // A round deletes at most mu entities (the base step size), so the
      // distribution re-equilibrates between rounds instead of collapsing.
      const size_t to_delete = std::min(
          {gap, unique.size(),
           static_cast<size_t>(std::max(options.mu, 1.0))});
      for (size_t i = 0; i < to_delete; ++i) {
        const EntityId left = unique[i].source_id;
        side1.Remove(left);
        side2.Remove(l2r[left]);
      }
    }

    // Final cleanup: the last rounds may have stranded a few isolates.
    // Remove them (pairwise) as long as the sample stays within 2% of the
    // target size.
    const size_t min_size = target - target / 50;
    for (int pass = 0; pass < 4 && side1.NumKept() > min_size; ++pass) {
      std::vector<EntityId> isolates;
      for (EntityId e : side1.KeptIds()) {
        if (side1.Degree(e) == 0) isolates.push_back(e);
      }
      for (EntityId e : side2.KeptIds()) {
        if (side2.Degree(e) == 0) isolates.push_back(r2l[e]);
      }
      if (isolates.empty()) break;
      for (EntityId left : isolates) {
        if (side1.NumKept() <= min_size) break;
        if (side1.Remove(left)) side2.Remove(l2r[left]);
      }
    }

    // Line 12; only an attempt that beats the best so far is materialized.
    const double worst =
        std::max(kg::JensenShannonDivergence(q1, side1.Distribution()),
                 kg::JensenShannonDivergence(q2, side2.Distribution()));
    if (worst < best_js) {
      best_js = worst;
      best = RestrictPair(source, KeptSet(side1), KeptSet(side2));
    }
    if (best_js <= options.epsilon) break;  // Line 12 condition met.
  }
  telemetry::IncrCounter("sampling/ids_rounds", rounds);
  telemetry::IncrCounter("sampling/ids_pagerank_edges", pagerank_edges);
  return best;
}

DatasetPair RandomAlignmentSampling(const DatasetPair& source,
                                    size_t target_size, uint64_t seed) {
  Rng rng(seed);
  Alignment pool = source.reference;
  rng.Shuffle(pool);
  if (pool.size() > target_size) pool.resize(target_size);
  std::unordered_set<EntityId> kept1, kept2;
  for (const AlignmentPair& ap : pool) {
    kept1.insert(ap.left);
    kept2.insert(ap.right);
  }
  return RestrictPair(source, kept1, kept2);
}

DatasetPair PageRankSampling(const DatasetPair& source, size_t target_size,
                             uint64_t seed) {
  Rng rng(seed);
  const std::vector<double> pr = kg::PageRank(source.kg1);
  std::unordered_map<EntityId, EntityId> l2r;
  for (const AlignmentPair& ap : source.reference) l2r[ap.left] = ap.right;

  // Entities not involved in any alignment are discarded; the rest are
  // sampled proportionally to PageRank.
  std::vector<EntityId> candidates;
  std::vector<double> weights;
  for (const auto& [left, right] : l2r) {
    (void)right;
    candidates.push_back(left);
    weights.push_back(pr[left]);
  }
  std::unordered_set<EntityId> kept1, kept2;
  for (EntityId left : WeightedSampleWithoutReplacement(
           candidates, weights, target_size, rng)) {
    kept1.insert(left);
    kept2.insert(l2r[left]);
  }
  return RestrictPair(source, kept1, kept2);
}

DatasetPair DensifyPair(const DatasetPair& source, double density_factor,
                        uint64_t seed, size_t max_degree_to_delete) {
  Rng rng(seed);
  const double target_degree = source.kg1.AverageDegree() * density_factor;

  std::unordered_set<EntityId> kept1, kept2;
  for (size_t e = 0; e < source.kg1.NumEntities(); ++e) {
    kept1.insert(static_cast<EntityId>(e));
  }
  for (size_t e = 0; e < source.kg2.NumEntities(); ++e) {
    kept2.insert(static_cast<EntityId>(e));
  }
  std::unordered_map<EntityId, EntityId> l2r;
  for (const AlignmentPair& ap : source.reference) l2r[ap.left] = ap.right;

  kg::MaskedGraph side1(source.kg1,
                        std::vector<bool>(source.kg1.NumEntities(), true));
  int guard = 0;
  while (side1.AverageDegree() < target_degree && guard++ < 60) {
    // Low-degree kept entities, in kept1's iteration order: the shuffle
    // below depends on it.
    std::vector<EntityId> candidates;
    for (EntityId e : kept1) {
      if (side1.Degree(e) <= max_degree_to_delete) candidates.push_back(e);
    }
    if (candidates.empty()) break;
    rng.Shuffle(candidates);
    const size_t batch =
        std::max<size_t>(1, candidates.size() / 5);  // 20% per round.
    for (size_t i = 0; i < batch && i < candidates.size(); ++i) {
      const EntityId e = candidates[i];
      kept1.erase(e);
      side1.Remove(e);
      auto it = l2r.find(e);
      if (it != l2r.end()) kept2.erase(it->second);
    }
  }
  return RestrictPair(source, kept1, kept2);
}

SampleQuality EvaluateSampleQuality(const DatasetPair& sample,
                                    const DatasetPair& source) {
  SampleQuality q;
  q.alignment_size = sample.reference.size();
  q.avg_degree1 = sample.kg1.AverageDegree();
  q.avg_degree2 = sample.kg2.AverageDegree();
  q.js1 = kg::JensenShannonDivergence(
      kg::ComputeDegreeDistribution(source.kg1),
      kg::ComputeDegreeDistribution(sample.kg1));
  q.js2 = kg::JensenShannonDivergence(
      kg::ComputeDegreeDistribution(source.kg2),
      kg::ComputeDegreeDistribution(sample.kg2));
  q.isolated1 = kg::IsolatedEntityRatio(sample.kg1);
  q.isolated2 = kg::IsolatedEntityRatio(sample.kg2);
  q.clustering1 = kg::AverageClusteringCoefficient(sample.kg1);
  q.clustering2 = kg::AverageClusteringCoefficient(sample.kg2);
  return q;
}

}  // namespace openea::sampling
