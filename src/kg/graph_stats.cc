#include "src/kg/graph_stats.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

namespace openea::kg {
namespace {

/// The out-edges of `graph`'s relation triples (head -> tail), each
/// entity's in triple order.
OutEdgeCsr RelationOutEdges(const KnowledgeGraph& graph) {
  OutEdgeCsr csr;
  csr.offsets.assign(graph.NumEntities() + 1, 0);
  for (const Triple& t : graph.triples()) ++csr.offsets[t.head + 1];
  for (size_t e = 1; e < csr.offsets.size(); ++e) {
    csr.offsets[e] += csr.offsets[e - 1];
  }
  csr.targets.resize(graph.NumTriples());
  std::vector<size_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
  for (const Triple& t : graph.triples()) {
    csr.targets[cursor[t.head]++] = t.tail;
  }
  return csr;
}

}  // namespace

DegreeDistribution ComputeDegreeDistribution(const KnowledgeGraph& graph) {
  std::vector<size_t> degrees(graph.NumEntities());
  for (size_t e = 0; e < degrees.size(); ++e) {
    degrees[e] = graph.Degree(static_cast<EntityId>(e));
  }
  return DegreeDistributionOf(degrees);
}

DegreeDistribution DegreeDistributionOf(const std::vector<size_t>& degrees) {
  DegreeDistribution dist;
  const size_t n = degrees.size();
  if (n == 0) return dist;
  const size_t max_degree = *std::max_element(degrees.begin(), degrees.end());
  dist.proportion.assign(max_degree + 1, 0.0);
  for (size_t d : degrees) dist.proportion[d] += 1.0;
  for (double& p : dist.proportion) p /= static_cast<double>(n);
  return dist;
}

double JensenShannonDivergence(const DegreeDistribution& q,
                               const DegreeDistribution& p) {
  const size_t n = std::max(q.proportion.size(), p.proportion.size());
  double js = 0.0;
  for (size_t d = 0; d < n; ++d) {
    const double qd = q.At(d);
    const double pd = p.At(d);
    const double md = 0.5 * (qd + pd);
    if (md <= 0.0) continue;
    if (qd > 0.0) js += 0.5 * qd * std::log(qd / md);
    if (pd > 0.0) js += 0.5 * pd * std::log(pd / md);
  }
  return js;
}

double IsolatedEntityRatio(const KnowledgeGraph& graph) {
  const size_t n = graph.NumEntities();
  if (n == 0) return 0.0;
  size_t isolated = 0;
  for (size_t e = 0; e < n; ++e) {
    if (graph.Degree(static_cast<EntityId>(e)) == 0) ++isolated;
  }
  return static_cast<double>(isolated) / static_cast<double>(n);
}

double AverageClusteringCoefficient(const KnowledgeGraph& graph) {
  const size_t n = graph.NumEntities();
  if (n == 0) return 0.0;
  // Build undirected unique-neighbour sets.
  std::vector<std::unordered_set<EntityId>> adj(n);
  for (const Triple& t : graph.triples()) {
    if (t.head == t.tail) continue;
    adj[t.head].insert(t.tail);
    adj[t.tail].insert(t.head);
  }
  double total = 0.0;
  for (size_t e = 0; e < n; ++e) {
    const auto& nbrs = adj[e];
    const size_t k = nbrs.size();
    if (k < 2) continue;
    size_t links = 0;
    for (EntityId u : nbrs) {
      // Count each pair once by requiring u < v.
      for (EntityId v : nbrs) {
        if (u < v && adj[u].count(v) > 0) ++links;
      }
    }
    total += 2.0 * static_cast<double>(links) /
             (static_cast<double>(k) * static_cast<double>(k - 1));
  }
  return total / static_cast<double>(n);
}

std::vector<double> PageRank(const KnowledgeGraph& graph, double damping,
                             int iterations) {
  return PageRank(RelationOutEdges(graph), damping, iterations);
}

std::vector<double> PageRank(const OutEdgeCsr& edges, double damping,
                             int iterations) {
  const size_t n = edges.NumEntities();
  if (n == 0) return {};
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n, 0.0);
  for (int it = 0; it < iterations; ++it) {
    std::fill(next.begin(), next.end(), 0.0);
    double dangling = 0.0;
    for (size_t e = 0; e < n; ++e) {
      const size_t begin = edges.offsets[e];
      const size_t end = edges.offsets[e + 1];
      if (begin == end) {
        dangling += rank[e];
        continue;
      }
      const double share = rank[e] / static_cast<double>(end - begin);
      for (size_t i = begin; i < end; ++i) next[edges.targets[i]] += share;
    }
    const double base =
        (1.0 - damping) / static_cast<double>(n) +
        damping * dangling / static_cast<double>(n);
    for (size_t e = 0; e < n; ++e) next[e] = base + damping * next[e];
    rank.swap(next);
  }
  return rank;
}

MaskedGraph::MaskedGraph(const KnowledgeGraph& graph, std::vector<bool> kept)
    : graph_(&graph), kept_(std::move(kept)), degree_(kept_.size(), 0) {
  num_kept_ = static_cast<size_t>(std::count(kept_.begin(), kept_.end(), true));
  for (const Triple& t : graph.triples()) {
    if (!kept_[t.head] || !kept_[t.tail]) continue;
    ++degree_[t.head];
    ++degree_[t.tail];
    ++num_triples_;
  }
}

double MaskedGraph::AverageDegree() const {
  if (num_kept_ == 0) return 0.0;
  return 2.0 * static_cast<double>(num_triples_) /
         static_cast<double>(num_kept_);
}

bool MaskedGraph::Remove(EntityId e) {
  if (!kept_[e]) return false;
  kept_[e] = false;
  --num_kept_;
  for (const NeighborEdge& edge : graph_->Neighbors(e)) {
    if (edge.neighbor == e) {
      // A self-loop is listed twice, outgoing and incoming: one triple.
      if (edge.outgoing) --num_triples_;
    } else if (kept_[edge.neighbor]) {
      --degree_[edge.neighbor];
      --num_triples_;
    }
  }
  return true;
}

std::vector<EntityId> MaskedGraph::KeptIds() const {
  std::vector<EntityId> ids;
  ids.reserve(num_kept_);
  for (size_t e = 0; e < kept_.size(); ++e) {
    if (kept_[e]) ids.push_back(static_cast<EntityId>(e));
  }
  return ids;
}

OutEdgeCsr MaskedGraph::KeptOutEdges(
    const std::vector<EntityId>& kept_ids) const {
  std::vector<EntityId> dense(kept_.size(), kInvalidId);
  for (size_t i = 0; i < kept_ids.size(); ++i) {
    dense[kept_ids[i]] = static_cast<EntityId>(i);
  }
  // Neighbors() lists an entity's edges in triple order (BuildIndex), the
  // order the induced subgraph's PageRank pushes them in.
  OutEdgeCsr csr;
  csr.offsets.reserve(kept_ids.size() + 1);
  csr.targets.reserve(num_triples_);
  for (EntityId e : kept_ids) {
    for (const NeighborEdge& edge : graph_->Neighbors(e)) {
      if (edge.outgoing && kept_[edge.neighbor]) {
        csr.targets.push_back(dense[edge.neighbor]);
      }
    }
    csr.offsets.push_back(csr.targets.size());
  }
  return csr;
}

DegreeDistribution MaskedGraph::Distribution() const {
  std::vector<size_t> degrees;
  degrees.reserve(num_kept_);
  for (size_t e = 0; e < kept_.size(); ++e) {
    if (kept_[e]) degrees.push_back(degree_[e]);
  }
  return DegreeDistributionOf(degrees);
}

}  // namespace openea::kg
