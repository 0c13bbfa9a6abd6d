#ifndef OPENEA_KG_GRAPH_STATS_H_
#define OPENEA_KG_GRAPH_STATS_H_

#include <vector>

#include "src/kg/knowledge_graph.h"

namespace openea::kg {

/// Degree distribution: proportion[d] is the fraction of entities whose
/// relation degree equals d, for d in [0, max_degree]. Distributions from two
/// graphs can be compared with JensenShannonDivergence below (paper Eq. 6).
struct DegreeDistribution {
  std::vector<double> proportion;

  /// Proportion of entities with degree `d` (0 beyond the recorded range).
  double At(size_t d) const {
    return d < proportion.size() ? proportion[d] : 0.0;
  }
};

/// Computes the degree distribution of `graph`.
DegreeDistribution ComputeDegreeDistribution(const KnowledgeGraph& graph);

/// The degree distribution of a graph whose entities have the given
/// degrees; ComputeDegreeDistribution passes graph.Degree(e) for every e.
DegreeDistribution DegreeDistributionOf(const std::vector<size_t>& degrees);

/// Jensen–Shannon divergence between two degree distributions, as used by
/// the IDS stopping criterion (Algorithm 1, line 12 / Eq. 6). Uses natural
/// logarithm; result is in [0, ln 2].
double JensenShannonDivergence(const DegreeDistribution& q,
                               const DegreeDistribution& p);

/// Fraction of entities with no incident relation triple (Table 3,
/// "Isolates").
double IsolatedEntityRatio(const KnowledgeGraph& graph);

/// Average local clustering coefficient over the undirected relation graph
/// (Table 3, "Cluster coef."). Entities of degree < 2 contribute 0.
double AverageClusteringCoefficient(const KnowledgeGraph& graph);

/// PageRank over the relation graph treated as a directed graph (head ->
/// tail), with uniform teleport. Returns one score per entity summing to 1.
/// Used by IDS (Algorithm 1, line 8) to bias deletion away from influential
/// entities, and by the PRS baseline sampler.
std::vector<double> PageRank(const KnowledgeGraph& graph,
                             double damping = 0.85, int iterations = 30);

/// Out-edges of a directed graph over entities 0..n-1 in compressed sparse
/// row form: the tails of entity e's out-edges are
/// targets[offsets[e] .. offsets[e + 1]), in triple order.
struct OutEdgeCsr {
  std::vector<size_t> offsets{0};  // n + 1 entries.
  std::vector<EntityId> targets;

  size_t NumEntities() const { return offsets.size() - 1; }
};

/// PageRank over `edges`; PageRank(graph) runs it over the relation
/// triples' out-edges in triple order. Rank mass is pushed along each
/// entity's out-edges in CSR order, entities in ascending id order, so two
/// CSRs with the same edge lists give the same scores bit for bit.
std::vector<double> PageRank(const OutEdgeCsr& edges, double damping,
                             int iterations);

/// A masked view of an indexed graph: a kept subset of its entities, and
/// each kept entity's degree in the subgraph InducedSubgraph(kept) would
/// build. Removing an entity updates its kept neighbours' degrees, so
/// iterative samplers read the induced subgraph's statistics every round
/// without building it. Each statistic below equals the induced subgraph's
/// bit for bit (DESIGN.md, "Incremental IDS").
class MaskedGraph {
 public:
  /// Keeps the entities e of `graph` with `kept[e]`; `graph` must be indexed
  /// and outlive the view.
  MaskedGraph(const KnowledgeGraph& graph, std::vector<bool> kept);

  size_t NumKept() const { return num_kept_; }
  /// Degree of a kept entity in the induced subgraph.
  size_t Degree(EntityId e) const { return degree_[e]; }
  /// The induced subgraph's AverageDegree().
  double AverageDegree() const;

  /// Removes `e`; returns false if it was not kept.
  bool Remove(EntityId e);

  /// The kept entities in ascending id order. InducedSubgraph numbers them
  /// the same way: its entity i is KeptIds()[i].
  std::vector<EntityId> KeptIds() const;
  /// The induced subgraph's relation out-edges, on its entity ids
  /// (`kept_ids` is KeptIds()); PageRank over them equals PageRank over the
  /// induced subgraph.
  OutEdgeCsr KeptOutEdges(const std::vector<EntityId>& kept_ids) const;
  /// The induced subgraph's degree distribution.
  DegreeDistribution Distribution() const;

 private:
  const KnowledgeGraph* graph_;
  std::vector<bool> kept_;
  std::vector<size_t> degree_;
  size_t num_kept_ = 0;
  size_t num_triples_ = 0;
};

}  // namespace openea::kg

#endif  // OPENEA_KG_GRAPH_STATS_H_
