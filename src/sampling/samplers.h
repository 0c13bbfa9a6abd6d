#ifndef OPENEA_SAMPLING_SAMPLERS_H_
#define OPENEA_SAMPLING_SAMPLERS_H_

#include <cstdint>

#include "src/datagen/kg_pair.h"

namespace openea::sampling {

/// Options for iterative degree-based sampling (paper Algorithm 1).
struct IdsOptions {
  /// Desired entity count per KG (the paper's 15K / 100K).
  size_t target_size = 1000;
  /// Base deletion step size mu (paper: 100 for 15K, 500 for 100K).
  double mu = 100.0;
  /// Maximum allowed Jensen–Shannon divergence between each sample and its
  /// source degree distribution (paper: 5%).
  double epsilon = 0.05;
  /// Number of do-while restarts before accepting the best attempt.
  int max_retries = 3;
  int pagerank_iterations = 20;
  uint64_t seed = 7;
};

/// Restricts `pair` to the given entity subsets (ids in each KG), remapping
/// the reference alignment accordingly. Exposed because IDS, RAS, and PRS
/// all reduce to choosing the kept sets.
datagen::DatasetPair RestrictPair(
    const datagen::DatasetPair& pair,
    const std::unordered_set<kg::EntityId>& kept1,
    const std::unordered_set<kg::EntityId>& kept2);

/// Iterative degree-based sampling (IDS, Algorithm 1): simultaneously
/// deletes entities from both KGs — biased by degree-distribution error and
/// away from high-PageRank entities — until each KG has `target_size`
/// entities, retrying while the JS divergence to the source distribution
/// exceeds epsilon.
datagen::DatasetPair IterativeDegreeSampling(const datagen::DatasetPair& source,
                                             const IdsOptions& options);

/// Random alignment sampling baseline (paper Sect. 3.3): picks
/// `target_size` alignment pairs uniformly and keeps the induced subgraphs.
datagen::DatasetPair RandomAlignmentSampling(const datagen::DatasetPair& source,
                                             size_t target_size,
                                             uint64_t seed);

/// PageRank-based sampling baseline (paper Sect. 3.3): samples KG1 entities
/// by PageRank score (aligned entities only) and takes their counterparts
/// from KG2.
datagen::DatasetPair PageRankSampling(const datagen::DatasetPair& source,
                                      size_t target_size, uint64_t seed);

/// Produces the paper's V2 (dense) variant of a source pair: randomly
/// deletes low-degree (d <= `max_degree_to_delete`) KG1 entities, each
/// aligned one with its KG2 counterpart, until the average degree of KG1
/// reaches `density_factor` times its original value (paper Sect. 3.2 uses
/// a factor of 2).
datagen::DatasetPair DensifyPair(const datagen::DatasetPair& source,
                                 double density_factor, uint64_t seed,
                                 size_t max_degree_to_delete = 5);

/// Quality metrics of a sampled pair relative to its source (Table 3).
struct SampleQuality {
  size_t alignment_size = 0;
  double avg_degree1 = 0.0, avg_degree2 = 0.0;
  double js1 = 0.0, js2 = 0.0;               // vs. source distributions.
  double isolated1 = 0.0, isolated2 = 0.0;   // Fraction of isolates.
  double clustering1 = 0.0, clustering2 = 0.0;
};

/// Computes Table 3's metrics for `sample` against `source`.
SampleQuality EvaluateSampleQuality(const datagen::DatasetPair& sample,
                                    const datagen::DatasetPair& source);

}  // namespace openea::sampling

#endif  // OPENEA_SAMPLING_SAMPLERS_H_
