#ifndef OPENEA_EMBEDDING_SEMANTIC_MATCHING_H_
#define OPENEA_EMBEDDING_SEMANTIC_MATCHING_H_

#include <string>

#include "src/embedding/triple_model.h"

namespace openea::embedding {

/// DistMult (Yang et al. 2015): score = sum_i h_i r_i t_i, logistic loss.
class DistMultModel : public LogisticTripleModel {
 public:
  DistMultModel(size_t num_entities, size_t num_relations,
                const TripleModelOptions& options, Rng& rng);

  std::string name() const override { return "DistMult"; }
  float ScoreTriple(const kg::Triple& t) const override;

 private:
  float Step(const kg::Triple& t, float label) override;

  math::EmbeddingTable relations_;
};

/// HolE (Nickel et al. 2016): score = r . (h star t) where star is circular
/// correlation; logistic loss. O(d^2) per triple at our dimensions.
class HolEModel : public LogisticTripleModel {
 public:
  HolEModel(size_t num_entities, size_t num_relations,
            const TripleModelOptions& options, Rng& rng);

  std::string name() const override { return "HolE"; }
  float ScoreTriple(const kg::Triple& t) const override;

 private:
  float Step(const kg::Triple& t, float label) override;

  math::EmbeddingTable relations_;
};

/// SimplE (Kazemi & Poole 2018): each entity has head/tail-role vectors and
/// each relation a forward/inverse vector; the score averages the two
/// canonical-polyadic terms. Exported embeddings concatenate the two roles.
/// The head-role vectors are the primary entity table (calibration etc.).
class SimplEModel : public LogisticTripleModel {
 public:
  SimplEModel(size_t num_entities, size_t num_relations,
              const TripleModelOptions& options, Rng& rng);

  std::string name() const override { return "SimplE"; }
  float ScoreTriple(const kg::Triple& t) const override;
  void PostEpoch() override;

  const math::EmbeddingTable& tail_role() const { return tail_role_; }

 private:
  float Step(const kg::Triple& t, float label) override;

  math::EmbeddingTable tail_role_;
  math::EmbeddingTable forward_;
  math::EmbeddingTable inverse_;
};

/// RotatE (Sun et al. 2019): entities are complex vectors (d/2 complex
/// coordinates stored as interleaved re/im); a relation rotates the head by
/// per-coordinate phases. E = ||h o r - t||^2 with margin loss. The paper's
/// best "unexplored" model (non-Euclidean geometry; Sect. 6.2).
class RotatEModel : public TripleModel {
 public:
  RotatEModel(size_t num_entities, size_t num_relations,
              const TripleModelOptions& options, Rng& rng);

  std::string name() const override { return "RotatE"; }
  float TrainOnPair(const kg::Triple& pos, const kg::Triple& neg) override;
  float ScoreTriple(const kg::Triple& t) const override;

 private:
  /// Returns the energy ||h o r - t||^2; writes the real and imaginary
  /// residuals (dim/2 floats each) to `dre` and `dim` unless they are null.
  float Energy(const kg::Triple& t, float* dre, float* dim) const;

  math::EmbeddingTable phases_;  // dim/2 phases per relation.
};

/// ComplEx (Trouillon et al. 2016): complex-valued bilinear model,
/// score = Re(<h, r, conj(t)>), logistic loss. Entities and relations are
/// complex vectors stored as interleaved (re, im) pairs of `dim` floats
/// (dim/2 complex coordinates).
class ComplExModel : public LogisticTripleModel {
 public:
  ComplExModel(size_t num_entities, size_t num_relations,
               const TripleModelOptions& options, Rng& rng);

  std::string name() const override { return "ComplEx"; }
  float ScoreTriple(const kg::Triple& t) const override;

 private:
  float Step(const kg::Triple& t, float label) override;

  math::EmbeddingTable relations_;
};

}  // namespace openea::embedding

#endif  // OPENEA_EMBEDDING_SEMANTIC_MATCHING_H_
