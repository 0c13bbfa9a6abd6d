#ifndef OPENEA_EMBEDDING_TRANSLATIONAL_H_
#define OPENEA_EMBEDDING_TRANSLATIONAL_H_

#include <string>
#include <vector>

#include "src/embedding/triple_model.h"

namespace openea::embedding {

/// TransE (Bordes et al. 2013): E(h, r, t) = ||h + r - t||^2 with margin
/// ranking loss (squared L2 keeps gradients smooth). Also supports the
/// limit-based loss of BootEA (Sun et al. 2018): push positive energies
/// below `limit_pos` and negative energies above `limit_neg`.
///
/// A pair step is two `translation_residual` and at most two
/// `translation_update` kernel calls over a residual buffer the model owns
/// (DESIGN.md, "Kernel dispatch"); no call allocates.
class TransEModel : public TripleModel {
 public:
  struct LimitLoss {
    bool enabled = false;
    float limit_pos = 0.2f;
    float limit_neg = 2.5f;
    float neg_weight = 0.5f;
  };

  TransEModel(size_t num_entities, size_t num_relations,
              const TripleModelOptions& options, Rng& rng, LimitLoss limit);
  TransEModel(size_t num_entities, size_t num_relations,
              const TripleModelOptions& options, Rng& rng)
      : TransEModel(num_entities, num_relations, options, rng, LimitLoss()) {}

  std::string name() const override { return "TransE"; }
  float TrainOnPair(const kg::Triple& pos, const kg::Triple& neg) override;
  float TrainOnPositive(const kg::Triple& pos) override;
  float ScoreTriple(const kg::Triple& t) const override;

  math::EmbeddingTable& relation_table() { return relations_; }

 private:
  /// Writes (h + r) - t of `t` to `residual` (dim floats); returns its
  /// squared norm, the energy.
  float Energy(const kg::Triple& t, float* residual) const;
  /// One AdaGrad step on the rows of `t` with gradient
  /// (direction * 2) * residual on h and r, its negation on t.
  void Descend(const kg::Triple& t, const float* residual, float direction);

  LimitLoss limit_;
  math::EmbeddingTable relations_;
  std::vector<float> scratch_;  // Two residuals: pos, neg.
};

/// TransH (Wang et al. 2014): entities are projected onto a
/// relation-specific hyperplane (normal w_r) before translation by d_r.
/// Handles multi-mapping relations better than TransE (paper Sect. 6.2).
class TransHModel : public TripleModel {
 public:
  TransHModel(size_t num_entities, size_t num_relations,
              const TripleModelOptions& options, Rng& rng);

  std::string name() const override { return "TransH"; }
  float TrainOnPair(const kg::Triple& pos, const kg::Triple& neg) override;
  float ScoreTriple(const kg::Triple& t) const override;

 private:
  /// Returns the energy, the squared norm of the residual; writes the
  /// residual (dim floats) to `residual` unless it is null.
  float Energy(const kg::Triple& t, float* residual) const;

  math::EmbeddingTable translations_;  // d_r.
  math::EmbeddingTable normals_;       // w_r (unit).
  std::vector<float> scratch_;  // TrainOnPair's rows: rp, rn, grad, grad_w.
};

/// TransR (Lin et al. 2015): a relation-specific d x d projection matrix
/// M_r maps entities into the relation space. Requires relation alignment
/// to transfer alignment signal — which our task does not provide — so its
/// entity-alignment performance collapses, as the paper reports.
class TransRModel : public TripleModel {
 public:
  TransRModel(size_t num_entities, size_t num_relations,
              const TripleModelOptions& options, Rng& rng);

  std::string name() const override { return "TransR"; }
  float TrainOnPair(const kg::Triple& pos, const kg::Triple& neg) override;
  float ScoreTriple(const kg::Triple& t) const override;

 private:
  /// Returns the energy, the squared norm of the residual; writes the
  /// residual (dim floats) to `residual` unless it is null.
  float Energy(const kg::Triple& t, float* residual) const;

  math::EmbeddingTable relations_;
  math::EmbeddingTable matrices_;  // One d*d row per relation.
  std::vector<float> scratch_;  // TrainOnPair's rows: rp, rn, grad, grad_m.
};

/// TransD (Ji et al. 2015): dynamic mapping via projection vectors —
/// h_perp = h + (h_p . h) r_p — a lighter-weight alternative to TransR.
class TransDModel : public TripleModel {
 public:
  TransDModel(size_t num_entities, size_t num_relations,
              const TripleModelOptions& options, Rng& rng);

  std::string name() const override { return "TransD"; }
  float TrainOnPair(const kg::Triple& pos, const kg::Triple& neg) override;
  float ScoreTriple(const kg::Triple& t) const override;

 private:
  /// Returns the energy, the squared norm of the residual; writes the
  /// residual (dim floats) to `residual` unless it is null.
  float Energy(const kg::Triple& t, float* residual) const;

  math::EmbeddingTable entity_proj_;    // h_p per entity.
  math::EmbeddingTable relations_;
  math::EmbeddingTable relation_proj_;  // r_p per relation.
  std::vector<float> scratch_;  // TrainOnPair's rows: rp, rn, grad.
};

}  // namespace openea::embedding

#endif  // OPENEA_EMBEDDING_TRANSLATIONAL_H_
