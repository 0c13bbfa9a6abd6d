#ifndef OPENEA_EMBEDDING_TRIPLE_MODEL_H_
#define OPENEA_EMBEDDING_TRIPLE_MODEL_H_

#include <memory>
#include <span>
#include <string>

#include "src/common/rng.h"
#include "src/kg/types.h"
#include "src/math/embedding_table.h"

namespace openea::embedding {

/// Hyper-parameters common to the shallow KG embedding models.
struct TripleModelOptions {
  size_t dim = 32;
  float learning_rate = 0.05f;  // Per-row AdaGrad.
  float margin = 1.5f;          // Margin-ranking models.
};

/// The KG embedding models integrated by the library (paper Sect. 4): the
/// translational family, the semantic-matching family, and the deep family.
enum class TripleModelKind {
  kTransE,
  kTransH,
  kTransR,
  kTransD,
  kHolE,
  kSimplE,
  kComplEx,
  kRotatE,
  kDistMult,
  kProjE,
  kConvE,
};

const char* TripleModelKindName(TripleModelKind kind);

/// A shallow KG embedding model trained by stochastic updates on
/// (positive, negative) triple pairs — the canonical C++ KG-embedding
/// training loop. All gradients are hand-derived (no autodiff; DESIGN.md).
///
/// The base owns the options and the primary entity table. Its constructor
/// draws that table from `rng` before any member of the derived model, so
/// every model draws its entity rows first.
class TripleModel {
 public:
  virtual ~TripleModel() = default;

  virtual std::string name() const = 0;
  size_t dim() const { return options_.dim; }
  size_t num_entities() const { return entities_.num_rows(); }

  /// One SGD/AdaGrad step on a positive triple and its corruption; returns
  /// the (pre-update) loss.
  virtual float TrainOnPair(const kg::Triple& pos, const kg::Triple& neg) = 0;

  /// Plausibility score of a triple under the current parameters (greater =
  /// more plausible). Energy-based models return the negated energy. Used
  /// for link prediction and by the model tests.
  virtual float ScoreTriple(const kg::Triple& t) const = 0;

  /// Positive-only energy minimization (no negative sampling). Implemented
  /// by TransE to reproduce MTransE's original training regime (the paper
  /// attributes MTransE's overfitting to the absence of negatives); other
  /// models return 0 and do nothing.
  virtual float TrainOnPositive(const kg::Triple& pos) {
    (void)pos;
    return 0.0f;
  }

  /// The primary entity embedding table (used for alignment calibration,
  /// swapping-free similarity, and embedding export).
  math::EmbeddingTable& entity_table() { return entities_; }
  const math::EmbeddingTable& entity_table() const { return entities_; }

  /// Embedding of entity `e` in the table used for alignment.
  std::span<const float> EntityEmbedding(kg::EntityId e) const {
    return entities_.Row(e);
  }

  /// Hook invoked once per epoch: the classic unit-norm constraint on the
  /// entity rows. SimplE also normalizes its tail-role rows.
  virtual void PostEpoch() { entities_.NormalizeAllRows(); }

 protected:
  TripleModel(size_t num_entities, const TripleModelOptions& options,
              Rng& rng)
      : options_(options),
        entities_(num_entities, options.dim, math::InitScheme::kUnit, rng) {}

  TripleModelOptions options_;
  math::EmbeddingTable entities_;
};

/// A model trained by the logistic loss, one step per triple of the pair:
/// label +1 on the positive, then -1 on the corruption.
class LogisticTripleModel : public TripleModel {
 public:
  float TrainOnPair(const kg::Triple& pos, const kg::Triple& neg) final {
    const float loss = Step(pos, +1.0f);
    return loss + Step(neg, -1.0f);
  }

 protected:
  using TripleModel::TripleModel;

  /// One AdaGrad step on `t` with the given label; returns the
  /// (pre-update) loss.
  virtual float Step(const kg::Triple& t, float label) = 0;
};

/// Factory over all integrated models.
std::unique_ptr<TripleModel> CreateTripleModel(TripleModelKind kind,
                                               size_t num_entities,
                                               size_t num_relations,
                                               const TripleModelOptions& options,
                                               Rng& rng);

}  // namespace openea::embedding

#endif  // OPENEA_EMBEDDING_TRIPLE_MODEL_H_
