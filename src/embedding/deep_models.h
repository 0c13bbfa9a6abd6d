#ifndef OPENEA_EMBEDDING_DEEP_MODELS_H_
#define OPENEA_EMBEDDING_DEEP_MODELS_H_

#include <string>

#include "src/embedding/triple_model.h"

namespace openea::embedding {

/// ProjE (Shi & Weninger 2017): candidate entities are scored against a
/// non-linear combination of head and relation embeddings,
/// score(t) = t . tanh(u o h + v o r + b), trained with a logistic loss on
/// sampled negatives (our stand-in for its listwise softmax).
class ProjEModel : public LogisticTripleModel {
 public:
  ProjEModel(size_t num_entities, size_t num_relations,
             const TripleModelOptions& options, Rng& rng);

  std::string name() const override { return "ProjE"; }
  float ScoreTriple(const kg::Triple& t) const override;

 private:
  float Step(const kg::Triple& t, float label) override;

  math::EmbeddingTable relations_;
  // Combination parameters stored as 1-row tables so they share the AdaGrad
  // machinery: u, v (diagonal combination matrices) and bias b.
  math::EmbeddingTable combine_u_;
  math::EmbeddingTable combine_v_;
  math::EmbeddingTable bias_;
};

/// ConvE (Dettmers et al. 2018): the head and relation embeddings are
/// reshaped into a 2D grid, stacked, convolved with a bank of 3x3 kernels,
/// passed through ReLU and a fully-connected layer, and scored against the
/// tail by dot product; logistic loss on sampled negatives (stand-in for
/// 1-N scoring). All backprop is explicit.
class ConvEModel : public LogisticTripleModel {
 public:
  ConvEModel(size_t num_entities, size_t num_relations,
             const TripleModelOptions& options, Rng& rng);

  std::string name() const override { return "ConvE"; }
  float ScoreTriple(const kg::Triple& t) const override;

 private:
  float Step(const kg::Triple& t, float label) override;

  size_t grid_h_ = 0;   // Reshape height; grid_h * grid_w == dim.
  size_t grid_w_ = 0;
  size_t conv_h_ = 0;   // Output feature-map height ((2*grid_h) - 2).
  size_t conv_w_ = 0;   // Output feature-map width (grid_w - 2).
  static constexpr size_t kKernels = 4;
  static constexpr size_t kKernelSize = 3;

  math::EmbeddingTable relations_;
  math::EmbeddingTable kernels_;  // One row: kKernels * 3 * 3 weights.
  math::EmbeddingTable fc_;       // One row: (kernels*conv_h*conv_w) * dim.
};

}  // namespace openea::embedding

#endif  // OPENEA_EMBEDDING_DEEP_MODELS_H_
