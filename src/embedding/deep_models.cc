#include "src/embedding/deep_models.h"

#include <cmath>
#include <vector>

#include "src/common/logging.h"
#include "src/math/kernels.h"
#include "src/math/vec.h"

namespace openea::embedding {

using math::EmbeddingTable;
using math::InitScheme;

// ---------------------------------------------------------------------------
// ProjE
// ---------------------------------------------------------------------------

ProjEModel::ProjEModel(size_t num_entities, size_t num_relations,
                       const TripleModelOptions& options, Rng& rng)
    : LogisticTripleModel(num_entities, options, rng),
      relations_(num_relations, options.dim, InitScheme::kUnit, rng),
      combine_u_(1, options.dim, InitScheme::kUniform, rng),
      combine_v_(1, options.dim, InitScheme::kUniform, rng),
      bias_(1, options.dim, InitScheme::kUniform, rng) {
  // Start the combination near the identity: u = v = 1, b = 0.
  for (float& v : combine_u_.MutableData()) v = 1.0f;
  for (float& v : combine_v_.MutableData()) v = 1.0f;
  for (float& v : bias_.MutableData()) v = 0.0f;
}

float ProjEModel::Step(const kg::Triple& t, float label) {
  const size_t d = options_.dim;
  const auto h = entities_.Row(t.head);
  const auto r = relations_.Row(t.relation);
  const auto tl = entities_.Row(t.tail);
  const auto u = combine_u_.Row(0);
  const auto v = combine_v_.Row(0);
  const auto b = bias_.Row(0);

  std::vector<float> hidden(d);
  float score = 0.0f;
  for (size_t i = 0; i < d; ++i) {
    hidden[i] = std::tanh(u[i] * h[i] + v[i] * r[i] + b[i]);
    score += hidden[i] * tl[i];
  }
  const float g = math::LogisticGradScale(score, label);
  const float lr = options_.learning_rate;
  std::vector<float> grad(d), grad_hidden(d);

  // grad_t = g * hidden.
  for (size_t i = 0; i < d; ++i) grad[i] = g * hidden[i];
  entities_.ApplyGradient(t.tail, grad, lr);
  // Back through tanh.
  for (size_t i = 0; i < d; ++i) {
    grad_hidden[i] = g * tl[i] * (1.0f - hidden[i] * hidden[i]);
  }
  for (size_t i = 0; i < d; ++i) grad[i] = grad_hidden[i] * u[i];
  entities_.ApplyGradient(t.head, grad, lr);
  for (size_t i = 0; i < d; ++i) grad[i] = grad_hidden[i] * v[i];
  relations_.ApplyGradient(t.relation, grad, lr);
  for (size_t i = 0; i < d; ++i) grad[i] = grad_hidden[i] * h[i];
  combine_u_.ApplyGradient(0, grad, lr);
  for (size_t i = 0; i < d; ++i) grad[i] = grad_hidden[i] * r[i];
  combine_v_.ApplyGradient(0, grad, lr);
  bias_.ApplyGradient(0, grad_hidden, lr);
  return math::LogisticLoss(score, label);
}

float ProjEModel::ScoreTriple(const kg::Triple& t) const {
  const size_t d = options_.dim;
  const auto h = entities_.Row(t.head);
  const auto r = relations_.Row(t.relation);
  const auto tl = entities_.Row(t.tail);
  const auto u = combine_u_.Row(0);
  const auto v = combine_v_.Row(0);
  const auto b = bias_.Row(0);
  float score = 0.0f;
  for (size_t i = 0; i < d; ++i) {
    score += std::tanh(u[i] * h[i] + v[i] * r[i] + b[i]) * tl[i];
  }
  return score;
}

// ---------------------------------------------------------------------------
// ConvE
// ---------------------------------------------------------------------------

ConvEModel::ConvEModel(size_t num_entities, size_t num_relations,
                       const TripleModelOptions& options, Rng& rng)
    : LogisticTripleModel(num_entities, options, rng),
      relations_(num_relations, options.dim, InitScheme::kUnit, rng) {
  // Pick the most square factorization of dim with width >= 3.
  grid_w_ = 1;
  for (size_t w = 3; w * w <= options.dim * 4; ++w) {
    if (options.dim % w == 0 && options.dim / w >= 1) grid_w_ = w;
  }
  OPENEA_CHECK_GE(grid_w_, 3u) << "ConvE requires dim divisible by some w>=3";
  grid_h_ = options.dim / grid_w_;
  conv_h_ = 2 * grid_h_ - (kKernelSize - 1);
  conv_w_ = grid_w_ - (kKernelSize - 1);
  OPENEA_CHECK_GE(conv_h_, 1u);
  OPENEA_CHECK_GE(conv_w_, 1u);

  kernels_ = EmbeddingTable(1, kKernels * kKernelSize * kKernelSize,
                            InitScheme::kUniform, rng);
  for (float& v : kernels_.MutableData()) v *= 0.2f;
  fc_ = EmbeddingTable(1, kKernels * conv_h_ * conv_w_ * options.dim,
                       InitScheme::kUniform, rng);
  const float fc_scale =
      1.0f / std::sqrt(static_cast<float>(kKernels * conv_h_ * conv_w_));
  for (float& v : fc_.MutableData()) v *= fc_scale;
}

float ConvEModel::Step(const kg::Triple& t, float label) {
  const size_t d = options_.dim;
  const auto h = entities_.Row(t.head);
  const auto r = relations_.Row(t.relation);
  const auto tl = entities_.Row(t.tail);
  const auto kern = kernels_.Row(0);
  const auto fc = fc_.Row(0);

  // Input image: head grid stacked on relation grid, (2*grid_h) x grid_w.
  const size_t in_h = 2 * grid_h_;
  auto input_at = [&](size_t y, size_t x) -> float {
    return y < grid_h_ ? h[y * grid_w_ + x]
                       : r[(y - grid_h_) * grid_w_ + x];
  };

  // Convolution (valid) + ReLU.
  const size_t map_size = conv_h_ * conv_w_;
  std::vector<float> feature(kKernels * map_size);
  std::vector<float> pre_relu(kKernels * map_size);
  for (size_t c = 0; c < kKernels; ++c) {
    for (size_t y = 0; y < conv_h_; ++y) {
      for (size_t x = 0; x < conv_w_; ++x) {
        float sum = 0.0f;
        for (size_t ky = 0; ky < kKernelSize; ++ky) {
          for (size_t kx = 0; kx < kKernelSize; ++kx) {
            sum += kern[(c * kKernelSize + ky) * kKernelSize + kx] *
                   input_at(y + ky, x + kx);
          }
        }
        const size_t idx = c * map_size + y * conv_w_ + x;
        pre_relu[idx] = sum;
        feature[idx] = sum > 0.0f ? sum : 0.0f;
      }
    }
  }

  // Fully connected: z_j = sum_i feature_i * FC[i][j]; score = z . t.
  // One dispatched axpy per active (post-ReLU) feature.
  const math::kernels::KernelTable& kt = math::kernels::Active();
  const size_t flat = kKernels * map_size;
  std::vector<float> z(d, 0.0f);
  for (size_t i = 0; i < flat; ++i) {
    const float f = feature[i];
    if (f == 0.0f) continue;
    kt.axpy(f, fc.data() + i * d, z.data(), d);
  }
  float score = math::Dot(z, tl);

  const float g = math::LogisticGradScale(score, label);
  // The shared convolution/FC parameters receive gradients from every
  // triple, so ConvE needs a smaller step than the shallow models to stay
  // stable at the library-wide default learning rate.
  const float lr = 0.5f * options_.learning_rate;

  // grad_t = g * z.
  std::vector<float> grad(d);
  for (size_t j = 0; j < d; ++j) grad[j] = g * z[j];
  entities_.ApplyGradient(t.tail, grad, lr);

  // grad_z = g * t; back through FC.
  std::vector<float> grad_feature(flat, 0.0f);
  std::vector<float> grad_fc(flat * d);
  for (size_t i = 0; i < flat; ++i) {
    float gf = 0.0f;
    const float f = feature[i];
    for (size_t j = 0; j < d; ++j) {
      const float gz = g * tl[j];
      grad_fc[i * d + j] = gz * f;
      gf += gz * fc[i * d + j];
    }
    grad_feature[i] = pre_relu[i] > 0.0f ? gf : 0.0f;  // ReLU gate.
  }
  fc_.ApplyGradient(0, grad_fc, lr);

  // Back through convolution into kernels and the input image.
  std::vector<float> grad_kern(kKernels * kKernelSize * kKernelSize, 0.0f);
  std::vector<float> grad_input(in_h * grid_w_, 0.0f);
  for (size_t c = 0; c < kKernels; ++c) {
    for (size_t y = 0; y < conv_h_; ++y) {
      for (size_t x = 0; x < conv_w_; ++x) {
        const float gmap = grad_feature[c * map_size + y * conv_w_ + x];
        if (gmap == 0.0f) continue;
        for (size_t ky = 0; ky < kKernelSize; ++ky) {
          for (size_t kx = 0; kx < kKernelSize; ++kx) {
            grad_kern[(c * kKernelSize + ky) * kKernelSize + kx] +=
                gmap * input_at(y + ky, x + kx);
            grad_input[(y + ky) * grid_w_ + (x + kx)] +=
                gmap * kern[(c * kKernelSize + ky) * kKernelSize + kx];
          }
        }
      }
    }
  }
  kernels_.ApplyGradient(0, grad_kern, lr);
  // Split the input gradient back into head and relation parts.
  std::vector<float> grad_h(d), grad_r(d);
  for (size_t y = 0; y < grid_h_; ++y) {
    for (size_t x = 0; x < grid_w_; ++x) {
      grad_h[y * grid_w_ + x] = grad_input[y * grid_w_ + x];
      grad_r[y * grid_w_ + x] = grad_input[(y + grid_h_) * grid_w_ + x];
    }
  }
  entities_.ApplyGradient(t.head, grad_h, lr);
  relations_.ApplyGradient(t.relation, grad_r, lr);
  return math::LogisticLoss(score, label);
}

float ConvEModel::ScoreTriple(const kg::Triple& t) const {
  const size_t d = options_.dim;
  const auto h = entities_.Row(t.head);
  const auto r = relations_.Row(t.relation);
  const auto tl = entities_.Row(t.tail);
  const auto kern = kernels_.Row(0);
  const auto fc = fc_.Row(0);
  auto input_at = [&](size_t y, size_t x) -> float {
    return y < grid_h_ ? h[y * grid_w_ + x] : r[(y - grid_h_) * grid_w_ + x];
  };
  const size_t map_size = conv_h_ * conv_w_;
  std::vector<float> z(d, 0.0f);
  for (size_t c = 0; c < kKernels; ++c) {
    for (size_t y = 0; y < conv_h_; ++y) {
      for (size_t x = 0; x < conv_w_; ++x) {
        float sum = 0.0f;
        for (size_t ky = 0; ky < kKernelSize; ++ky) {
          for (size_t kx = 0; kx < kKernelSize; ++kx) {
            sum += kern[(c * kKernelSize + ky) * kKernelSize + kx] *
                   input_at(y + ky, x + kx);
          }
        }
        if (sum <= 0.0f) continue;  // ReLU.
        const size_t i = c * map_size + y * conv_w_ + x;
        math::kernels::Active().axpy(sum, fc.data() + i * d, z.data(), d);
      }
    }
  }
  return math::Dot(z, tl);
}

}  // namespace openea::embedding
