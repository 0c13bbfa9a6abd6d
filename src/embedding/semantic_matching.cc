#include "src/embedding/semantic_matching.h"

#include <cmath>
#include <span>
#include <vector>

#include "src/math/vec.h"

namespace openea::embedding {

using math::InitScheme;

// ---------------------------------------------------------------------------
// DistMult
// ---------------------------------------------------------------------------

DistMultModel::DistMultModel(size_t num_entities, size_t num_relations,
                             const TripleModelOptions& options, Rng& rng)
    : LogisticTripleModel(num_entities, options, rng),
      relations_(num_relations, options.dim, InitScheme::kUnit, rng) {}

float DistMultModel::Step(const kg::Triple& t, float label) {
  const size_t d = options_.dim;
  const auto h = entities_.Row(t.head);
  const auto r = relations_.Row(t.relation);
  const auto tl = entities_.Row(t.tail);
  const float score = ScoreTriple(t);
  const float g = math::LogisticGradScale(score, label);
  std::vector<float> grad(d);
  const float lr = options_.learning_rate;
  for (size_t i = 0; i < d; ++i) grad[i] = g * r[i] * tl[i];
  entities_.ApplyGradient(t.head, grad, lr);
  for (size_t i = 0; i < d; ++i) grad[i] = g * h[i] * tl[i];
  relations_.ApplyGradient(t.relation, grad, lr);
  for (size_t i = 0; i < d; ++i) grad[i] = g * h[i] * r[i];
  entities_.ApplyGradient(t.tail, grad, lr);
  return math::LogisticLoss(score, label);
}

float DistMultModel::ScoreTriple(const kg::Triple& t) const {
  const auto h = entities_.Row(t.head);
  const auto r = relations_.Row(t.relation);
  const auto tl = entities_.Row(t.tail);
  float score = 0.0f;
  for (size_t i = 0; i < options_.dim; ++i) score += h[i] * r[i] * tl[i];
  return score;
}

// ---------------------------------------------------------------------------
// HolE
// ---------------------------------------------------------------------------

namespace {

/// sum_i a_i b_{(s+i) mod d} over i = 0..d-1, in that order, for s < d:
/// the terms with s + i < d, then the wrapped ones.
float Correlation(std::span<const float> a, std::span<const float> b,
                  size_t s) {
  const size_t d = a.size();
  float sum = 0.0f;
  for (size_t i = 0; i < d - s; ++i) sum += a[i] * b[s + i];
  for (size_t i = d - s; i < d; ++i) sum += a[i] * b[s + i - d];
  return sum;
}

}  // namespace

HolEModel::HolEModel(size_t num_entities, size_t num_relations,
                     const TripleModelOptions& options, Rng& rng)
    : LogisticTripleModel(num_entities, options, rng),
      relations_(num_relations, options.dim, InitScheme::kUnit, rng) {}

float HolEModel::Step(const kg::Triple& t, float label) {
  const size_t d = options_.dim;
  const auto h = entities_.Row(t.head);
  const auto r = relations_.Row(t.relation);
  const auto tl = entities_.Row(t.tail);

  // Circular correlation c_k = sum_i h_i t_{(k+i) mod d}. Each loop over
  // a circular index runs in two parts split at the wrap point, in the
  // same term order as one loop with a modulo.
  std::vector<float> corr(d, 0.0f);
  for (size_t k = 0; k < d; ++k) corr[k] = Correlation(h, tl, k);
  const float score = math::Dot(r, corr);
  const float g = math::LogisticGradScale(score, label);
  const float lr = options_.learning_rate;

  std::vector<float> grad(d);
  // grad_r = g * corr.
  for (size_t k = 0; k < d; ++k) grad[k] = g * corr[k];
  relations_.ApplyGradient(t.relation, grad, lr);
  // grad_h_i = g * sum_k r_k t_{(k+i) mod d}.
  for (size_t i = 0; i < d; ++i) grad[i] = g * Correlation(r, tl, i);
  entities_.ApplyGradient(t.head, grad, lr);
  // grad_t_j = g * sum_k r_k h_{(j-k) mod d}.
  for (size_t j = 0; j < d; ++j) {
    float sum = 0.0f;
    for (size_t k = 0; k <= j; ++k) sum += r[k] * h[j - k];
    for (size_t k = j + 1; k < d; ++k) sum += r[k] * h[j + d - k];
    grad[j] = g * sum;
  }
  entities_.ApplyGradient(t.tail, grad, lr);
  return math::LogisticLoss(score, label);
}

float HolEModel::ScoreTriple(const kg::Triple& t) const {
  const size_t d = options_.dim;
  const auto h = entities_.Row(t.head);
  const auto r = relations_.Row(t.relation);
  const auto tl = entities_.Row(t.tail);
  float score = 0.0f;
  for (size_t k = 0; k < d; ++k) score += r[k] * Correlation(h, tl, k);
  return score;
}

// ---------------------------------------------------------------------------
// SimplE
// ---------------------------------------------------------------------------

SimplEModel::SimplEModel(size_t num_entities, size_t num_relations,
                         const TripleModelOptions& options, Rng& rng)
    : LogisticTripleModel(num_entities, options, rng),
      tail_role_(num_entities, options.dim, InitScheme::kUnit, rng),
      forward_(num_relations, options.dim, InitScheme::kUnit, rng),
      inverse_(num_relations, options.dim, InitScheme::kUnit, rng) {}

float SimplEModel::Step(const kg::Triple& t, float label) {
  const size_t d = options_.dim;
  const auto hh = entities_.Row(t.head);
  const auto tt = tail_role_.Row(t.tail);
  const auto ht = entities_.Row(t.tail);
  const auto th = tail_role_.Row(t.head);
  const auto rf = forward_.Row(t.relation);
  const auto ri = inverse_.Row(t.relation);
  const float score = ScoreTriple(t);
  const float g = 0.5f * math::LogisticGradScale(score, label);
  const float lr = options_.learning_rate;
  std::vector<float> grad(d);

  for (size_t i = 0; i < d; ++i) grad[i] = g * rf[i] * tt[i];
  entities_.ApplyGradient(t.head, grad, lr);
  for (size_t i = 0; i < d; ++i) grad[i] = g * hh[i] * tt[i];
  forward_.ApplyGradient(t.relation, grad, lr);
  for (size_t i = 0; i < d; ++i) grad[i] = g * hh[i] * rf[i];
  tail_role_.ApplyGradient(t.tail, grad, lr);

  for (size_t i = 0; i < d; ++i) grad[i] = g * ri[i] * th[i];
  entities_.ApplyGradient(t.tail, grad, lr);
  for (size_t i = 0; i < d; ++i) grad[i] = g * ht[i] * th[i];
  inverse_.ApplyGradient(t.relation, grad, lr);
  for (size_t i = 0; i < d; ++i) grad[i] = g * ht[i] * ri[i];
  tail_role_.ApplyGradient(t.head, grad, lr);
  return math::LogisticLoss(score, label);
}

float SimplEModel::ScoreTriple(const kg::Triple& t) const {
  const size_t d = options_.dim;
  const auto hh = entities_.Row(t.head);
  const auto tt = tail_role_.Row(t.tail);
  const auto ht = entities_.Row(t.tail);
  const auto th = tail_role_.Row(t.head);
  const auto rf = forward_.Row(t.relation);
  const auto ri = inverse_.Row(t.relation);
  float s1 = 0.0f, s2 = 0.0f;
  for (size_t i = 0; i < d; ++i) {
    s1 += hh[i] * rf[i] * tt[i];
    s2 += ht[i] * ri[i] * th[i];
  }
  return 0.5f * (s1 + s2);
}

void SimplEModel::PostEpoch() {
  entities_.NormalizeAllRows();
  tail_role_.NormalizeAllRows();
}

// ---------------------------------------------------------------------------
// RotatE
// ---------------------------------------------------------------------------

RotatEModel::RotatEModel(size_t num_entities, size_t num_relations,
                         const TripleModelOptions& options, Rng& rng)
    : TripleModel(num_entities, options, rng),
      phases_(num_relations, options.dim / 2, InitScheme::kUniform, rng) {
  // Phases initialized uniformly in [-pi, pi].
  for (float& v : phases_.MutableData()) {
    v = rng.NextFloat(-3.14159265f, 3.14159265f);
  }
}

float RotatEModel::Energy(const kg::Triple& t, float* dre,
                          float* dim) const {
  const auto h = entities_.Row(t.head);
  const auto tl = entities_.Row(t.tail);
  const auto theta = phases_.Row(t.relation);
  float e = 0.0f;
  for (size_t j = 0; j < options_.dim / 2; ++j) {
    const float c = std::cos(theta[j]);
    const float s = std::sin(theta[j]);
    const float hre = h[2 * j], him = h[2 * j + 1];
    const float re = hre * c - him * s - tl[2 * j];
    const float im = hre * s + him * c - tl[2 * j + 1];
    if (dre != nullptr) {
      dre[j] = re;
      dim[j] = im;
    }
    e += re * re + im * im;
  }
  return e;
}

float RotatEModel::TrainOnPair(const kg::Triple& pos, const kg::Triple& neg) {
  const size_t half = options_.dim / 2;
  std::vector<float> dre_p(half), dim_p(half), dre_n(half), dim_n(half);
  const float ep = Energy(pos, dre_p.data(), dim_p.data());
  const float en = Energy(neg, dre_n.data(), dim_n.data());
  const float raw = options_.margin + ep - en;
  if (raw <= 0.0f) return 0.0f;
  const float lr = options_.learning_rate;

  std::vector<float> grad_e(options_.dim), grad_phase(half);
  auto descend = [&](const kg::Triple& t, std::span<const float> dre,
                     std::span<const float> dim, float direction) {
    const auto h = entities_.Row(t.head);
    const auto theta = phases_.Row(t.relation);
    for (size_t j = 0; j < half; ++j) {
      const float c = std::cos(theta[j]);
      const float s = std::sin(theta[j]);
      const float hre = h[2 * j], him = h[2 * j + 1];
      // d(rot_re)/dh_re = c; d(rot_re)/dh_im = -s;
      // d(rot_im)/dh_re = s; d(rot_im)/dh_im = c.
      grad_e[2 * j] = direction * 2.0f * (dre[j] * c + dim[j] * s);
      grad_e[2 * j + 1] = direction * 2.0f * (-dre[j] * s + dim[j] * c);
      // d(rot_re)/dtheta = -hre s - him c; d(rot_im)/dtheta = hre c - him s.
      grad_phase[j] = direction * 2.0f *
                      (dre[j] * (-hre * s - him * c) +
                       dim[j] * (hre * c - him * s));
    }
    entities_.ApplyGradient(t.head, grad_e, lr);
    phases_.ApplyGradient(t.relation, grad_phase, lr);
    for (size_t j = 0; j < half; ++j) {
      grad_e[2 * j] = direction * -2.0f * dre[j];
      grad_e[2 * j + 1] = direction * -2.0f * dim[j];
    }
    entities_.ApplyGradient(t.tail, grad_e, lr);
  };
  descend(pos, dre_p, dim_p, +1.0f);
  descend(neg, dre_n, dim_n, -1.0f);
  return raw;
}

float RotatEModel::ScoreTriple(const kg::Triple& t) const {
  return -Energy(t, nullptr, nullptr);
}

// ---------------------------------------------------------------------------
// ComplEx
// ---------------------------------------------------------------------------

ComplExModel::ComplExModel(size_t num_entities, size_t num_relations,
                           const TripleModelOptions& options, Rng& rng)
    : LogisticTripleModel(num_entities, options, rng),
      relations_(num_relations, options.dim, InitScheme::kUnit, rng) {}

float ComplExModel::Step(const kg::Triple& t, float label) {
  const size_t half = options_.dim / 2;
  const auto h = entities_.Row(t.head);
  const auto r = relations_.Row(t.relation);
  const auto tl = entities_.Row(t.tail);
  const float score = ScoreTriple(t);
  const float g = math::LogisticGradScale(score, label);
  const float lr = options_.learning_rate;
  std::vector<float> grad(options_.dim);
  // d/dh.
  for (size_t j = 0; j < half; ++j) {
    const float rre = r[2 * j], rim = r[2 * j + 1];
    const float tre = tl[2 * j], tim = tl[2 * j + 1];
    grad[2 * j] = g * (rre * tre + rim * tim);
    grad[2 * j + 1] = g * (rre * tim - rim * tre);
  }
  entities_.ApplyGradient(t.head, grad, lr);
  // d/dr.
  for (size_t j = 0; j < half; ++j) {
    const float hre = h[2 * j], him = h[2 * j + 1];
    const float tre = tl[2 * j], tim = tl[2 * j + 1];
    grad[2 * j] = g * (hre * tre + him * tim);
    grad[2 * j + 1] = g * (hre * tim - him * tre);
  }
  relations_.ApplyGradient(t.relation, grad, lr);
  // d/dt.
  for (size_t j = 0; j < half; ++j) {
    const float hre = h[2 * j], him = h[2 * j + 1];
    const float rre = r[2 * j], rim = r[2 * j + 1];
    grad[2 * j] = g * (hre * rre - him * rim);
    grad[2 * j + 1] = g * (him * rre + hre * rim);
  }
  entities_.ApplyGradient(t.tail, grad, lr);
  return math::LogisticLoss(score, label);
}

float ComplExModel::ScoreTriple(const kg::Triple& t) const {
  const size_t half = options_.dim / 2;
  const auto h = entities_.Row(t.head);
  const auto r = relations_.Row(t.relation);
  const auto tl = entities_.Row(t.tail);
  float score = 0.0f;
  for (size_t j = 0; j < half; ++j) {
    const float hre = h[2 * j], him = h[2 * j + 1];
    const float rre = r[2 * j], rim = r[2 * j + 1];
    const float tre = tl[2 * j], tim = tl[2 * j + 1];
    score += hre * rre * tre + him * rre * tim + hre * rim * tim -
             him * rim * tre;
  }
  return score;
}

}  // namespace openea::embedding
