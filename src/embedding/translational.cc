#include "src/embedding/translational.h"

#include <cmath>

#include "src/math/kernels.h"
#include "src/math/vec.h"

namespace openea::embedding {
namespace {

using math::InitScheme;

/// Applies the margin-ranking rule shared by the translational family:
/// when loss = margin + E(pos) - E(neg) > 0, descend E(pos) and ascend
/// E(neg). `step` is +1 for positive-triple gradients, -1 for negatives.
struct PairGate {
  bool active = false;
  float loss = 0.0f;
};

PairGate MarginGate(float margin, float pos_energy, float neg_energy) {
  PairGate gate;
  const float raw = margin + pos_energy - neg_energy;
  if (raw > 0.0f) {
    gate.active = true;
    gate.loss = raw;
  }
  return gate;
}

}  // namespace

// ---------------------------------------------------------------------------
// TransE
// ---------------------------------------------------------------------------

TransEModel::TransEModel(size_t num_entities, size_t num_relations,
                         const TripleModelOptions& options, Rng& rng,
                         LimitLoss limit)
    : TripleModel(num_entities, options, rng),
      limit_(limit),
      relations_(num_relations, options.dim, InitScheme::kUnit, rng),
      scratch_(2 * options.dim) {}

float TransEModel::Energy(const kg::Triple& t, float* residual) const {
  return math::kernels::Active().translation_residual(
      entities_.Row(t.head).data(), relations_.Row(t.relation).data(),
      entities_.Row(t.tail).data(), residual, options_.dim);
}

void TransEModel::Descend(const kg::Triple& t, const float* residual,
                          float direction) {
  // dE/dh = 2 residual; dE/dr = 2 residual; dE/dt = -2 residual.
  math::kernels::TranslationStep step;
  step.head = entities_.Row(t.head).data();
  step.head_acc = entities_.AdagradRow(t.head).data();
  step.relation = relations_.Row(t.relation).data();
  step.relation_acc = relations_.AdagradRow(t.relation).data();
  step.tail = entities_.Row(t.tail).data();
  step.tail_acc = entities_.AdagradRow(t.tail).data();
  step.residual = residual;
  step.scale = direction * 2.0f;
  step.lr = options_.learning_rate;
  step.eps = math::EmbeddingTable::kAdagradEps;
  math::kernels::Active().translation_update(step, options_.dim);
}

float TransEModel::TrainOnPair(const kg::Triple& pos, const kg::Triple& neg) {
  float* rp = scratch_.data();
  float* rn = rp + options_.dim;
  const float ep = Energy(pos, rp);
  const float en = Energy(neg, rn);

  if (limit_.enabled) {
    // Limit-based loss (BootEA): max(0, E(pos) - l_pos) +
    // w * max(0, l_neg - E(neg)).
    float loss = 0.0f;
    if (ep > limit_.limit_pos) {
      Descend(pos, rp, +1.0f);
      loss += ep - limit_.limit_pos;
    }
    if (en < limit_.limit_neg) {
      Descend(neg, rn, -limit_.neg_weight);
      loss += limit_.neg_weight * (limit_.limit_neg - en);
    }
    return loss;
  }

  const PairGate gate = MarginGate(options_.margin, ep, en);
  if (!gate.active) return 0.0f;
  Descend(pos, rp, +1.0f);
  Descend(neg, rn, -1.0f);
  return gate.loss;
}

float TransEModel::TrainOnPositive(const kg::Triple& pos) {
  // MTransE-style positive-only energy minimization.
  const float energy = Energy(pos, scratch_.data());
  Descend(pos, scratch_.data(), +1.0f);
  return energy;
}

float TransEModel::ScoreTriple(const kg::Triple& t) const {
  // The energy of translation_residual, without writing the residual.
  const auto h = entities_.Row(t.head);
  const auto r = relations_.Row(t.relation);
  const auto tl = entities_.Row(t.tail);
  float e = 0.0f;
  for (size_t i = 0; i < options_.dim; ++i) {
    const float v = h[i] + r[i] - tl[i];
    e += v * v;
  }
  return -e;
}

// ---------------------------------------------------------------------------
// TransH
// ---------------------------------------------------------------------------

TransHModel::TransHModel(size_t num_entities, size_t num_relations,
                         const TripleModelOptions& options, Rng& rng)
    : TripleModel(num_entities, options, rng),
      translations_(num_relations, options.dim, InitScheme::kUnit, rng),
      normals_(num_relations, options.dim, InitScheme::kUnit, rng),
      scratch_(4 * options.dim) {}

float TransHModel::Energy(const kg::Triple& t, float* residual) const {
  const auto h = entities_.Row(t.head);
  const auto w = normals_.Row(t.relation);
  const auto dr = translations_.Row(t.relation);
  const auto tl = entities_.Row(t.tail);
  const float wh = math::Dot(w, h);
  const float wt = math::Dot(w, tl);
  float e = 0.0f;
  for (size_t i = 0; i < options_.dim; ++i) {
    const float v = (h[i] - wh * w[i]) + dr[i] - (tl[i] - wt * w[i]);
    if (residual != nullptr) residual[i] = v;
    e += v * v;
  }
  return e;
}

float TransHModel::TrainOnPair(const kg::Triple& pos, const kg::Triple& neg) {
  const size_t d = options_.dim;
  const std::span<float> rp(scratch_.data(), d), rn(rp.data() + d, d),
      grad(rn.data() + d, d), grad_w(grad.data() + d, d);
  const float ep = Energy(pos, rp.data());
  const float en = Energy(neg, rn.data());
  const PairGate gate = MarginGate(options_.margin, ep, en);
  if (!gate.active) return 0.0f;
  const float lr = options_.learning_rate;

  auto descend = [&](const kg::Triple& t, std::span<const float> res,
                     float direction) {
    const auto h = entities_.Row(t.head);
    const auto w = normals_.Row(t.relation);
    const auto tl = entities_.Row(t.tail);
    const float wd = math::Dot(w, res);
    // grad_h = 2 (res - (w . res) w); grad_t is its negation.
    for (size_t i = 0; i < d; ++i) {
      grad[i] = direction * 2.0f * (res[i] - wd * w[i]);
    }
    entities_.ApplyGradient(t.head, grad, lr);
    for (size_t i = 0; i < d; ++i) grad[i] = -grad[i];
    entities_.ApplyGradient(t.tail, grad, lr);
    // grad_dr = 2 res.
    for (size_t i = 0; i < d; ++i) grad[i] = direction * 2.0f * res[i];
    translations_.ApplyGradient(t.relation, grad, lr);
    // grad_w = -2 [(res . w)(h - t) + (w . (h - t)) res].
    const float wht = math::Dot(w, h) - math::Dot(w, tl);
    for (size_t i = 0; i < d; ++i) {
      grad_w[i] = direction * -2.0f * (wd * (h[i] - tl[i]) + wht * res[i]);
    }
    normals_.ApplyGradient(t.relation, grad_w, lr);
    normals_.NormalizeRow(t.relation);
  };
  descend(pos, rp, +1.0f);
  descend(neg, rn, -1.0f);
  return gate.loss;
}

float TransHModel::ScoreTriple(const kg::Triple& t) const {
  return -Energy(t, nullptr);
}

// ---------------------------------------------------------------------------
// TransR
// ---------------------------------------------------------------------------

TransRModel::TransRModel(size_t num_entities, size_t num_relations,
                         const TripleModelOptions& options, Rng& rng)
    : TripleModel(num_entities, options, rng),
      relations_(num_relations, options.dim, InitScheme::kUnit, rng),
      matrices_(num_relations, options.dim * options.dim,
                InitScheme::kUniform, rng),
      scratch_(3 * options.dim + options.dim * options.dim) {
  // Initialize each relation matrix near identity for stable starts.
  const size_t d = options.dim;
  for (size_t r = 0; r < num_relations; ++r) {
    auto m = matrices_.Row(r);
    for (size_t i = 0; i < m.size(); ++i) m[i] *= 0.1f;
    for (size_t i = 0; i < d; ++i) m[i * d + i] += 1.0f;
  }
}

float TransRModel::Energy(const kg::Triple& t, float* residual) const {
  const size_t d = options_.dim;
  const auto h = entities_.Row(t.head);
  const auto r = relations_.Row(t.relation);
  const auto tl = entities_.Row(t.tail);
  const auto m = matrices_.Row(t.relation);
  float e = 0.0f;
  for (size_t i = 0; i < d; ++i) {
    float mh = 0.0f, mt = 0.0f;
    for (size_t j = 0; j < d; ++j) {
      mh += m[i * d + j] * h[j];
      mt += m[i * d + j] * tl[j];
    }
    const float v = mh + r[i] - mt;
    if (residual != nullptr) residual[i] = v;
    e += v * v;
  }
  return e;
}

float TransRModel::TrainOnPair(const kg::Triple& pos, const kg::Triple& neg) {
  const size_t d = options_.dim;
  const std::span<float> residual_p(scratch_.data(), d),
      residual_n(residual_p.data() + d, d), grad(residual_n.data() + d, d),
      grad_m(grad.data() + d, d * d);
  const float ep = Energy(pos, residual_p.data());
  const float en = Energy(neg, residual_n.data());
  const PairGate gate = MarginGate(options_.margin, ep, en);
  if (!gate.active) return 0.0f;
  const float lr = options_.learning_rate;

  auto descend = [&](const kg::Triple& t, std::span<const float> res,
                     float direction) {
    const auto h = entities_.Row(t.head);
    const auto tl = entities_.Row(t.tail);
    const auto m = matrices_.Row(t.relation);
    // grad_h = 2 M^T res; grad_t = -2 M^T res.
    for (size_t j = 0; j < d; ++j) {
      float sum = 0.0f;
      for (size_t i = 0; i < d; ++i) sum += m[i * d + j] * res[i];
      grad[j] = direction * 2.0f * sum;
    }
    entities_.ApplyGradient(t.head, grad, lr);
    for (size_t j = 0; j < d; ++j) grad[j] = -grad[j];
    entities_.ApplyGradient(t.tail, grad, lr);
    // grad_r = 2 res.
    for (size_t i = 0; i < d; ++i) grad[i] = direction * 2.0f * res[i];
    relations_.ApplyGradient(t.relation, grad, lr);
    // grad_M = 2 res (h - t)^T.
    for (size_t i = 0; i < d; ++i) {
      for (size_t j = 0; j < d; ++j) {
        grad_m[i * d + j] = direction * 2.0f * res[i] * (h[j] - tl[j]);
      }
    }
    matrices_.ApplyGradient(t.relation, grad_m, lr);
  };
  descend(pos, residual_p, +1.0f);
  descend(neg, residual_n, -1.0f);
  return gate.loss;
}

float TransRModel::ScoreTriple(const kg::Triple& t) const {
  return -Energy(t, nullptr);
}

// ---------------------------------------------------------------------------
// TransD
// ---------------------------------------------------------------------------

TransDModel::TransDModel(size_t num_entities, size_t num_relations,
                         const TripleModelOptions& options, Rng& rng)
    : TripleModel(num_entities, options, rng),
      entity_proj_(num_entities, options.dim, InitScheme::kUniform, rng),
      relations_(num_relations, options.dim, InitScheme::kUnit, rng),
      relation_proj_(num_relations, options.dim, InitScheme::kUniform, rng),
      scratch_(3 * options.dim) {
  // Small projection vectors keep the initial mapping near identity.
  for (float& v : entity_proj_.MutableData()) v *= 0.1f;
  for (float& v : relation_proj_.MutableData()) v *= 0.1f;
}

float TransDModel::Energy(const kg::Triple& t, float* residual) const {
  const auto h = entities_.Row(t.head);
  const auto hp = entity_proj_.Row(t.head);
  const auto r = relations_.Row(t.relation);
  const auto rpv = relation_proj_.Row(t.relation);
  const auto tl = entities_.Row(t.tail);
  const auto tpv = entity_proj_.Row(t.tail);
  const float hph = math::Dot(hp, h);
  const float tpt = math::Dot(tpv, tl);
  float e = 0.0f;
  for (size_t i = 0; i < options_.dim; ++i) {
    const float v = (h[i] + hph * rpv[i]) + r[i] - (tl[i] + tpt * rpv[i]);
    if (residual != nullptr) residual[i] = v;
    e += v * v;
  }
  return e;
}

float TransDModel::TrainOnPair(const kg::Triple& pos, const kg::Triple& neg) {
  const size_t d = options_.dim;
  const std::span<float> rp(scratch_.data(), d), rn(rp.data() + d, d),
      grad(rn.data() + d, d);
  const float ep = Energy(pos, rp.data());
  const float en = Energy(neg, rn.data());
  const PairGate gate = MarginGate(options_.margin, ep, en);
  if (!gate.active) return 0.0f;
  const float lr = options_.learning_rate;

  auto descend = [&](const kg::Triple& t, std::span<const float> res,
                     float direction) {
    const auto h = entities_.Row(t.head);
    const auto hp = entity_proj_.Row(t.head);
    const auto rpv = relation_proj_.Row(t.relation);
    const auto tl = entities_.Row(t.tail);
    const auto tpv = entity_proj_.Row(t.tail);
    const float rd = math::Dot(rpv, res);
    const float hph = math::Dot(hp, h);
    const float tpt = math::Dot(tpv, tl);
    // grad_h = 2 (res + (r_p . res) h_p).
    for (size_t i = 0; i < d; ++i) {
      grad[i] = direction * 2.0f * (res[i] + rd * hp[i]);
    }
    entities_.ApplyGradient(t.head, grad, lr);
    // grad_hp = 2 (r_p . res) h.
    for (size_t i = 0; i < d; ++i) grad[i] = direction * 2.0f * rd * h[i];
    entity_proj_.ApplyGradient(t.head, grad, lr);
    // grad_t = -2 (res + (r_p . res) t_p).
    for (size_t i = 0; i < d; ++i) {
      grad[i] = direction * -2.0f * (res[i] + rd * tpv[i]);
    }
    entities_.ApplyGradient(t.tail, grad, lr);
    // grad_tp = -2 (r_p . res) t.
    for (size_t i = 0; i < d; ++i) grad[i] = direction * -2.0f * rd * tl[i];
    entity_proj_.ApplyGradient(t.tail, grad, lr);
    // grad_r = 2 res; grad_rp = 2 ((h_p.h) - (t_p.t)) res.
    for (size_t i = 0; i < d; ++i) grad[i] = direction * 2.0f * res[i];
    relations_.ApplyGradient(t.relation, grad, lr);
    for (size_t i = 0; i < d; ++i) {
      grad[i] = direction * 2.0f * (hph - tpt) * res[i];
    }
    relation_proj_.ApplyGradient(t.relation, grad, lr);
  };
  descend(pos, rp, +1.0f);
  descend(neg, rn, -1.0f);
  return gate.loss;
}

float TransDModel::ScoreTriple(const kg::Triple& t) const {
  return -Energy(t, nullptr);
}

}  // namespace openea::embedding
