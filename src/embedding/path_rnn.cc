#include "src/embedding/path_rnn.h"

#include <cmath>

#include "src/common/logging.h"
#include "src/math/kernels.h"
#include "src/math/vec.h"

namespace openea::embedding {
namespace {

void AddOuter(math::Matrix& grad, std::span<const float> a,
              std::span<const float> b) {
  // grad += a b^T, one dispatched axpy per output row.
  const math::kernels::KernelTable& kt = math::kernels::Active();
  for (size_t i = 0; i < a.size(); ++i) {
    kt.axpy(a[i], b.data(), grad.Row(i).data(), b.size());
  }
}

}  // namespace

RsnModel::RsnModel(size_t num_entities, size_t num_relations,
                   const RsnOptions& options, Rng& rng)
    : options_(options),
      entities_(num_entities, options.dim, math::InitScheme::kUnit, rng),
      relations_(num_relations, options.dim, math::InitScheme::kUnit, rng),
      w_input_(options.dim, options.dim),
      w_hidden_(options.dim, options.dim),
      w_out_h_(options.dim, options.dim),
      w_out_e_(options.dim, options.dim) {
  // Near-identity initialization stabilizes the recurrent dynamics.
  for (math::Matrix* m : {&w_input_, &w_hidden_, &w_out_h_, &w_out_e_}) {
    m->FillUniform(rng, 0.05f);
    for (size_t i = 0; i < options.dim; ++i) m->At(i, i) += 0.5f;
  }
}

void RsnModel::Forward(const std::vector<kg::Triple>& chain) {
  const size_t d = options_.dim;
  xs_.clear();
  x_ids_.clear();
  x_is_entity_.clear();
  hs_.clear();

  auto push_input = [&](int32_t id, bool is_entity) {
    const auto row = is_entity ? entities_.Row(id) : relations_.Row(id);
    xs_.emplace_back(row.begin(), row.end());
    x_ids_.push_back(id);
    x_is_entity_.push_back(is_entity);
  };
  push_input(chain.front().head, true);
  for (const kg::Triple& t : chain) {
    push_input(t.relation, false);
    push_input(t.tail, true);
  }
  // h_t = tanh(W_x x_t + W_h h_{t-1}), h_{-1} = 0. The final entity input
  // never needs a state, but computing it is harmless and keeps indexing
  // simple.
  std::vector<float> wx(d), wh(d), prev(d, 0.0f);
  for (size_t t = 0; t < xs_.size(); ++t) {
    math::MatVec(w_input_, xs_[t], wx);
    math::MatVec(w_hidden_, prev, wh);
    std::vector<float> h(d);
    for (size_t i = 0; i < d; ++i) h[i] = std::tanh(wx[i] + wh[i]);
    hs_.push_back(h);
    prev = hs_.back();
  }
}

float RsnModel::ScoreNext(const std::vector<kg::Triple>& chain, size_t step,
                          kg::EntityId candidate) {
  Forward(chain);
  const size_t d = options_.dim;
  const size_t t = 1 + 2 * step;  // Position of relation r_step.
  OPENEA_CHECK_LT(t, hs_.size());
  std::vector<float> o(d), tmp(d);
  math::MatVec(w_out_h_, hs_[t], o);
  // Skip connection from the subject entity of this hop.
  math::MatVec(w_out_e_, xs_[t - 1], tmp);
  math::Add(std::span<const float>(o), std::span<const float>(tmp),
            std::span<float>(o));
  return math::Dot(o, entities_.Row(candidate));
}

float RsnModel::TrainOnChain(const std::vector<kg::Triple>& chain, Rng& rng) {
  if (chain.empty()) return 0.0f;
  Forward(chain);
  const size_t d = options_.dim;
  const size_t n = entities_.num_rows();
  const float lr = options_.learning_rate;

  math::Matrix grad_wx(d, d, 0.0f), grad_wh(d, d, 0.0f);
  math::Matrix grad_woh(d, d, 0.0f), grad_woe(d, d, 0.0f);
  std::vector<float> o(d), tmp(d), g_o(d), g_h(d), g_pre(d), g_x(d);
  float total_loss = 0.0f;

  // One prediction per hop: at relation position t = 1 + 2*step, predict
  // the tail entity of that hop.
  for (size_t step = 0; step < chain.size(); ++step) {
    const size_t t = 1 + 2 * step;
    const kg::EntityId target = chain[step].tail;

    math::MatVec(w_out_h_, hs_[t], o);
    math::MatVec(w_out_e_, xs_[t - 1], tmp);
    math::Add(std::span<const float>(o), std::span<const float>(tmp),
              std::span<float>(o));

    std::fill(g_o.begin(), g_o.end(), 0.0f);
    auto consume_candidate = [&](kg::EntityId cand, float label) {
      const auto cand_row = entities_.Row(cand);
      const float score = math::Dot(o, cand_row);
      const float g = math::LogisticGradScale(score, label);
      total_loss += math::LogisticLoss(score, label);
      for (size_t i = 0; i < d; ++i) {
        g_o[i] += g * cand_row[i];
        g_x[i] = g * o[i];
      }
      entities_.ApplyGradient(cand, g_x, lr);
    };
    consume_candidate(target, +1.0f);
    for (int k = 0; k < options_.negatives; ++k) {
      consume_candidate(static_cast<kg::EntityId>(rng.NextBounded(n)),
                        -1.0f);
    }

    // Output layer gradients.
    AddOuter(grad_woh, g_o, hs_[t]);
    AddOuter(grad_woe, g_o, xs_[t - 1]);
    // Skip path gradient into the subject-entity embedding.
    math::MatTransposeVec(w_out_e_, g_o, g_x);
    if (x_is_entity_[t - 1]) entities_.ApplyGradient(x_ids_[t - 1], g_x, lr);

    // BPTT from h_t back to h_0.
    math::MatTransposeVec(w_out_h_, g_o, g_h);
    for (size_t tau = t + 1; tau-- > 0;) {
      for (size_t i = 0; i < d; ++i) {
        g_pre[i] = g_h[i] * (1.0f - hs_[tau][i] * hs_[tau][i]);
      }
      AddOuter(grad_wx, g_pre, xs_[tau]);
      math::MatTransposeVec(w_input_, g_pre, g_x);
      if (x_is_entity_[tau]) {
        entities_.ApplyGradient(x_ids_[tau], g_x, lr);
      } else {
        relations_.ApplyGradient(x_ids_[tau], g_x, lr);
      }
      if (tau > 0) {
        AddOuter(grad_wh, g_pre, hs_[tau - 1]);
        math::MatTransposeVec(w_hidden_, g_pre, g_h);
      }
    }
  }

  w_input_state_.Apply(w_input_, grad_wx, lr);
  w_hidden_state_.Apply(w_hidden_, grad_wh, lr);
  w_out_h_state_.Apply(w_out_h_, grad_woh, lr);
  w_out_e_state_.Apply(w_out_e_, grad_woe, lr);
  return total_loss;
}

std::vector<kg::Triple> RsnModel::SampleChain(
    const std::vector<kg::Triple>& triples,
    const std::vector<std::vector<int>>& out_index, Rng& rng, int hops) {
  std::vector<kg::Triple> chain;
  if (triples.empty()) return chain;
  const kg::Triple& first = triples[rng.NextBounded(triples.size())];
  chain.push_back(first);
  while (static_cast<int>(chain.size()) < hops) {
    const kg::EntityId at = chain.back().tail;
    if (static_cast<size_t>(at) >= out_index.size() ||
        out_index[at].empty()) {
      break;
    }
    const auto& outs = out_index[at];
    chain.push_back(triples[outs[rng.NextBounded(outs.size())]]);
  }
  return chain;
}

}  // namespace openea::embedding
