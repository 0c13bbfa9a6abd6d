// Thin wrappers over the runtime-dispatched kernel table
// (src/math/kernels.h). Every span-level vector operation in the library
// resolves to the table selected at startup; nothing below hand-rolls a
// float loop unless the operation has no kernel (softmax, sigmoid — cold
// paths by construction).

#include "src/math/vec.h"

#include <algorithm>
#include <cmath>

#include "src/math/kernels.h"

namespace openea::math {

float Dot(std::span<const float> a, std::span<const float> b) {
  return kernels::Active().dot(a.data(), b.data(), a.size());
}

void Axpy(float alpha, std::span<const float> x, std::span<float> y) {
  kernels::Active().axpy(alpha, x.data(), y.data(), x.size());
}

void Scale(float alpha, std::span<float> x) {
  kernels::Active().scale(alpha, x.data(), x.size());
}

void Add(std::span<const float> a, std::span<const float> b,
         std::span<float> out) {
  kernels::Active().add(a.data(), b.data(), out.data(), a.size());
}

void Sub(std::span<const float> a, std::span<const float> b,
         std::span<float> out) {
  kernels::Active().sub(a.data(), b.data(), out.data(), a.size());
}

float SquaredL2Norm(std::span<const float> x) {
  return kernels::Active().squared_l2(x.data(), x.size());
}

float L2Norm(std::span<const float> x) { return std::sqrt(SquaredL2Norm(x)); }

float L1Norm(std::span<const float> x) {
  return kernels::Active().l1(x.data(), x.size());
}

void NormalizeL2(std::span<float> x) {
  const float norm = L2Norm(x);
  if (norm > 1e-12f) Scale(1.0f / norm, x);
}

float SquaredEuclideanDistance(std::span<const float> a,
                               std::span<const float> b) {
  return kernels::Active().squared_l2_distance(a.data(), b.data(), a.size());
}

float EuclideanDistance(std::span<const float> a, std::span<const float> b) {
  return std::sqrt(SquaredEuclideanDistance(a, b));
}

float ManhattanDistance(std::span<const float> a, std::span<const float> b) {
  return kernels::Active().l1_distance(a.data(), b.data(), a.size());
}

float CosineSimilarity(std::span<const float> a, std::span<const float> b) {
  const float na = L2Norm(a);
  const float nb = L2Norm(b);
  if (na < 1e-12f || nb < 1e-12f) return 0.0f;
  return Dot(a, b) / (na * nb);
}

void Hadamard(std::span<const float> a, std::span<const float> b,
              std::span<float> out) {
  kernels::Active().hadamard(a.data(), b.data(), out.data(), a.size());
}

void Fill(std::span<float> x, float value) {
  std::fill(x.begin(), x.end(), value);
}

void SoftmaxInPlace(std::span<float> x) {
  if (x.empty()) return;
  const float max_val = *std::max_element(x.begin(), x.end());
  float sum = 0.0f;
  for (float& v : x) {
    v = std::exp(v - max_val);
    sum += v;
  }
  if (sum > 0.0f) Scale(1.0f / sum, x);
}

float Sigmoid(float x) {
  if (x >= 0.0f) {
    const float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  const float z = std::exp(x);
  return z / (1.0f + z);
}

float LogisticLoss(float score, float label) {
  const float p = Sigmoid(label * score);
  return -std::log(std::max(p, 1e-7f));
}

float LogisticGradScale(float score, float label) {
  return label * (Sigmoid(label * score) - 1.0f);
}

}  // namespace openea::math
