#ifndef OPENEA_MATH_VEC_H_
#define OPENEA_MATH_VEC_H_

#include <cstddef>
#include <span>
#include <vector>

namespace openea::math {

/// Dot product of two equal-length vectors.
float Dot(std::span<const float> a, std::span<const float> b);

/// y += alpha * x.
void Axpy(float alpha, std::span<const float> x, std::span<float> y);

/// x *= alpha.
void Scale(float alpha, std::span<float> x);

/// out = a + b (out may alias a or b).
void Add(std::span<const float> a, std::span<const float> b,
         std::span<float> out);

/// out = a - b (out may alias a or b).
void Sub(std::span<const float> a, std::span<const float> b,
         std::span<float> out);

/// Sum of squares.
float SquaredL2Norm(std::span<const float> x);

/// Euclidean norm.
float L2Norm(std::span<const float> x);

/// Sum of absolute values.
float L1Norm(std::span<const float> x);

/// Scales x to unit L2 norm (no-op on the zero vector).
void NormalizeL2(std::span<float> x);

/// Squared Euclidean distance between a and b.
float SquaredEuclideanDistance(std::span<const float> a,
                               std::span<const float> b);

/// Euclidean distance between a and b.
float EuclideanDistance(std::span<const float> a, std::span<const float> b);

/// Manhattan (L1) distance between a and b.
float ManhattanDistance(std::span<const float> a, std::span<const float> b);

/// Cosine similarity; 0 when either vector is zero.
float CosineSimilarity(std::span<const float> a, std::span<const float> b);

/// Elementwise product: out = a * b.
void Hadamard(std::span<const float> a, std::span<const float> b,
              std::span<float> out);

/// Sets all elements to `value`.
void Fill(std::span<float> x, float value);

/// In-place numerically-stable softmax.
void SoftmaxInPlace(std::span<float> x);

/// Logistic sigmoid of a scalar.
float Sigmoid(float x);

/// Logistic loss of a score with label +1 or -1: L = -log sigma(label * s),
/// with sigma clamped at 1e-7. LogisticGradScale is dL/ds,
/// label * (sigma(label * s) - 1).
float LogisticLoss(float score, float label);
float LogisticGradScale(float score, float label);

}  // namespace openea::math

#endif  // OPENEA_MATH_VEC_H_
