#ifndef OPENEA_TEXT_WORD_EMBEDDINGS_H_
#define OPENEA_TEXT_WORD_EMBEDDINGS_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/text/translation.h"

namespace openea::text {

/// Memoized literal encoder: the one implementation behind
/// HashedNGramVector, PseudoWordEmbeddings and every literal feature builder
/// (DESIGN.md, word-embeddings substitution). Two memos:
///
///  * gram memo — Fnv1a(gram, seed) -> the gram's `dim` pseudo-Gaussian
///    floats, a pure function of the hash; adding the cached floats gives the
///    same values in the same element order as drawing them in place;
///  * word memo — surface word -> its word vector (the surface word is the
///    key because the cross-lingual noise is seeded from it).
///
/// So memoized features are bit-identical to unmemoized ones. The memos grow
/// with the distinct grams and words seen and are freed with the encoder:
/// make one per featurization call. Not thread-safe.
class LiteralEncoder {
 public:
  /// `dict` may be null (monolingual space); it must outlive the encoder.
  LiteralEncoder(size_t dim, uint64_t seed,
                 const TranslationDictionary* dict = nullptr,
                 float cross_lingual_noise = 0.0f);

  /// See HashedNGramVector.
  std::vector<float> NGramVector(std::string_view token);

  /// See PseudoWordEmbeddings::WordVector. The reference stays valid for
  /// the encoder's lifetime.
  const std::vector<float>& WordVector(const std::string& word);

  /// See PseudoWordEmbeddings::TextVector.
  std::vector<float> TextVector(std::string_view tokens);

  /// Work done so far.
  struct Counts {
    uint64_t grams = 0;      // Gram occurrences encoded.
    uint64_t gram_hits = 0;  // ... of which the gram memo served.
    uint64_t word_hits = 0;  // Word occurrences the word memo served.
  };
  const Counts& counts() const { return counts_; }

 private:
  /// The gram's floats; valid until the next call.
  std::span<const float> Gram(std::string_view gram);

  size_t dim_;
  uint64_t seed_;
  const TranslationDictionary* dict_;
  float noise_;
  // Gram hash -> offset of its `dim_` floats in `gram_values_`.
  std::unordered_map<uint64_t, size_t> gram_offsets_;
  std::vector<float> gram_values_;
  std::unordered_map<std::string, std::vector<float>> words_;
  Counts counts_;
};

/// Deterministic vector for an arbitrary string built from hashed character
/// n-grams (n = 3..5 plus the whole token), fastText-style: each n-gram hash
/// seeds a pseudo-Gaussian component vector and the result is their
/// normalized mean. Two strings sharing many n-grams get nearby vectors,
/// which is the property the character-level literal encoders rely on.
std::vector<float> HashedNGramVector(std::string_view token, size_t dim,
                                     uint64_t seed);

/// Stand-in for pre-trained (cross-lingually aligned) word embeddings
/// (paper Sect. 4 / [4]). Substitution documented in DESIGN.md: words are
/// embedded by hashed n-grams of their *canonical* form — when a
/// TranslationDictionary is supplied, a target-language word is first mapped
/// back to its source word, so translation pairs receive nearly identical
/// vectors (exactly what MUSE-aligned fastText provides), up to a
/// deterministic per-word cross-lingual perturbation of magnitude
/// `cross_lingual_noise`.
class PseudoWordEmbeddings {
 public:
  /// `dict` may be null (monolingual space); it must outlive this object.
  PseudoWordEmbeddings(size_t dim, uint64_t seed,
                       const TranslationDictionary* dict = nullptr,
                       float cross_lingual_noise = 0.05f);

  size_t dim() const { return dim_; }

  /// A fresh memoized encoder over this embedding space.
  LiteralEncoder Encoder() const {
    return LiteralEncoder(dim_, seed_, dict_, noise_);
  }

  /// Embedding of a single word.
  std::vector<float> WordVector(const std::string& word) const;

  /// Normalized mean of word vectors over whitespace-separated text; the
  /// zero vector for empty text.
  std::vector<float> TextVector(std::string_view tokens) const;

 private:
  size_t dim_;
  uint64_t seed_;
  const TranslationDictionary* dict_;
  float noise_;
};

}  // namespace openea::text

#endif  // OPENEA_TEXT_WORD_EMBEDDINGS_H_
