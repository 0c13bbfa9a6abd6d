#include "src/text/word_embeddings.h"

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/math/vec.h"

namespace openea::text {
namespace {

uint64_t Fnv1a(std::string_view s, uint64_t seed) {
  uint64_t h = 1469598103934665603ULL ^ seed;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

LiteralEncoder::LiteralEncoder(size_t dim, uint64_t seed,
                               const TranslationDictionary* dict,
                               float cross_lingual_noise)
    : dim_(dim), seed_(seed), dict_(dict), noise_(cross_lingual_noise) {}

std::span<const float> LiteralEncoder::Gram(std::string_view gram) {
  const uint64_t hash = Fnv1a(gram, seed_);
  const auto [it, inserted] =
      gram_offsets_.try_emplace(hash, gram_values_.size());
  ++counts_.grams;
  if (inserted) {
    // Cheap deterministic pseudo-Gaussian stream from the hash.
    Rng rng(hash);
    for (size_t i = 0; i < dim_; ++i) {
      gram_values_.push_back(static_cast<float>(rng.NextGaussian()));
    }
  } else {
    ++counts_.gram_hits;
  }
  return std::span<const float>(gram_values_).subspan(it->second, dim_);
}

std::vector<float> LiteralEncoder::NGramVector(std::string_view token) {
  std::vector<float> vec(dim_, 0.0f);
  if (token.empty()) return vec;
  size_t count = 0;
  auto add = [&](std::string_view gram) {
    const std::span<const float> g = Gram(gram);
    for (size_t i = 0; i < dim_; ++i) vec[i] += g[i];
    ++count;
  };
  add(token);  // Whole-token gram.
  for (size_t n = 3; n <= 5; ++n) {
    if (token.size() < n) break;
    for (size_t i = 0; i + n <= token.size(); ++i) add(token.substr(i, n));
  }
  math::Scale(1.0f / static_cast<float>(count), std::span<float>(vec));
  math::NormalizeL2(std::span<float>(vec));
  return vec;
}

const std::vector<float>& LiteralEncoder::WordVector(const std::string& word) {
  const auto [it, inserted] = words_.try_emplace(word);
  if (!inserted) {
    ++counts_.word_hits;
    return it->second;
  }
  const std::string* canonical = &word;
  bool was_translated = false;
  if (dict_ != nullptr) {
    const std::string& back = dict_->UntranslateWord(word);
    if (&back != &word && back != word) {
      canonical = &back;
      was_translated = true;
    }
  }
  std::vector<float>& vec = it->second;
  vec = NGramVector(*canonical);
  if (was_translated && noise_ > 0.0f) {
    // Deterministic per-word perturbation models imperfect cross-lingual
    // alignment of the embedding spaces.
    Rng rng(Fnv1a(word, seed_ ^ 0xABCDEF12345ULL));
    for (float& v : vec) {
      v += noise_ * static_cast<float>(rng.NextGaussian());
    }
    math::NormalizeL2(std::span<float>(vec));
  }
  return vec;
}

std::vector<float> LiteralEncoder::TextVector(std::string_view tokens) {
  std::vector<float> vec(dim_, 0.0f);
  const auto words = openea::SplitWhitespace(tokens);
  if (words.empty()) return vec;
  for (const auto& w : words) {
    math::Add(std::span<const float>(vec),
              std::span<const float>(WordVector(w)), std::span<float>(vec));
  }
  math::Scale(1.0f / static_cast<float>(words.size()), std::span<float>(vec));
  math::NormalizeL2(std::span<float>(vec));
  return vec;
}

std::vector<float> HashedNGramVector(std::string_view token, size_t dim,
                                     uint64_t seed) {
  return LiteralEncoder(dim, seed).NGramVector(token);
}

PseudoWordEmbeddings::PseudoWordEmbeddings(size_t dim, uint64_t seed,
                                           const TranslationDictionary* dict,
                                           float cross_lingual_noise)
    : dim_(dim), seed_(seed), dict_(dict), noise_(cross_lingual_noise) {}

std::vector<float> PseudoWordEmbeddings::WordVector(
    const std::string& word) const {
  return Encoder().WordVector(word);
}

std::vector<float> PseudoWordEmbeddings::TextVector(
    std::string_view tokens) const {
  return Encoder().TextVector(tokens);
}

}  // namespace openea::text
