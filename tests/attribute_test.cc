#include <gtest/gtest.h>

#include <cstring>
#include <string_view>

#include "src/approaches/common.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/common/telemetry.h"
#include "src/datagen/kg_pair.h"
#include "src/embedding/attribute.h"
#include "src/math/vec.h"

namespace openea::embedding {
namespace {

datagen::DatasetPair MakePair(const datagen::HeterogeneityProfile& profile) {
  datagen::SyntheticKgConfig config;
  config.num_entities = 300;
  config.num_relations = 15;
  config.num_attributes = 12;
  config.vocabulary_size = 150;
  config.seed = 9;
  return GenerateDatasetPair(config, profile, 9);
}

TEST(AlignAttributesTest, RecoversCorrespondenceOnDbpYg) {
  // D-Y keeps attribute values nearly identical, so value overlap should
  // align most surviving attributes.
  const auto pair = MakePair(datagen::HeterogeneityProfile::DbpYg());
  const auto mapping = AlignAttributesByName(pair.kg1, pair.kg2, 0.3);
  size_t aligned = 0;
  for (int m : mapping) {
    if (m >= 0) ++aligned;
  }
  EXPECT_GT(aligned, mapping.size() / 2);
}

TEST(AlignAttributesTest, OpaqueNamesStillMatchByValues) {
  // D-W attribute names are numeric (no lexical overlap); any surviving
  // alignment must come from value overlap alone.
  const auto pair = MakePair(datagen::HeterogeneityProfile::DbpWd());
  const auto with_values = AlignAttributesByName(pair.kg1, pair.kg2, 0.3);
  const auto strict = AlignAttributesByName(pair.kg1, pair.kg2, 0.95);
  size_t loose_count = 0, strict_count = 0;
  for (int m : with_values) {
    if (m >= 0) ++loose_count;
  }
  for (int m : strict) {
    if (m >= 0) ++strict_count;
  }
  EXPECT_GE(loose_count, strict_count);
}

TEST(AttributeCorrelationTest, CorrelatedAttributesEndUpCloser) {
  const auto pair = MakePair(datagen::HeterogeneityProfile::EnFr());
  Rng rng(3);
  AttributeCorrelationEmbedding emb(pair.kg1, pair.kg2, 16, rng);
  emb.Train(5, 0.1f, rng);
  // Entity vectors should be unit length (or zero for attribute-less
  // entities).
  const auto vectors = emb.EntityAttributeVectors(pair.kg1, false);
  for (size_t e = 0; e < vectors.rows(); ++e) {
    const float norm = math::L2Norm(vectors.Row(e));
    EXPECT_TRUE(norm < 1e-6f || std::fabs(norm - 1.0f) < 1e-4f);
  }
}

TEST(AttributeCorrelationTest, AlignedEntitiesMoreSimilarThanRandom) {
  const auto pair = MakePair(datagen::HeterogeneityProfile::DbpYg());
  Rng rng(3);
  AttributeCorrelationEmbedding emb(pair.kg1, pair.kg2, 16, rng);
  emb.Train(5, 0.1f, rng);
  const auto v1 = emb.EntityAttributeVectors(pair.kg1, false);
  const auto v2 = emb.EntityAttributeVectors(pair.kg2, true);
  double aligned_sim = 0.0, random_sim = 0.0;
  size_t count = 0;
  Rng pick(7);
  for (const auto& p : pair.reference) {
    aligned_sim += math::CosineSimilarity(v1.Row(p.left), v2.Row(p.right));
    random_sim += math::CosineSimilarity(
        v1.Row(p.left), v2.Row(pick.NextBounded(pair.kg2.NumEntities())));
    ++count;
  }
  EXPECT_GT(aligned_sim / count, random_sim / count);
}

TEST(LiteralFeaturesTest, AlignedEntitiesAreNearest) {
  const auto pair = MakePair(datagen::HeterogeneityProfile::DbpYg());
  const text::PseudoWordEmbeddings words(32, 5);
  const auto f1 = BuildLiteralFeatures(pair.kg1, words, true);
  const auto f2 = BuildLiteralFeatures(pair.kg2, words, true);
  double aligned_sim = 0.0, random_sim = 0.0;
  Rng pick(7);
  for (const auto& p : pair.reference) {
    aligned_sim += math::CosineSimilarity(f1.Row(p.left), f2.Row(p.right));
    random_sim += math::CosineSimilarity(
        f1.Row(p.left), f2.Row(pick.NextBounded(pair.kg2.NumEntities())));
  }
  EXPECT_GT(aligned_sim, random_sim + 0.2 * pair.reference.size());
}

TEST(LiteralFeaturesTest, CrossLingualDictionaryHelps) {
  const auto pair = MakePair(datagen::HeterogeneityProfile::EnFr());
  const text::PseudoWordEmbeddings with_dict(32, 5, &pair.dictionary);
  const text::PseudoWordEmbeddings without_dict(32, 5);
  auto mean_aligned_sim = [&](const text::PseudoWordEmbeddings& words) {
    const auto f1 = BuildLiteralFeatures(pair.kg1, words, false);
    const auto f2 = BuildLiteralFeatures(pair.kg2, words, false);
    double sum = 0.0;
    for (const auto& p : pair.reference) {
      sum += math::CosineSimilarity(f1.Row(p.left), f2.Row(p.right));
    }
    return sum / static_cast<double>(pair.reference.size());
  };
  EXPECT_GT(mean_aligned_sim(with_dict), mean_aligned_sim(without_dict));
}

TEST(DescriptionFeaturesTest, ZeroRowsForMissingDescriptions) {
  const auto pair = MakePair(datagen::HeterogeneityProfile::EnFr());
  const text::PseudoWordEmbeddings words(16, 5);
  const auto f = BuildDescriptionFeatures(pair.kg1, words);
  size_t zero_rows = 0;
  for (size_t e = 0; e < f.rows(); ++e) {
    const bool has_desc =
        !pair.kg1.Description(static_cast<kg::EntityId>(e)).empty();
    const bool zero = math::L2Norm(f.Row(e)) < 1e-8f;
    EXPECT_EQ(zero, !has_desc);
    if (zero) ++zero_rows;
  }
  EXPECT_GT(zero_rows, 0u);  // Some entities lack descriptions.
}

TEST(CharLiteralFeaturesTest, DeterministicAndNormalized) {
  const auto pair = MakePair(datagen::HeterogeneityProfile::DbpYg());
  const auto a = BuildCharLiteralFeatures(pair.kg1, 16, 3);
  const auto b = BuildCharLiteralFeatures(pair.kg1, 16, 3);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(a.Data()[i], b.Data()[i]);
  }
}

// ---- Memoized literal encoder: bit-identity pins ----------------------------

// Historical featurization, rebuilt from the per-token public encoders: one
// WordVector / HashedNGramVector call per token occurrence, added in order.
std::vector<float> ReferenceTextVector(const text::PseudoWordEmbeddings& words,
                                       std::string_view tokens) {
  std::vector<float> vec(words.dim(), 0.0f);
  const auto split = SplitWhitespace(tokens);
  if (split.empty()) return vec;
  for (const auto& w : split) {
    const auto wv = words.WordVector(w);
    for (size_t i = 0; i < vec.size(); ++i) vec[i] = vec[i] + wv[i];
  }
  math::Scale(1.0f / static_cast<float>(split.size()), std::span<float>(vec));
  math::NormalizeL2(std::span<float>(vec));
  return vec;
}

math::Matrix ReferenceLiteralFeatures(const kg::KnowledgeGraph& kg,
                                      const text::PseudoWordEmbeddings& words,
                                      bool include_descriptions) {
  math::Matrix out(kg.NumEntities(), words.dim(), 0.0f);
  for (size_t e = 0; e < kg.NumEntities(); ++e) {
    std::string text;
    for (const kg::AttributeTriple& t :
         kg.EntityAttributes(static_cast<kg::EntityId>(e))) {
      text += kg.literals().Name(t.value);
      text += ' ';
    }
    if (include_descriptions) {
      text += kg.Description(static_cast<kg::EntityId>(e));
    }
    const auto vec = ReferenceTextVector(words, text);
    std::copy(vec.begin(), vec.end(), out.Row(e).begin());
  }
  return out;
}

math::Matrix ReferenceDescriptionFeatures(
    const kg::KnowledgeGraph& kg, const text::PseudoWordEmbeddings& words) {
  math::Matrix out(kg.NumEntities(), words.dim(), 0.0f);
  for (size_t e = 0; e < kg.NumEntities(); ++e) {
    const std::string& desc = kg.Description(static_cast<kg::EntityId>(e));
    if (desc.empty()) continue;
    const auto vec = ReferenceTextVector(words, desc);
    std::copy(vec.begin(), vec.end(), out.Row(e).begin());
  }
  return out;
}

math::Matrix ReferenceCharLiteralFeatures(const kg::KnowledgeGraph& kg,
                                          size_t dim, uint64_t seed) {
  math::Matrix out(kg.NumEntities(), dim, 0.0f);
  for (size_t e = 0; e < kg.NumEntities(); ++e) {
    auto row = out.Row(e);
    size_t count = 0;
    for (const kg::AttributeTriple& t :
         kg.EntityAttributes(static_cast<kg::EntityId>(e))) {
      const auto vec =
          text::HashedNGramVector(kg.literals().Name(t.value), dim, seed);
      math::Axpy(1.0f, vec, row);
      ++count;
    }
    if (count > 0) math::NormalizeL2(row);
  }
  return out;
}

void ExpectBitIdentical(const math::Matrix& got, const math::Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  EXPECT_EQ(std::memcmp(got.Data().data(), want.Data().data(),
                        got.size() * sizeof(float)),
            0);
}

uint64_t HashFloats(const math::Matrix& m) {
  uint64_t h = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(m.Data().data());
  for (size_t i = 0; i < m.size() * sizeof(float); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// The translated KG of an EN-FR pair, plus hand-made edge cases: entities
// without attributes, an empty description, repeated words and literals,
// tokens shorter than the 3-gram, a token made of one repeated gram, and a
// source word next to its translation (one canonical word, two surface words
// with different noise).
kg::KnowledgeGraph EdgeCaseKg(const datagen::DatasetPair& pair) {
  std::string mixed;
  for (size_t l = 0; l < pair.kg1.NumLiterals() && mixed.empty(); ++l) {
    for (const std::string& w : SplitWhitespace(
             pair.kg1.literals().Name(static_cast<kg::LiteralId>(l)))) {
      const std::string& t = pair.dictionary.TranslateWord(w);
      if (t != w) {
        mixed = w + " " + t + " " + w + " " + t;
        break;
      }
    }
  }
  EXPECT_FALSE(mixed.empty());
  kg::KnowledgeGraph kg = pair.kg2;
  const kg::AttributeId attr = kg.AddAttribute("fr:attr_edge");
  const kg::LiteralId repeated = kg.AddLiteral("a of xy a of xy");
  const kg::LiteralId grams = kg.AddLiteral("aaaaaaaa aaaaaaaa b");
  const kg::LiteralId both = kg.AddLiteral(mixed);
  // A literal already in the KG, reused verbatim by a new entity.
  const kg::LiteralId existing = kg.attribute_triples().front().value;
  const kg::EntityId bare = kg.AddEntity("fr:edge_bare");
  kg.SetDescription(bare, "une description sans attributs");
  kg.AddEntity("fr:edge_bare_no_description");
  const kg::EntityId rich = kg.AddEntity("fr:edge_rich");
  kg.AddAttributeTriple(rich, attr, repeated);
  kg.AddAttributeTriple(rich, attr, repeated);
  kg.AddAttributeTriple(rich, attr, grams);
  kg.AddAttributeTriple(rich, attr, existing);
  kg.SetDescription(rich, "");
  const kg::EntityId bilingual = kg.AddEntity("fr:edge_bilingual");
  kg.AddAttributeTriple(bilingual, attr, both);
  kg.SetDescription(bilingual, mixed);
  kg.BuildIndex();
  return kg;
}

TEST(LiteralEncoderTest, FeatureBuildersMatchPerTokenReference) {
  const auto pair = MakePair(datagen::HeterogeneityProfile::EnFr());
  ASSERT_GT(pair.dictionary.size(), 0u);
  const kg::KnowledgeGraph kg2 = EdgeCaseKg(pair);
  const text::PseudoWordEmbeddings words(32, 11, &pair.dictionary, 0.1f);
  for (const kg::KnowledgeGraph* kg : {&pair.kg1, &kg2}) {
    ExpectBitIdentical(BuildLiteralFeatures(*kg, words, true),
                       ReferenceLiteralFeatures(*kg, words, true));
    ExpectBitIdentical(BuildLiteralFeatures(*kg, words, false),
                       ReferenceLiteralFeatures(*kg, words, false));
    ExpectBitIdentical(BuildDescriptionFeatures(*kg, words),
                       ReferenceDescriptionFeatures(*kg, words));
    ExpectBitIdentical(BuildCharLiteralFeatures(*kg, 24, 13),
                       ReferenceCharLiteralFeatures(*kg, 24, 13));
  }
}

TEST(LiteralEncoderTest, EncoderMatchesPublicWrappers) {
  text::TranslationDictionary dict;
  dict.AddPair("house", "maison");
  const text::PseudoWordEmbeddings words(16, 42, &dict, 0.1f);
  text::LiteralEncoder encoder = words.Encoder();
  for (const std::string w : {"maison", "house", "maison", "ab", "aaaaaa"}) {
    EXPECT_EQ(encoder.WordVector(w), words.WordVector(w));
  }
  EXPECT_EQ(encoder.TextVector("maison  la maison ab"),
            words.TextVector("maison  la maison ab"));
  EXPECT_EQ(encoder.TextVector(""), words.TextVector(""));
  text::LiteralEncoder grams(16, 42);
  for (const std::string_view t : {"alignment", "x", "alignment", ""}) {
    EXPECT_EQ(grams.NGramVector(t), text::HashedNGramVector(t, 16, 42));
  }
  // "alignment" is 1 + 7 + 6 + 5 grams; its second encoding is all hits.
  EXPECT_EQ(grams.counts().grams, 2u * 19u + 1u);
  EXPECT_EQ(grams.counts().gram_hits, 19u);
  EXPECT_EQ(encoder.counts().word_hits, 4u);  // maison x3, ab.
}

TEST(LiteralEncoderTest, BuildersCountTheirWork) {
  const auto pair = MakePair(datagen::HeterogeneityProfile::EnFr());
  const text::PseudoWordEmbeddings words(16, 5, &pair.dictionary);
  telemetry::SetCollectForTesting(true);
  telemetry::ResetForTesting();
  const auto plain = BuildLiteralFeatures(pair.kg1, words, true);
  const auto char_features = BuildCharLiteralFeatures(pair.kg1, 16, 3);
  const auto counters = telemetry::SnapshotMetrics().counters;
  const auto spans = telemetry::SnapshotSpans();
  telemetry::SetCollectForTesting(false);
  telemetry::ResetForTesting();
  EXPECT_GT(counters.at("text/literal_grams"),
            counters.at("text/gram_memo_hits"));
  EXPECT_GT(counters.at("text/gram_memo_hits"), 0u);
  EXPECT_GT(counters.at("text/word_memo_hits"), 0u);
  bool found = false;
  for (const auto& s : spans) {
    if (s.path == "literal_features") {
      found = true;
      EXPECT_EQ(s.count, 2u);
    }
  }
  EXPECT_TRUE(found);
  // Telemetry on or off, the features are the same.
  ExpectBitIdentical(plain, BuildLiteralFeatures(pair.kg1, words, true));
  ExpectBitIdentical(char_features, BuildCharLiteralFeatures(pair.kg1, 16, 3));
}

TEST(LiteralEncoderTest, MultiKeLiteralViewIsPinned) {
  // MultiKE's fixed literal view (src/approaches/multike.cc) at dim 32, seed
  // 7, on an EN-FR pair: the char-level and word-level channels
  // concatenated. The hashes were taken before the encoder was memoized.
  const auto pair = MakePair(datagen::HeterogeneityProfile::EnFr());
  constexpr size_t kDim = 32;
  constexpr uint64_t kSeed = 7;
  const text::PseudoWordEmbeddings words(kDim, kSeed ^ 0x23,
                                         &pair.dictionary);
  auto view = [&](const kg::KnowledgeGraph& kg) {
    return approaches::ConcatViews(
        BuildCharLiteralFeatures(kg, kDim, kSeed ^ 0x29),
        BuildLiteralFeatures(kg, words, true), 1.0f);
  };
  EXPECT_EQ(HashFloats(view(pair.kg1)), 0x40cba6c159297902ULL);
  EXPECT_EQ(HashFloats(view(pair.kg2)), 0x929acd6165ac3d6bULL);
}

}  // namespace
}  // namespace openea::embedding
