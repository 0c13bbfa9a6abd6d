#include "src/embedding/attribute.h"

#include <unordered_map>
#include <unordered_set>

#include "src/common/strings.h"
#include "src/common/telemetry.h"
#include "src/math/vec.h"

namespace openea::embedding {
namespace {

/// Local name after the namespace prefix, e.g. "fr:attr_kaleso" ->
/// "attr_kaleso".
std::string LocalName(const std::string& iri) {
  const size_t colon = iri.find(':');
  return colon == std::string::npos ? iri : iri.substr(colon + 1);
}

/// Collects up to `cap` distinct values observed for each attribute.
std::vector<std::unordered_set<std::string>> AttributeValueSets(
    const kg::KnowledgeGraph& kg, size_t cap = 200) {
  std::vector<std::unordered_set<std::string>> sets(kg.NumAttributes());
  for (const kg::AttributeTriple& t : kg.attribute_triples()) {
    auto& set = sets[t.attribute];
    if (set.size() < cap) set.insert(kg.literals().Name(t.value));
  }
  return sets;
}

/// Adds one featurization call's encoder work to the `text/` counters.
void CountLiteralWork(const text::LiteralEncoder& encoder) {
  const text::LiteralEncoder::Counts& counts = encoder.counts();
  telemetry::IncrCounter("text/literal_grams", counts.grams);
  telemetry::IncrCounter("text/gram_memo_hits", counts.gram_hits);
  telemetry::IncrCounter("text/word_memo_hits", counts.word_hits);
}

double JaccardOverlap(const std::unordered_set<std::string>& a,
                      const std::unordered_set<std::string>& b) {
  if (a.empty() || b.empty()) return 0.0;
  size_t inter = 0;
  const auto& small = a.size() < b.size() ? a : b;
  const auto& large = a.size() < b.size() ? b : a;
  for (const auto& v : small) {
    if (large.count(v) > 0) ++inter;
  }
  return static_cast<double>(inter) /
         static_cast<double>(a.size() + b.size() - inter);
}

}  // namespace

std::vector<int> AlignAttributesByName(const kg::KnowledgeGraph& kg1,
                                       const kg::KnowledgeGraph& kg2,
                                       double threshold) {
  const auto values1 = AttributeValueSets(kg1);
  const auto values2 = AttributeValueSets(kg2);
  std::vector<int> mapping(kg2.NumAttributes(), -1);
  for (size_t a2 = 0; a2 < kg2.NumAttributes(); ++a2) {
    const std::string name2 =
        LocalName(kg2.attributes().Name(static_cast<int>(a2)));
    double best = threshold;
    int best_a1 = -1;
    for (size_t a1 = 0; a1 < kg1.NumAttributes(); ++a1) {
      const std::string name1 =
          LocalName(kg1.attributes().Name(static_cast<int>(a1)));
      const double name_sim = openea::EditSimilarity(name1, name2);
      const double value_sim = JaccardOverlap(values1[a1], values2[a2]);
      const double score = 0.5 * name_sim + 0.5 * value_sim;
      if (score > best) {
        best = score;
        best_a1 = static_cast<int>(a1);
      }
    }
    mapping[a2] = best_a1;
  }
  return mapping;
}

AttributeCorrelationEmbedding::AttributeCorrelationEmbedding(
    const kg::KnowledgeGraph& kg1, const kg::KnowledgeGraph& kg2, size_t dim,
    Rng& rng, double align_threshold)
    : num_kg1_entities_(kg1.NumEntities()) {
  const std::vector<int> aligned =
      AlignAttributesByName(kg1, kg2, align_threshold);
  map2_.assign(kg2.NumAttributes(), -1);
  size_t next = kg1.NumAttributes();
  for (size_t a2 = 0; a2 < kg2.NumAttributes(); ++a2) {
    map2_[a2] = aligned[a2] >= 0 ? aligned[a2] : static_cast<int>(next++);
  }
  table_ = math::EmbeddingTable(next, dim, math::InitScheme::kUnit, rng);

  entity_attrs_.resize(kg1.NumEntities() + kg2.NumEntities());
  for (const kg::AttributeTriple& t : kg1.attribute_triples()) {
    entity_attrs_[t.entity].push_back(t.attribute);
  }
  for (const kg::AttributeTriple& t : kg2.attribute_triples()) {
    entity_attrs_[num_kg1_entities_ + t.entity].push_back(map2_[t.attribute]);
  }
}

void AttributeCorrelationEmbedding::Train(int epochs, float learning_rate,
                                          Rng& rng) {
  const size_t dim = table_.dim();
  const size_t num_attrs = table_.num_rows();
  std::vector<float> grad(dim);
  for (int epoch = 0; epoch < epochs; ++epoch) {
    for (const auto& attrs : entity_attrs_) {
      if (attrs.size() < 2) continue;
      for (size_t i = 0; i < attrs.size(); ++i) {
        for (size_t j = i + 1; j < attrs.size(); ++j) {
          auto step = [&](int a, int b, float label) {
            const auto va = table_.Row(a);
            const auto vb = table_.Row(b);
            const float s = math::Dot(va, vb);
            // d(-log sigma(label*s))/ds = label*(sigma(label*s)-1).
            const float g = label * (math::Sigmoid(label * s) - 1.0f);
            for (size_t k = 0; k < dim; ++k) grad[k] = g * vb[k];
            table_.ApplyGradient(a, grad, learning_rate);
            for (size_t k = 0; k < dim; ++k) grad[k] = g * va[k];
            table_.ApplyGradient(b, grad, learning_rate);
          };
          step(attrs[i], attrs[j], +1.0f);
          // One sampled negative per positive pair.
          step(attrs[i], static_cast<int>(rng.NextBounded(num_attrs)),
               -1.0f);
        }
      }
    }
    table_.NormalizeAllRows();
  }
}

math::Matrix AttributeCorrelationEmbedding::EntityAttributeVectors(
    const kg::KnowledgeGraph& kg, bool second_kg) const {
  const size_t dim = table_.dim();
  math::Matrix out(kg.NumEntities(), dim, 0.0f);
  const size_t offset = second_kg ? num_kg1_entities_ : 0;
  for (size_t e = 0; e < kg.NumEntities(); ++e) {
    auto row = out.Row(e);
    for (int a : entity_attrs_[offset + e]) {
      math::Axpy(1.0f, table_.Row(a), row);
    }
    math::NormalizeL2(row);
  }
  return out;
}

math::Matrix BuildLiteralFeatures(const kg::KnowledgeGraph& kg,
                                  const text::PseudoWordEmbeddings& words,
                                  bool include_descriptions) {
  telemetry::ScopedSpan span("literal_features");
  text::LiteralEncoder encoder = words.Encoder();
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
    const auto vec = encoder.TextVector(text);
    std::copy(vec.begin(), vec.end(), out.Row(e).begin());
  }
  CountLiteralWork(encoder);
  return out;
}

math::Matrix BuildDescriptionFeatures(
    const kg::KnowledgeGraph& kg, const text::PseudoWordEmbeddings& words) {
  telemetry::ScopedSpan span("literal_features");
  text::LiteralEncoder encoder = words.Encoder();
  math::Matrix out(kg.NumEntities(), words.dim(), 0.0f);
  for (size_t e = 0; e < kg.NumEntities(); ++e) {
    const std::string& desc = kg.Description(static_cast<kg::EntityId>(e));
    if (desc.empty()) continue;
    const auto vec = encoder.TextVector(desc);
    std::copy(vec.begin(), vec.end(), out.Row(e).begin());
  }
  CountLiteralWork(encoder);
  return out;
}

math::Matrix BuildCharLiteralFeatures(const kg::KnowledgeGraph& kg,
                                      size_t dim, uint64_t seed) {
  telemetry::ScopedSpan span("literal_features");
  text::LiteralEncoder encoder(dim, seed);
  math::Matrix out(kg.NumEntities(), dim, 0.0f);
  for (size_t e = 0; e < kg.NumEntities(); ++e) {
    auto row = out.Row(e);
    size_t count = 0;
    for (const kg::AttributeTriple& t :
         kg.EntityAttributes(static_cast<kg::EntityId>(e))) {
      const auto vec = encoder.NGramVector(kg.literals().Name(t.value));
      math::Axpy(1.0f, vec, row);
      ++count;
    }
    if (count > 0) math::NormalizeL2(row);
  }
  CountLiteralWork(encoder);
  return out;
}

}  // namespace openea::embedding
