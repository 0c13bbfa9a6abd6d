#include "src/datagen/kg_pair.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/common/fault.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/strings.h"

namespace openea::datagen {
namespace {

using kg::AttributeId;
using kg::AttributeTriple;
using kg::EntityId;
using kg::kInvalidId;
using kg::RelationId;
using kg::Triple;

/// Rewrites a canonical entity name "en:w1_w2_17" into the KG2 namespace:
/// word parts are translated when a dictionary is given and occasionally
/// dropped (name heterogeneity), and the uniquifying index is replaced by a
/// KG2-local one — aligned entities must not share a unique label token,
/// mirroring the paper's deletion of entity labels ("tricky" features).
std::string TransformEntityName(const std::string& canonical,
                                const HeterogeneityProfile& profile,
                                const text::TranslationDictionary* dict,
                                EntityId canonical_id, Rng& rng) {
  if (profile.numeric_local_names) {
    return profile.kg2_prefix + ":Q" + std::to_string(100000 + canonical_id);
  }
  const size_t colon = canonical.find(':');
  const std::string local =
      colon == std::string::npos ? canonical : canonical.substr(colon + 1);
  auto parts = openea::Split(local, '_');
  std::vector<std::string> mapped;
  mapped.reserve(parts.size());
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    if (parts.size() > 2 && rng.NextBernoulli(0.15)) continue;  // Drop word.
    mapped.push_back(dict != nullptr ? dict->TranslateWord(parts[i])
                                     : parts[i]);
  }
  // KG2-local uniquifier, unrelated to the KG1 index.
  mapped.push_back(std::string("n").append(std::to_string(
      (static_cast<uint64_t>(canonical_id) * 2654435761ULL) % 1000000ULL)));
  return profile.kg2_prefix + ":" + openea::Join(mapped, "_");
}

}  // namespace

HeterogeneityProfile HeterogeneityProfile::EnFr() {
  HeterogeneityProfile p;
  p.name = "EN-FR";
  p.kg1_prefix = "en";
  p.kg2_prefix = "fr";
  p.translate_literals = true;
  p.triple_keep = 0.85;
  p.attr_triple_keep = 0.85;
  p.extra_triple_rate = 0.10;
  p.relation_vocab_keep = 0.85;
  p.attribute_vocab_keep = 0.9;
  p.value_noise = 0.10;
  p.numeric_reformat = 0.3;
  p.description_keep = 0.7;
  return p;
}

HeterogeneityProfile HeterogeneityProfile::EnDe() {
  HeterogeneityProfile p;
  p.name = "EN-DE";
  p.kg1_prefix = "en";
  p.kg2_prefix = "de";
  p.translate_literals = true;
  p.triple_keep = 0.9;
  p.attr_triple_keep = 0.95;   // DE side is attribute-rich (Table 2).
  p.extra_triple_rate = 0.12;
  p.relation_vocab_keep = 0.7;  // DE has notably fewer relations.
  p.attribute_vocab_keep = 0.75;
  p.value_noise = 0.12;
  p.numeric_reformat = 0.3;
  p.description_keep = 0.7;
  return p;
}

HeterogeneityProfile HeterogeneityProfile::DbpWd() {
  HeterogeneityProfile p;
  p.name = "D-W";
  p.kg1_prefix = "dbp";
  p.kg2_prefix = "wd";
  p.translate_literals = false;
  p.numeric_local_names = true;  // Wikidata's opaque P/Q identifiers.
  p.triple_keep = 0.85;
  p.attr_triple_keep = 0.9;
  p.extra_triple_rate = 0.2;     // Wikidata is attribute/value-rich.
  p.relation_vocab_keep = 0.8;
  p.attribute_vocab_keep = 1.0;
  p.value_noise = 0.25;          // Heterogeneous value formats.
  p.numeric_reformat = 0.8;      // "1234" vs "1234.0" style mismatches.
  p.value_vocab_shift = 0.5;     // Different value-verbalization conventions.
  p.description_keep = 0.6;
  return p;
}

HeterogeneityProfile HeterogeneityProfile::DbpYg() {
  HeterogeneityProfile p;
  p.name = "D-Y";
  p.kg1_prefix = "dbp";
  p.kg2_prefix = "yg";
  p.translate_literals = false;
  p.triple_keep = 0.9;
  p.attr_triple_keep = 0.9;
  p.extra_triple_rate = 0.08;
  p.relation_vocab_keep = 1.0;
  p.attribute_vocab_keep = 1.0;
  p.relation_merge = 0.8;       // YAGO's tiny relation vocabulary.
  p.attribute_merge = 0.85;     // And tiny attribute vocabulary.
  p.value_noise = 0.25;         // Near-identical literals (both from
  p.numeric_reformat = 0.6;     // Wikipedia), though dates/numbers are
  p.description_keep = 0.75;    // formatted differently.
  return p;
}

DatasetPair GenerateDatasetPair(const SyntheticKgConfig& source_config,
                                const HeterogeneityProfile& profile,
                                uint64_t seed) {
  SyntheticKgConfig config = source_config;
  config.namespace_prefix = profile.kg1_prefix;
  config.seed = seed;
  GeneratedKg canonical = GenerateSyntheticKg(config);
  const kg::KnowledgeGraph& src = canonical.graph;
  const size_t n = src.NumEntities();

  Rng rng(seed ^ 0xD00DFEEDull);

  DatasetPair pair;
  pair.name = profile.name;

  // Hidden value-vocabulary shift (D-W style): a private word remapping
  // applied to KG2 literal values but never exposed to the approaches.
  text::TranslationDictionary hidden_shift;
  if (profile.value_vocab_shift > 0.0) {
    const auto shifted_words = GeneratePseudoWords(
        canonical.vocabulary.size(), seed ^ 0xC0FFEE11ull);
    Rng shift_rng(seed ^ 0xC0FFEE22ull);
    for (size_t i = 0; i < canonical.vocabulary.size(); ++i) {
      if (shift_rng.NextBernoulli(profile.value_vocab_shift)) {
        hidden_shift.AddPair(canonical.vocabulary[i], shifted_words[i]);
      }
    }
  }

  // ---- Bilingual dictionary -------------------------------------------------
  const text::TranslationDictionary* dict = nullptr;
  if (profile.translate_literals) {
    const auto target_words = GeneratePseudoWords(
        canonical.vocabulary.size(), seed ^ 0xBEEF0000ull);
    Rng name_rng(seed ^ 0xBEEF1111ull);
    for (size_t i = 0; i < canonical.vocabulary.size(); ++i) {
      // Roughly a third of words behave like proper names: they survive
      // translation unchanged (as names do in real cross-lingual KGs),
      // giving character-level methods some cross-lingual signal.
      if (name_rng.NextBernoulli(0.35)) continue;
      pair.dictionary.AddPair(canonical.vocabulary[i], target_words[i]);
    }
    dict = &pair.dictionary;
  }

  // ---- Entity partition: shared, KG1-only, KG2-only --------------------------
  std::vector<EntityId> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<EntityId>(i);
  rng.Shuffle(order);
  // Entities private to one KG have no counterpart: both the baseline
  // heterogeneity privates and the extra dangling entities end up in the
  // same pool, surfaced below as the dangling ground truth.
  const size_t private_each = std::min(
      n / 2,
      static_cast<size_t>(
          (profile.unaligned_fraction + profile.dangling_fraction) *
          static_cast<double>(n)));
  std::unordered_set<EntityId> kg1_only(order.begin(),
                                        order.begin() + private_each);
  std::unordered_set<EntityId> kg2_only(
      order.begin() + private_each, order.begin() + 2 * private_each);

  // ---- KG1: canonical view minus KG2-only entities ---------------------------
  std::unordered_set<EntityId> kg1_set;
  for (size_t e = 0; e < n; ++e) {
    if (kg2_only.count(static_cast<EntityId>(e)) == 0) {
      kg1_set.insert(static_cast<EntityId>(e));
    }
  }
  std::vector<EntityId> canonical_to_kg1;
  pair.kg1 = src.InducedSubgraph(kg1_set, &canonical_to_kg1);

  // ---- KG2: transformed view minus KG1-only entities --------------------------
  kg::KnowledgeGraph& g2 = pair.kg2;
  std::vector<EntityId> canonical_to_kg2(n, kInvalidId);
  std::vector<EntityId> kg2_members;
  for (size_t e = 0; e < n; ++e) {
    if (kg1_only.count(static_cast<EntityId>(e)) == 0) {
      kg2_members.push_back(static_cast<EntityId>(e));
    }
  }
  // Shuffle insertion order so KG2 ids carry no positional signal.
  rng.Shuffle(kg2_members);
  for (EntityId e : kg2_members) {
    canonical_to_kg2[e] = g2.AddEntity(TransformEntityName(
        src.entities().Name(e), profile, dict, e, rng));
  }

  // Relation schema mapping: drop / merge / rename.
  const size_t num_rel = src.NumRelations();
  std::vector<RelationId> rel_map(num_rel, kInvalidId);
  {
    const size_t merged_buckets = 4;
    std::vector<RelationId> merge_targets;
    const auto rel_words =
        GeneratePseudoWords(num_rel + merged_buckets, seed ^ 0xAB10ull);
    for (size_t b = 0; b < merged_buckets; ++b) {
      std::string name =
          profile.numeric_local_names
              ? profile.kg2_prefix + ":P" + std::to_string(1000 + b)
              : profile.kg2_prefix + ":rel_" + rel_words[num_rel + b];
      merge_targets.push_back(g2.AddRelation(name));
    }
    for (size_t r = 0; r < num_rel; ++r) {
      if (!rng.NextBernoulli(profile.relation_vocab_keep)) continue;  // Drop.
      if (rng.NextBernoulli(profile.relation_merge)) {
        rel_map[r] = merge_targets[rng.NextBounded(merged_buckets)];
        continue;
      }
      std::string name =
          profile.numeric_local_names
              ? profile.kg2_prefix + ":P" + std::to_string(2000 + r)
          : dict != nullptr
              ? profile.kg2_prefix + ":rel_" + rel_words[r]
              : profile.kg2_prefix + ":rel_" +
                    openea::Split(src.relations().Name(
                                      static_cast<RelationId>(r)), '_')
                        .back();
      rel_map[r] = g2.AddRelation(name);
    }
  }

  // Attribute schema mapping.
  const size_t num_attr = src.NumAttributes();
  std::vector<AttributeId> attr_map(num_attr, kInvalidId);
  {
    const size_t merged_buckets = 3;
    std::vector<AttributeId> merge_targets;
    const auto attr_words =
        GeneratePseudoWords(num_attr + merged_buckets, seed ^ 0xAB20ull);
    for (size_t b = 0; b < merged_buckets; ++b) {
      std::string name =
          profile.numeric_local_names
              ? profile.kg2_prefix + ":P" + std::to_string(3000 + b)
              : profile.kg2_prefix + ":attr_" + attr_words[num_attr + b];
      merge_targets.push_back(g2.AddAttribute(name));
    }
    for (size_t a = 0; a < num_attr; ++a) {
      if (!rng.NextBernoulli(profile.attribute_vocab_keep)) continue;
      if (rng.NextBernoulli(profile.attribute_merge)) {
        attr_map[a] = merge_targets[rng.NextBounded(merged_buckets)];
        continue;
      }
      std::string name =
          profile.numeric_local_names
              ? profile.kg2_prefix + ":P" + std::to_string(4000 + a)
          : dict != nullptr
              ? profile.kg2_prefix + ":attr_" + attr_words[a]
              : profile.kg2_prefix + ":attr_" +
                    openea::Split(src.attributes().Name(
                                      static_cast<AttributeId>(a)), '_')
                        .back();
      attr_map[a] = g2.AddAttribute(name);
    }
  }

  // Relation triples: dropout + schema mapping.
  size_t kept_triples = 0;
  for (const Triple& t : src.triples()) {
    const EntityId h = canonical_to_kg2[t.head];
    const EntityId tl = canonical_to_kg2[t.tail];
    if (h == kInvalidId || tl == kInvalidId) continue;
    const RelationId r = rel_map[t.relation];
    if (r == kInvalidId) continue;
    if (!rng.NextBernoulli(profile.triple_keep)) continue;
    g2.AddTriple(h, r, tl);
    ++kept_triples;
  }
  // Extra KG2-only triples.
  {
    const size_t extra = static_cast<size_t>(
        profile.extra_triple_rate * static_cast<double>(kept_triples));
    std::vector<RelationId> live_rels;
    for (RelationId r : rel_map) {
      if (r != kInvalidId) live_rels.push_back(r);
    }
    if (!live_rels.empty() && kg2_members.size() > 1) {
      for (size_t i = 0; i < extra; ++i) {
        const EntityId h = canonical_to_kg2[kg2_members[rng.NextZipf(
            kg2_members.size(), 0.8)]];
        const EntityId tl = canonical_to_kg2[kg2_members[rng.NextZipf(
            kg2_members.size(), 0.8)]];
        if (h == tl) continue;
        g2.AddTriple(h, live_rels[rng.NextBounded(live_rels.size())], tl);
      }
    }
  }

  // Attribute triples: dropout, value translation, value noise.
  for (const AttributeTriple& t : src.attribute_triples()) {
    const EntityId e = canonical_to_kg2[t.entity];
    if (e == kInvalidId) continue;
    const AttributeId a = attr_map[t.attribute];
    if (a == kInvalidId) continue;
    if (!rng.NextBernoulli(profile.attr_triple_keep)) continue;
    std::string value = src.literals().Name(t.value);
    if (dict != nullptr) value = dict->TranslateText(value);
    if (hidden_shift.size() > 0) value = hidden_shift.TranslateText(value);
    const bool is_numeric =
        !value.empty() &&
        value.find_first_not_of("0123456789") == std::string::npos;
    if (is_numeric && rng.NextBernoulli(profile.numeric_reformat)) {
      value += ".0";  // Notation change: exact joins fail, n-grams survive.
    }
    if (rng.NextBernoulli(profile.value_noise)) {
      // Perturb: drop a word, or append a formatting token.
      auto words = openea::SplitWhitespace(value);
      if (words.size() > 1 && rng.NextBernoulli(0.5)) {
        words.erase(words.begin() +
                    static_cast<long>(rng.NextBounded(words.size())));
        value = openea::Join(words, " ");
      } else {
        value += rng.NextBernoulli(0.5) ? " (v2)" : "!";
      }
    }
    g2.AddAttributeTriple(e, a, g2.AddLiteral(value));
  }

  // Descriptions.
  for (size_t e = 0; e < n; ++e) {
    const EntityId e2 = canonical_to_kg2[e];
    if (e2 == kInvalidId) continue;
    const std::string& desc = src.Description(static_cast<EntityId>(e));
    if (desc.empty()) continue;
    if (!rng.NextBernoulli(profile.description_keep)) continue;
    g2.SetDescription(e2, dict != nullptr ? dict->TranslateText(desc) : desc);
  }

  g2.BuildIndex();

  // ---- Reference alignment ---------------------------------------------------
  for (size_t e = 0; e < n; ++e) {
    const EntityId l = canonical_to_kg1[e];
    const EntityId r = canonical_to_kg2[e];
    if (l != kInvalidId && r != kInvalidId) pair.reference.push_back({l, r});
  }
  std::sort(pair.reference.begin(), pair.reference.end(),
            [](const kg::AlignmentPair& a, const kg::AlignmentPair& b) {
              return a.left < b.left ||
                     (a.left == b.left && a.right < b.right);
            });

  // ---- Dangling ground truth -------------------------------------------------
  // Private entities have no counterpart in the other KG; surface them so
  // abstention-aware evaluation can score them instead of silently dropping.
  for (EntityId e : kg1_only) {
    const EntityId l = canonical_to_kg1[e];
    if (l != kInvalidId) pair.dangling1.push_back(l);
  }
  for (EntityId e : kg2_only) {
    const EntityId r = canonical_to_kg2[e];
    if (r != kInvalidId) pair.dangling2.push_back(r);
  }
  std::sort(pair.dangling1.begin(), pair.dangling1.end());
  std::sort(pair.dangling2.begin(), pair.dangling2.end());

  // ---- Noisy training seeds --------------------------------------------------
  pair.noisy_reference =
      CorruptSeedAlignment(pair.reference, pair.kg2, profile.seed_noise_rate,
                           seed ^ 0x5EEDC0DEull, &pair.corruptions);
  return pair;
}

kg::Alignment CorruptSeedAlignment(const kg::Alignment& reference,
                                   const kg::KnowledgeGraph& kg2,
                                   double rate, uint64_t seed,
                                   std::vector<SeedCorruption>* corruptions) {
  kg::Alignment noisy = reference;
  Rng rng(seed);
  const size_t n2 = kg2.NumEntities();

  // Uniform wrong KG2 entity; returns kInvalidId when none exists.
  auto random_wrong = [&](EntityId truth) -> EntityId {
    if (n2 < 2) return kInvalidId;
    EntityId wrong = truth;
    for (int tries = 0; tries < 64 && wrong == truth; ++tries) {
      wrong = static_cast<EntityId>(rng.NextBounded(n2));
    }
    return wrong == truth ? kInvalidId : wrong;
  };

  std::vector<SeedCorruption> recs;
  // Swap picks pair up: the first of each pair waits here for its partner.
  std::ptrdiff_t pending_swap = -1;
  for (size_t i = 0; i < reference.size(); ++i) {
    // Both sides are evaluated unconditionally so the fault point's hit
    // counter and the rng stream never depend on each other or on whether
    // a fault is armed.
    const bool forced = FAULT_POINT("datagen/seed_corrupt");
    const bool drawn = rng.NextBernoulli(rate);
    if (!forced && !drawn) continue;

    const EntityId truth = reference[i].right;
    SeedCorruption rec;
    rec.index = i;
    rec.clean = reference[i];
    const uint64_t kind_draw = rng.NextBounded(3);
    bool corrupted = false;
    if (kind_draw == 0) {  // Swapped.
      if (pending_swap < 0) {
        pending_swap = static_cast<std::ptrdiff_t>(i);
        rec.kind = SeedCorruption::Kind::kSwapped;
        recs.push_back(rec);  // Kind fixed up below if no partner arrives.
        continue;
      }
      const size_t j = static_cast<size_t>(pending_swap);
      pending_swap = -1;
      if (reference[j].right != truth) {
        std::swap(noisy[i].right, noisy[j].right);
        rec.kind = SeedCorruption::Kind::kSwapped;
        corrupted = true;
      } else {
        // Duplicate rights (possible in hand-built alignments): swapping
        // would be a no-op, so re-queue the partner for the leftover fixup.
        pending_swap = static_cast<std::ptrdiff_t>(j);
      }
    } else if (kind_draw == 1) {  // Hard negative: a KG2 neighbour of truth.
      const auto& edges = kg2.Neighbors(truth);
      std::vector<EntityId> candidates;
      candidates.reserve(edges.size());
      for (const kg::NeighborEdge& edge : edges) {
        if (edge.neighbor != truth) candidates.push_back(edge.neighbor);
      }
      if (!candidates.empty()) {
        noisy[i].right = candidates[rng.NextBounded(candidates.size())];
        rec.kind = SeedCorruption::Kind::kHardNegative;
        corrupted = true;
      }
    }
    if (!corrupted) {  // Random wrong, also the fallback of the kinds above.
      const EntityId wrong = random_wrong(truth);
      if (wrong == kInvalidId) continue;  // Degenerate KG2: nothing to do.
      noisy[i].right = wrong;
      rec.kind = SeedCorruption::Kind::kRandomWrong;
    }
    recs.push_back(rec);
  }
  // A leftover swap pick never got a partner: downgrade to random-wrong.
  if (pending_swap >= 0) {
    const size_t i = static_cast<size_t>(pending_swap);
    const EntityId wrong = random_wrong(reference[i].right);
    auto it = std::find_if(
        recs.begin(), recs.end(),
        [i](const SeedCorruption& r) { return r.index == i; });
    if (wrong != kInvalidId) {
      noisy[i].right = wrong;
      it->kind = SeedCorruption::Kind::kRandomWrong;
    } else {
      recs.erase(it);
    }
  }
  if (corruptions != nullptr) {
    corruptions->insert(corruptions->end(), recs.begin(), recs.end());
  }
  return noisy;
}

}  // namespace openea::datagen
