#include <ostream>
#include <set>
#include <unordered_set>

#include <gtest/gtest.h>

#include "src/datagen/kg_pair.h"
#include "src/datagen/synthetic_kg.h"
#include "src/kg/graph_stats.h"

namespace openea::datagen {

// Prints a profile by its name. Without this, gtest prints the raw bytes
// of the struct, which include heap pointers, so the parameterised test
// names would change from one process to the next.
void PrintTo(const HeterogeneityProfile& profile, std::ostream* os) {
  *os << profile.name;
}

namespace {

SyntheticKgConfig SmallConfig() {
  SyntheticKgConfig config;
  config.num_entities = 400;
  config.avg_degree = 5.0;
  config.num_relations = 20;
  config.num_attributes = 15;
  config.vocabulary_size = 200;
  config.seed = 33;
  return config;
}

TEST(SyntheticKgTest, MeetsSizeAndDegreeTargets) {
  const GeneratedKg gen = GenerateSyntheticKg(SmallConfig());
  EXPECT_EQ(gen.graph.NumEntities(), 400u);
  EXPECT_EQ(gen.graph.NumRelations(), 20u);
  EXPECT_NEAR(gen.graph.AverageDegree(), 5.0, 1.0);
  EXPECT_EQ(gen.vocabulary.size(), 200u);
}

TEST(SyntheticKgTest, NoIsolatedEntitiesAndNoSelfLoops) {
  const GeneratedKg gen = GenerateSyntheticKg(SmallConfig());
  EXPECT_DOUBLE_EQ(kg::IsolatedEntityRatio(gen.graph), 0.0);
  for (const kg::Triple& t : gen.graph.triples()) {
    EXPECT_NE(t.head, t.tail);
  }
}

TEST(SyntheticKgTest, TriplesAreUnique) {
  const GeneratedKg gen = GenerateSyntheticKg(SmallConfig());
  std::set<std::tuple<int, int, int>> seen;
  for (const kg::Triple& t : gen.graph.triples()) {
    EXPECT_TRUE(seen.insert({t.head, t.relation, t.tail}).second);
  }
}

TEST(SyntheticKgTest, DeterministicForSameSeed) {
  const GeneratedKg a = GenerateSyntheticKg(SmallConfig());
  const GeneratedKg b = GenerateSyntheticKg(SmallConfig());
  ASSERT_EQ(a.graph.NumTriples(), b.graph.NumTriples());
  for (size_t i = 0; i < a.graph.NumTriples(); ++i) {
    EXPECT_EQ(a.graph.triples()[i], b.graph.triples()[i]);
  }
  ASSERT_EQ(a.graph.NumAttributeTriples(), b.graph.NumAttributeTriples());
}

TEST(SyntheticKgTest, HasAttributesDescriptionsAndClustering) {
  const GeneratedKg gen = GenerateSyntheticKg(SmallConfig());
  EXPECT_GT(gen.graph.NumAttributeTriples(), 400u);
  size_t with_desc = 0;
  for (size_t e = 0; e < gen.graph.NumEntities(); ++e) {
    if (!gen.graph.Description(static_cast<kg::EntityId>(e)).empty())
      ++with_desc;
  }
  // Coverage default is 0.8.
  EXPECT_GT(with_desc, gen.graph.NumEntities() / 2);
  EXPECT_GT(kg::AverageClusteringCoefficient(gen.graph), 0.01);
}

TEST(SyntheticKgTest, DegreeDistributionIsHeavyTailed) {
  const GeneratedKg gen = GenerateSyntheticKg(SmallConfig());
  const auto dist = kg::ComputeDegreeDistribution(gen.graph);
  // Low degrees dominate: P(deg in [1,4]) > P(deg in [10,...)).
  double low = 0, high = 0;
  for (size_t d = 1; d <= 4 && d < dist.proportion.size(); ++d)
    low += dist.proportion[d];
  for (size_t d = 10; d < dist.proportion.size(); ++d)
    high += dist.proportion[d];
  EXPECT_GT(low, high);
}

TEST(PseudoWordsTest, UniqueAndNonEmpty) {
  const auto words = GeneratePseudoWords(500, 9);
  EXPECT_EQ(words.size(), 500u);
  std::unordered_set<std::string> unique(words.begin(), words.end());
  EXPECT_EQ(unique.size(), 500u);
  for (const auto& w : words) EXPECT_FALSE(w.empty());
}

class KgPairTest : public ::testing::TestWithParam<HeterogeneityProfile> {};

TEST_P(KgPairTest, StructuralInvariants) {
  const HeterogeneityProfile profile = GetParam();
  const DatasetPair pair = GenerateDatasetPair(SmallConfig(), profile, 5);

  // Both KGs non-trivial.
  EXPECT_GT(pair.kg1.NumTriples(), 100u);
  EXPECT_GT(pair.kg2.NumTriples(), 100u);
  EXPECT_GT(pair.kg1.NumAttributeTriples(), 0u);
  EXPECT_GT(pair.kg2.NumAttributeTriples(), 0u);

  // Reference alignment is 1-to-1 and within bounds.
  std::unordered_set<kg::EntityId> lefts, rights;
  for (const auto& ap : pair.reference) {
    EXPECT_GE(ap.left, 0);
    EXPECT_LT(static_cast<size_t>(ap.left), pair.kg1.NumEntities());
    EXPECT_GE(ap.right, 0);
    EXPECT_LT(static_cast<size_t>(ap.right), pair.kg2.NumEntities());
    EXPECT_TRUE(lefts.insert(ap.left).second) << "duplicate left entity";
    EXPECT_TRUE(rights.insert(ap.right).second) << "duplicate right entity";
  }

  // Unaligned fraction: both KGs have some private entities.
  EXPECT_LT(pair.reference.size(), pair.kg1.NumEntities());
  EXPECT_LT(pair.reference.size(), pair.kg2.NumEntities());
  // But the alignment covers most entities.
  EXPECT_GT(pair.reference.size(), pair.kg1.NumEntities() / 2);
}

TEST_P(KgPairTest, Deterministic) {
  const HeterogeneityProfile profile = GetParam();
  const DatasetPair a = GenerateDatasetPair(SmallConfig(), profile, 5);
  const DatasetPair b = GenerateDatasetPair(SmallConfig(), profile, 5);
  EXPECT_EQ(a.reference.size(), b.reference.size());
  EXPECT_EQ(a.kg2.NumTriples(), b.kg2.NumTriples());
  EXPECT_EQ(a.kg2.NumLiterals(), b.kg2.NumLiterals());
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, KgPairTest,
    ::testing::Values(HeterogeneityProfile::EnFr(),
                      HeterogeneityProfile::EnDe(),
                      HeterogeneityProfile::DbpWd(),
                      HeterogeneityProfile::DbpYg()),
    [](const ::testing::TestParamInfo<HeterogeneityProfile>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(KgPairProfileTest, EnFrIsCrossLingual) {
  const DatasetPair pair =
      GenerateDatasetPair(SmallConfig(), HeterogeneityProfile::EnFr(), 5);
  EXPECT_GT(pair.dictionary.size(), 0u);
  // KG2 names carry the fr prefix.
  EXPECT_EQ(pair.kg2.entities().Name(0).substr(0, 3), "fr:");
}

TEST(KgPairProfileTest, DbpWdHasOpaqueNames) {
  const DatasetPair pair =
      GenerateDatasetPair(SmallConfig(), HeterogeneityProfile::DbpWd(), 5);
  EXPECT_EQ(pair.dictionary.size(), 0u);
  // All KG2 entity names are wd:Q<digits>.
  for (const auto& name : pair.kg2.entities().names()) {
    EXPECT_EQ(name.substr(0, 4), "wd:Q") << name;
  }
}

TEST(KgPairProfileTest, DbpYgHasCoarseSchema) {
  const DatasetPair pair =
      GenerateDatasetPair(SmallConfig(), HeterogeneityProfile::DbpYg(), 5);
  // YAGO-style merge collapses most relations/attributes.
  EXPECT_LT(pair.kg2.NumRelations(), pair.kg1.NumRelations());
  EXPECT_LT(pair.kg2.NumAttributes(), pair.kg1.NumAttributes());
}

}  // namespace
}  // namespace openea::datagen
