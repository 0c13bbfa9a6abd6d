#include <unordered_set>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/interaction/bootstrapping.h"
#include "src/interaction/trainer.h"
#include "src/interaction/unified_kg.h"
#include "src/math/vec.h"

namespace openea::interaction {
namespace {

/// Two tiny KGs: each a chain of 4 entities with one relation.
struct Fixture {
  kg::KnowledgeGraph kg1, kg2;
  core::AlignmentTask task;
  kg::Alignment seeds;

  Fixture() {
    for (int i = 0; i < 4; ++i) {
      kg1.AddEntity(std::string("a").append(std::to_string(i)));
    }
    for (int i = 0; i < 5; ++i) {
      kg2.AddEntity(std::string("b").append(std::to_string(i)));
    }
    const auto r1 = kg1.AddRelation("r");
    const auto r2 = kg2.AddRelation("s");
    kg1.AddTriple(0, r1, 1);
    kg1.AddTriple(1, r1, 2);
    kg1.AddTriple(2, r1, 3);
    kg2.AddTriple(0, r2, 1);
    kg2.AddTriple(1, r2, 2);
    kg2.AddTriple(2, r2, 3);
    kg2.AddTriple(3, r2, 4);
    kg1.BuildIndex();
    kg2.BuildIndex();
    seeds = {{0, 0}, {1, 1}};
    task.kg1 = &kg1;
    task.kg2 = &kg2;
    task.train = seeds;
    task.valid = {{2, 2}};
    task.test = {{3, 3}};
  }
};

TEST(UnifiedKgTest, NoneModeKeepsSeparateIds) {
  Fixture fx;
  const UnifiedKg u = BuildUnifiedKg(fx.task, CombinationMode::kNone,
                                     fx.seeds);
  EXPECT_EQ(u.num_entities, 9u);
  EXPECT_EQ(u.num_relations, 2u);
  EXPECT_EQ(u.triples.size(), 7u);
  EXPECT_EQ(u.map2[0], 4);  // Offset by |E1|.
  // Seeds map to distinct ids.
  EXPECT_NE(u.merged_seeds[0].first, u.merged_seeds[0].second);
}

TEST(UnifiedKgTest, SharingMergesSeedIds) {
  Fixture fx;
  const UnifiedKg u = BuildUnifiedKg(fx.task, CombinationMode::kSharing,
                                     fx.seeds);
  EXPECT_EQ(u.map2[0], 0);  // Shared with kg1 entity 0.
  EXPECT_EQ(u.map2[1], 1);
  EXPECT_EQ(u.map2[2], 4 + 2);  // Unshared stays offset.
  // KG2 triples touching shared entities now reference kg1 ids.
  bool found = false;
  for (const kg::Triple& t : u.triples) {
    if (t.relation == 1 && t.head == 0 && t.tail == 1) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(UnifiedKgTest, SwappingAddsExtraTriples) {
  Fixture fx;
  const UnifiedKg none = BuildUnifiedKg(fx.task, CombinationMode::kNone,
                                        fx.seeds);
  const UnifiedKg swap = BuildUnifiedKg(fx.task, CombinationMode::kSwapping,
                                        fx.seeds);
  EXPECT_GT(swap.triples.size(), none.triples.size());
  // Relations are never merged.
  EXPECT_EQ(swap.num_relations, 2u);
}

TEST(SwappedTriplesTest, SubstitutesBothDirections) {
  std::vector<kg::Triple> base = {{0, 0, 1}};
  const auto swapped = SwappedTriples(base, {{0, 5}});
  // Head 0 -> 5 produces (5, 0, 1).
  ASSERT_EQ(swapped.size(), 1u);
  EXPECT_EQ(swapped[0].head, 5);
  EXPECT_EQ(swapped[0].tail, 1);
}

TEST(CalibrateEpochTest, PullsPairsTogether) {
  Rng rng(3);
  math::EmbeddingTable table(10, 8, math::InitScheme::kUnit, rng);
  const float before = math::EuclideanDistance(table.Row(0), table.Row(5));
  std::vector<std::pair<kg::EntityId, kg::EntityId>> pairs = {{0, 5}};
  for (int i = 0; i < 50; ++i) {
    CalibrateEpoch(table, pairs, 0.1f, 2.0f, 0, rng);
  }
  const float after = math::EuclideanDistance(table.Row(0), table.Row(5));
  EXPECT_LT(after, before * 0.5f);
}

TEST(ProposeAlignmentTest, FindsIdenticalEmbeddings) {
  Rng rng(3);
  math::Matrix emb1(6, 8), emb2(6, 8);
  emb1.FillUniform(rng, 1.0f);
  for (size_t i = 0; i < emb1.size(); ++i) {
    emb2.Data()[i] = emb1.Data()[i];
  }
  BootstrapOptions options;
  options.threshold = 0.9f;
  const kg::Alignment proposals =
      ProposeAlignment(emb1, emb2, {}, {}, options);
  EXPECT_EQ(proposals.size(), 6u);
  for (const auto& p : proposals) EXPECT_EQ(p.left, p.right);
}

TEST(ProposeAlignmentTest, RespectsUsedSetsAndThreshold) {
  Rng rng(3);
  math::Matrix emb1(4, 8), emb2(4, 8);
  emb1.FillUniform(rng, 1.0f);
  for (size_t i = 0; i < emb1.size(); ++i) emb2.Data()[i] = emb1.Data()[i];
  BootstrapOptions options;
  options.threshold = 0.9f;
  std::unordered_set<kg::EntityId> used1 = {0, 1};
  std::unordered_set<kg::EntityId> used2 = {0, 1};
  const kg::Alignment proposals =
      ProposeAlignment(emb1, emb2, used1, used2, options);
  EXPECT_EQ(proposals.size(), 2u);
  for (const auto& p : proposals) {
    EXPECT_GE(p.left, 2);
    EXPECT_GE(p.right, 2);
  }
}

TEST(ProposeAlignmentTest, EnforcesOneToOne) {
  // Two sources both closest to the same target; only one may take it.
  math::Matrix emb1(2, 2), emb2(2, 2);
  emb1.At(0, 0) = 1.0f;
  emb1.At(1, 0) = 0.95f;
  emb1.At(1, 1) = 0.05f;
  emb2.At(0, 0) = 1.0f;
  emb2.At(1, 1) = 1.0f;
  BootstrapOptions options;
  options.threshold = 0.0f;
  options.mutual = false;
  const kg::Alignment proposals = ProposeAlignment(emb1, emb2, {}, {},
                                                   options);
  std::unordered_set<kg::EntityId> rights;
  for (const auto& p : proposals) {
    EXPECT_TRUE(rights.insert(p.right).second);
  }
}

TEST(EditAugmentedAlignmentTest, StrongerPairEvictsWeaker) {
  math::Matrix emb1(2, 2), emb2(2, 2);
  // Pair (0,0) weak, pair (1,0) strong.
  emb1.At(0, 0) = 1.0f;
  emb1.At(0, 1) = 1.0f;
  emb1.At(1, 0) = 1.0f;
  emb2.At(0, 0) = 1.0f;
  emb2.At(1, 1) = 1.0f;
  kg::Alignment augmented = {{0, 0}};
  EditAugmentedAlignment(augmented, {{1, 0}}, emb1, emb2);
  ASSERT_EQ(augmented.size(), 1u);
  EXPECT_EQ(augmented[0].left, 1);  // The stronger claim won.
}

TEST(EvaluateAugmentedTest, PrecisionRecallMath) {
  Fixture fx;
  kg::Alignment augmented = {{2, 2}, {3, 0}};  // One correct, one wrong.
  const core::IterationStat stat = EvaluateAugmented(augmented, fx.task, 4);
  EXPECT_EQ(stat.iteration, 4);
  EXPECT_DOUBLE_EQ(stat.precision, 0.5);
  EXPECT_DOUBLE_EQ(stat.recall, 0.5);  // Reference = valid + test = 2 pairs.
}

TEST(PathCompositionTest, PullsCompositionTowardDirectRelation) {
  // Triangle: e0 -r0-> e1 -r1-> e2 and a direct e0 -r2-> e2.
  std::vector<kg::Triple> triples = {{0, 0, 1}, {1, 1, 2}, {0, 2, 2}};
  Rng rng(3);
  math::EmbeddingTable relations(3, 8, math::InitScheme::kUnit, rng);
  auto composition_error = [&]() {
    float err = 0.0f;
    for (size_t i = 0; i < 8; ++i) {
      const float d = relations.Row(0)[i] + relations.Row(1)[i] -
                      relations.Row(2)[i];
      err += d * d;
    }
    return err;
  };
  const float before = composition_error();
  for (int i = 0; i < 100; ++i) {
    PathCompositionEpoch(relations, triples, 3, 0.1f, 10, rng);
  }
  EXPECT_LT(composition_error(), before * 0.5f);
}

}  // namespace
}  // namespace openea::interaction
