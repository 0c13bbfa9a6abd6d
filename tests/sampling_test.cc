#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/telemetry.h"
#include "src/core/benchmark.h"
#include "src/datagen/kg_pair.h"
#include "src/kg/graph_stats.h"
#include "src/sampling/samplers.h"

namespace openea::sampling {
namespace {

datagen::DatasetPair MakeSourcePair() {
  datagen::SyntheticKgConfig config;
  config.num_entities = 800;
  config.avg_degree = 5.5;
  config.num_relations = 25;
  config.num_attributes = 18;
  config.vocabulary_size = 250;
  config.seed = 77;
  return GenerateDatasetPair(config, datagen::HeterogeneityProfile::EnFr(),
                             77);
}

TEST(IdsTest, ReachesTargetSizeWithGoodJs) {
  const auto source = MakeSourcePair();
  IdsOptions options;
  options.target_size = 300;
  options.mu = 30;
  options.seed = 3;
  const auto sample = IterativeDegreeSampling(source, options);
  // Size lands on the target, up to the 2% isolate-cleanup allowance.
  EXPECT_LE(sample.kg1.NumEntities(), 300u);
  EXPECT_GE(sample.kg1.NumEntities(), 294u);
  EXPECT_EQ(sample.kg1.NumEntities(), sample.kg2.NumEntities());
  EXPECT_EQ(sample.reference.size(), sample.kg1.NumEntities());

  const auto q = EvaluateSampleQuality(sample, source);
  // Degree distribution should stay close to the source (paper: <= 5%;
  // at our much smaller scales a slightly looser bound is statistically
  // appropriate).
  EXPECT_LT(q.js1, 0.10);
  EXPECT_LT(q.js2, 0.10);
  // Average degree should be in the same ballpark as the source.
  EXPECT_NEAR(q.avg_degree1, source.kg1.AverageDegree(), 2.0);
}

TEST(IdsTest, SampleIsSubsetWithConsistentAlignment) {
  const auto source = MakeSourcePair();
  IdsOptions options;
  options.target_size = 300;
  options.mu = 30;
  options.seed = 3;
  const auto sample = IterativeDegreeSampling(source, options);
  // Every sampled pair's names must match an original reference pair.
  std::unordered_set<std::string> ref_keys;
  for (const auto& ap : source.reference) {
    ref_keys.insert(source.kg1.entities().Name(ap.left) + "|" +
                    source.kg2.entities().Name(ap.right));
  }
  for (const auto& ap : sample.reference) {
    const std::string key = sample.kg1.entities().Name(ap.left) + "|" +
                            sample.kg2.entities().Name(ap.right);
    EXPECT_TRUE(ref_keys.count(key) > 0) << key;
  }
}

TEST(RasTest, ProducesSparserLowerQualitySample) {
  const auto source = MakeSourcePair();
  const auto ras = RandomAlignmentSampling(source, 300, 3);
  EXPECT_EQ(ras.reference.size(), 300u);
  const auto q = EvaluateSampleQuality(ras, source);
  // RAS destroys connectivity (Table 3): much lower degree, many isolates.
  EXPECT_LT(q.avg_degree1, source.kg1.AverageDegree() / 2.0);
  EXPECT_GT(q.isolated1, 0.2);
}

TEST(PrsTest, BetterThanRasWorseThanIds) {
  const auto source = MakeSourcePair();
  const auto ras = EvaluateSampleQuality(
      RandomAlignmentSampling(source, 300, 3), source);
  const auto prs =
      EvaluateSampleQuality(PageRankSampling(source, 300, 3), source);
  IdsOptions options;
  options.target_size = 300;
  options.mu = 30;
  options.seed = 3;
  const auto ids =
      EvaluateSampleQuality(IterativeDegreeSampling(source, options), source);
  // The Table 3 ordering: RAS < PRS < IDS on average degree; IDS has the
  // fewest isolates.
  EXPECT_GT(prs.avg_degree1, ras.avg_degree1);
  EXPECT_GT(ids.avg_degree1, prs.avg_degree1);
  EXPECT_LT(ids.isolated1, 0.02);
  EXPECT_LT(ids.js1, prs.js1);
}

TEST(DensifyTest, DoublesAverageDegree) {
  const auto source = MakeSourcePair();
  const double before = source.kg1.AverageDegree();
  const auto dense = DensifyPair(source, 2.0, 5);
  EXPECT_GE(dense.kg1.AverageDegree(), before * 1.6);
  EXPECT_LT(dense.kg1.NumEntities(), source.kg1.NumEntities());
  // Alignment stays 1-to-1 over surviving entities.
  std::unordered_set<kg::EntityId> lefts;
  for (const auto& ap : dense.reference) {
    EXPECT_TRUE(lefts.insert(ap.left).second);
  }
}

TEST(IdsTest, CountsRoundsAndPageRankWork) {
  const auto source = MakeSourcePair();
  IdsOptions options;
  options.target_size = 300;
  options.mu = 30;
  options.seed = 3;
  const auto plain = IterativeDegreeSampling(source, options);
  telemetry::SetCollectForTesting(true);
  telemetry::ResetForTesting();
  const auto counted = IterativeDegreeSampling(source, options);
  const auto counters = telemetry::SnapshotMetrics().counters;
  telemetry::SetCollectForTesting(false);
  telemetry::ResetForTesting();
  // Counting changes nothing in the sample.
  EXPECT_EQ(counted.kg1.triples(), plain.kg1.triples());
  EXPECT_EQ(counted.kg2.triples(), plain.kg2.triples());
  EXPECT_EQ(counted.reference, plain.reference);
  // A round deletes at most mu = 30 pairs.
  const uint64_t rounds = counters.at("sampling/ids_rounds");
  EXPECT_GE(rounds, (source.reference.size() - 300) / 30);
  // Each round runs one 20-iteration PageRank per side over at most all
  // source triples.
  const uint64_t edges = counters.at("sampling/ids_pagerank_edges");
  EXPECT_GT(edges, 0u);
  EXPECT_EQ(edges % 20, 0u);
  EXPECT_LE(edges, rounds * 20 *
                       (source.kg1.NumTriples() + source.kg2.NumTriples()));
}

TEST(RestrictPairTest, EmptySetsGiveEmptyPair) {
  const auto source = MakeSourcePair();
  const auto empty = RestrictPair(source, {}, {});
  EXPECT_EQ(empty.kg1.NumEntities(), 0u);
  EXPECT_EQ(empty.reference.size(), 0u);
}

// ---- Sample pins -----------------------------------------------------------
// FNV-1a digests of whole sampled datasets, taken before the samplers moved
// to the masked view of the source KGs. Any change to a sampler's draws,
// tie-breaks or id assignment changes them.

struct Fnv {
  uint64_t h = 1469598103934665603ULL;
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
  void Size(uint64_t n) { Bytes(&n, sizeof(n)); }
  template <typename T>
  void Vec(const std::vector<T>& v) {
    Size(v.size());
    if (!v.empty()) Bytes(v.data(), v.size() * sizeof(T));
  }
  void Names(const kg::Vocab& vocab) {
    Size(vocab.size());
    for (const std::string& name : vocab.names()) {
      Size(name.size());
      Bytes(name.data(), name.size());
    }
  }
};

uint64_t HashPair(const datagen::DatasetPair& pair) {
  Fnv f;
  for (const kg::KnowledgeGraph* g : {&pair.kg1, &pair.kg2}) {
    f.Size(g->NumEntities());
    f.Names(g->entities());
    f.Names(g->relations());
    f.Names(g->attributes());
    f.Names(g->literals());
    f.Vec(g->triples());
    f.Vec(g->attribute_triples());
    for (size_t e = 0; e < g->NumEntities(); ++e) {
      const std::string& d = g->Description(static_cast<kg::EntityId>(e));
      f.Size(d.size());
      f.Bytes(d.data(), d.size());
    }
  }
  f.Vec(pair.reference);
  f.Vec(pair.noisy_reference);
  for (const datagen::SeedCorruption& c : pair.corruptions) {
    f.Size(c.index);
    f.Bytes(&c.clean, sizeof(c.clean));
    f.Size(static_cast<uint64_t>(c.kind));
  }
  f.Vec(pair.dangling1);
  f.Vec(pair.dangling2);
  return f.h;
}

const datagen::HeterogeneityProfile& PinProfile(int i) {
  static const datagen::HeterogeneityProfile profiles[] = {
      datagen::HeterogeneityProfile::EnFr(),
      datagen::HeterogeneityProfile::EnDe(),
      datagen::HeterogeneityProfile::DbpWd(),
      datagen::HeterogeneityProfile::DbpYg(),
  };
  return profiles[i];
}

/// The 800-entity source of MakeSourcePair under profile `i`.
datagen::DatasetPair PinSource(int i) {
  datagen::SyntheticKgConfig config;
  config.num_entities = 800;
  config.avg_degree = 5.5;
  config.num_relations = 25;
  config.num_attributes = 18;
  config.vocabulary_size = 250;
  config.seed = 77;
  return GenerateDatasetPair(config, PinProfile(i), 77);
}

/// An EN-FR source with noisy seeds and dangling entities, so the pins also
/// cover RestrictPair's noisy-reference and dangling bookkeeping.
datagen::DatasetPair NoisyDanglingSource() {
  datagen::SyntheticKgConfig config;
  config.num_entities = 800;
  config.avg_degree = 5.5;
  config.num_relations = 25;
  config.num_attributes = 18;
  config.vocabulary_size = 250;
  config.seed = 78;
  datagen::HeterogeneityProfile profile = datagen::HeterogeneityProfile::EnFr();
  profile.dangling_fraction = 0.1;
  profile.seed_noise_rate = 0.2;
  return GenerateDatasetPair(config, profile, 78);
}

/// PinSource(0) with a self-loop and a repeat of every 7th triple in both
/// KGs: a self-loop adds 2 to its entity's degree, a repeat adds 1 to both
/// ends, and both count in PageRank.
datagen::DatasetPair LoopySource() {
  datagen::DatasetPair pair = PinSource(0);
  for (kg::KnowledgeGraph* g : {&pair.kg1, &pair.kg2}) {
    const std::vector<kg::Triple> triples = g->triples();
    for (size_t i = 0; i < triples.size(); i += 7) {
      g->AddTriple(triples[i].head, triples[i].relation, triples[i].head);
      g->AddTriple(triples[i]);
    }
    g->BuildIndex();
  }
  return pair;
}

TEST(MaskedGraphTest, MatchesInducedSubgraphBitForBit) {
  const datagen::DatasetPair source = LoopySource();
  for (const kg::KnowledgeGraph* g : {&source.kg1, &source.kg2}) {
    const size_t n = g->NumEntities();
    std::vector<bool> kept(n);
    std::unordered_set<kg::EntityId> kept_set;
    for (size_t e = 0; e < n; ++e) {
      kept[e] = e % 5 != 0;
      if (kept[e]) kept_set.insert(static_cast<kg::EntityId>(e));
    }
    kg::MaskedGraph view(*g, kept);
    Rng rng(9);
    for (int round = 0; round < 12; ++round) {
      // Removals hit kept and already removed entities alike.
      for (int i = 0; i < 40; ++i) {
        const auto e = static_cast<kg::EntityId>(rng.NextBounded(n));
        EXPECT_EQ(view.Remove(e), kept_set.erase(e) > 0);
      }
      std::vector<kg::EntityId> old_to_new;
      const kg::KnowledgeGraph induced = g->InducedSubgraph(kept_set,
                                                            &old_to_new);
      const std::vector<kg::EntityId> ids = view.KeptIds();
      ASSERT_EQ(ids.size(), induced.NumEntities());
      ASSERT_EQ(view.NumKept(), induced.NumEntities());
      for (size_t i = 0; i < ids.size(); ++i) {
        ASSERT_EQ(old_to_new[ids[i]], static_cast<kg::EntityId>(i));
        EXPECT_EQ(view.Degree(ids[i]),
                  induced.Degree(static_cast<kg::EntityId>(i)));
      }
      EXPECT_EQ(view.AverageDegree(), induced.AverageDegree());
      EXPECT_EQ(view.Distribution().proportion,
                kg::ComputeDegreeDistribution(induced).proportion);
      EXPECT_EQ(kg::PageRank(view.KeptOutEdges(ids), 0.85, 20),
                kg::PageRank(induced, 0.85, 20));
    }
  }
}

TEST(SamplePinTest, IterativeDegreeSampling) {
  // [profile][seed - 1][max_retries == 3]
  const uint64_t kPins[4][3][2] = {
      {{0x548d22f949a85ef1ULL, 0x548d22f949a85ef1ULL},
       {0xc0a6272fc7632427ULL, 0x72d74b98a3639d8eULL},
       {0x6f6091dbfef54509ULL, 0x714d9c05def91948ULL}},
      {{0x28a4f7af7f9b1fe3ULL, 0x28a4f7af7f9b1fe3ULL},
       {0x52546034d441b077ULL, 0x401250f31497ac2eULL},
       {0x8dc488f89245a143ULL, 0x85c9cc70a2b69a8aULL}},
      {{0xdba43cde28d6bfecULL, 0xdba43cde28d6bfecULL},
       {0x3d27f31b03081a8aULL, 0x3d27f31b03081a8aULL},
       {0x8457637f5daf7e73ULL, 0x8457637f5daf7e73ULL}},
      {{0x6fa77c58b160cbc7ULL, 0x6fa77c58b160cbc7ULL},
       {0xf149eeecb5a40df1ULL, 0xf149eeecb5a40df1ULL},
       {0x131ec889552e8c68ULL, 0x131ec889552e8c68ULL}},
  };
  for (int p = 0; p < 4; ++p) {
    const datagen::DatasetPair source = PinSource(p);
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      for (int r = 0; r < 2; ++r) {
        IdsOptions options;
        options.target_size = 300;
        options.mu = 30;
        options.seed = seed;
        options.max_retries = r == 0 ? 1 : 3;
        const uint64_t h = HashPair(IterativeDegreeSampling(source, options));
        EXPECT_EQ(h, kPins[p][seed - 1][r])
            << PinProfile(p).name << " seed " << seed << " max_retries "
            << options.max_retries << ": 0x" << std::hex << h << "ULL";
      }
    }
  }
}

TEST(SamplePinTest, NoisyDanglingSamplers) {
  const datagen::DatasetPair source = NoisyDanglingSource();
  IdsOptions options;
  options.target_size = 300;
  options.mu = 30;
  options.seed = 4;
  const datagen::DatasetPair ids = IterativeDegreeSampling(source, options);
  EXPECT_FALSE(ids.corruptions.empty());
  EXPECT_EQ(HashPair(ids), 0xdbe9d316eac24395ULL);
  const datagen::DatasetPair dense = DensifyPair(source, 2.0, 5);
  EXPECT_FALSE(dense.corruptions.empty());
  EXPECT_FALSE(dense.dangling1.empty());
  EXPECT_FALSE(dense.dangling2.empty());
  EXPECT_EQ(HashPair(dense), 0x4361efc0eca9f29cULL);
  EXPECT_EQ(HashPair(PageRankSampling(source, 300, 3)), 0x462c04ac6ed920ffULL);
  EXPECT_EQ(HashPair(RandomAlignmentSampling(source, 300, 3)),
            0xe6812b847a4786ecULL);
}

TEST(SamplePinTest, SelfLoopsAndRepeatedTriples) {
  const datagen::DatasetPair source = LoopySource();
  IdsOptions options;
  options.target_size = 300;
  options.mu = 30;
  options.seed = 6;
  EXPECT_EQ(HashPair(IterativeDegreeSampling(source, options)),
            0xcae5bdf11f0f5663ULL);
  EXPECT_EQ(HashPair(DensifyPair(source, 2.0, 5)), 0x98b023b95aa8bbf9ULL);
  Fnv f;
  f.Vec(kg::PageRank(source.kg1));
  EXPECT_EQ(f.h, 0xe66d28f34a4a068fULL);
}

TEST(SamplePinTest, DensifyPair) {
  const uint64_t kPins[4] = {0xeb8ad87ad0166785ULL, 0xe6071183d8f9c9bcULL,
                             0xbd3875be4d99ea0dULL, 0x517ca35c42e98a0eULL};
  for (int p = 0; p < 4; ++p) {
    const uint64_t h = HashPair(DensifyPair(PinSource(p), 2.0, 5));
    EXPECT_EQ(h, kPins[p]) << PinProfile(p).name << ": 0x" << std::hex << h;
  }
}

TEST(SamplePinTest, BaselineSamplers) {
  const datagen::DatasetPair source = PinSource(0);
  EXPECT_EQ(HashPair(PageRankSampling(source, 300, 3)), 0x84006ca014c00dd3ULL);
  EXPECT_EQ(HashPair(PageRankSampling(source, 300, 8)), 0xf98358d59f924909ULL);
  EXPECT_EQ(HashPair(RandomAlignmentSampling(source, 300, 3)),
            0xa2aa1e61d0240533ULL);
  // PRS's edge cases: no entity asked for, and more than are aligned.
  EXPECT_EQ(PageRankSampling(source, 0, 3).kg1.NumEntities(), 0u);
  EXPECT_EQ(PageRankSampling(source, 100000, 3).reference.size(),
            source.reference.size());
}

TEST(SamplePinTest, DenseBenchmarkDataset) {
  // V2 runs DensifyPair on an 800-entity source, then IDS.
  const core::ScalePreset scale{"pin", 400, 150, 15.0};
  EXPECT_EQ(HashPair(core::BuildBenchmarkDataset(
                         datagen::HeterogeneityProfile::EnDe(), scale,
                         /*dense_v2=*/true, 11)
                         .pair),
            0xac9532c1cd147b5fULL);
  EXPECT_EQ(HashPair(core::BuildBenchmarkDataset(
                         datagen::HeterogeneityProfile::DbpYg(), scale,
                         /*dense_v2=*/true, 12)
                         .pair),
            0xefc661e58534228cULL);
}

TEST(SamplePinTest, PageRankAndDegreeDistribution) {
  const datagen::DatasetPair source = PinSource(0);
  Fnv f;
  f.Vec(kg::PageRank(source.kg1));
  f.Vec(kg::PageRank(source.kg2, 0.85, 20));
  f.Vec(kg::ComputeDegreeDistribution(source.kg1).proportion);
  f.Vec(kg::ComputeDegreeDistribution(source.kg2).proportion);
  EXPECT_EQ(f.h, 0x26728c1cfa4ba672ULL);
}

}  // namespace
}  // namespace openea::sampling
