#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include <gtest/gtest.h>

#include "src/align/blocking.h"
#include "src/align/candidate_source.h"
#include "src/common/rng.h"
#include "src/datagen/kg_pair.h"
#include "src/kg/io.h"
#include "src/math/vec.h"

namespace openea {
namespace {

datagen::DatasetPair MakePair() {
  datagen::SyntheticKgConfig config;
  config.num_entities = 200;
  config.num_relations = 10;
  config.num_attributes = 8;
  config.vocabulary_size = 100;
  config.seed = 13;
  return GenerateDatasetPair(config, datagen::HeterogeneityProfile::EnFr(),
                             13);
}

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs cases as concurrent processes, and a
    // shared directory would let one test's SetUp wipe another's files.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("openea_io_test_") + info->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(IoTest, SaveLoadRoundTrip) {
  const auto pair = MakePair();
  ASSERT_TRUE(kg::SaveDatasetPair(pair, dir_.string()).ok());

  datagen::DatasetPair loaded;
  const Status status = kg::LoadDatasetPair(dir_.string(), &loaded);
  ASSERT_TRUE(status.ok()) << status.ToString();

  EXPECT_EQ(loaded.kg1.NumEntities(), pair.kg1.NumEntities());
  EXPECT_EQ(loaded.kg1.NumTriples(), pair.kg1.NumTriples());
  EXPECT_EQ(loaded.kg2.NumAttributeTriples(),
            pair.kg2.NumAttributeTriples());
  EXPECT_EQ(loaded.reference.size(), pair.reference.size());

  // Name-level equivalence of the reference alignment survives id
  // reassignment.
  std::set<std::pair<std::string, std::string>> expected, actual;
  for (const auto& p : pair.reference) {
    expected.emplace(pair.kg1.entities().Name(p.left),
                     pair.kg2.entities().Name(p.right));
  }
  for (const auto& p : loaded.reference) {
    actual.emplace(loaded.kg1.entities().Name(p.left),
                   loaded.kg2.entities().Name(p.right));
  }
  EXPECT_EQ(expected, actual);

  // Descriptions round-trip by entity name.
  size_t with_desc = 0;
  for (size_t e = 0; e < loaded.kg1.NumEntities(); ++e) {
    if (!loaded.kg1.Description(static_cast<kg::EntityId>(e)).empty()) {
      ++with_desc;
    }
  }
  EXPECT_GT(with_desc, 0u);
}

TEST_F(IoTest, LoadMissingDirectoryFails) {
  datagen::DatasetPair loaded;
  const Status status =
      kg::LoadDatasetPair((dir_ / "nope").string(), &loaded);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(IoTest, SaveAlignmentWritesTsv) {
  const auto pair = MakePair();
  std::filesystem::create_directories(dir_);
  const std::string path = (dir_ / "links").string();
  ASSERT_TRUE(kg::SaveAlignment(pair.kg1, pair.kg2, pair.reference, path)
                  .ok());
  std::ifstream in(path);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_NE(line.find('\t'), std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, pair.reference.size());
}

TEST_F(IoTest, TruncatedTripleLineReportsFileAndLine) {
  const auto pair = MakePair();
  ASSERT_TRUE(kg::SaveDatasetPair(pair, dir_.string()).ok());
  // Simulate a write cut off mid-line: the last triple loses its tail
  // column. The loader must name the exact file:line, not just "bad line".
  const std::string rel_path = (dir_ / "rel_triples_1").string();
  size_t lines = 0;
  {
    std::ifstream in(rel_path);
    std::string line;
    while (std::getline(in, line)) ++lines;
  }
  ASSERT_GT(lines, 0u);
  std::ofstream(rel_path, std::ios::app) << "lonely_head\ttruncated_rel\n";

  datagen::DatasetPair loaded;
  const Status status = kg::LoadDatasetPair(dir_.string(), &loaded);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  const std::string expected_context =
      rel_path + ":" + std::to_string(lines + 1);
  EXPECT_NE(status.message().find(expected_context), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("lonely_head"), std::string::npos)
      << status.ToString();
}

TEST_F(IoTest, GarbageLinksFileReportsFileAndLine) {
  const auto pair = MakePair();
  ASSERT_TRUE(kg::SaveDatasetPair(pair, dir_.string()).ok());
  const std::string links_path = (dir_ / "ent_links").string();
  std::ofstream(links_path, std::ios::trunc)
      << "not a tab separated file at all\n";

  datagen::DatasetPair loaded;
  const Status status = kg::LoadDatasetPair(dir_.string(), &loaded);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(links_path + ":1"), std::string::npos)
      << status.ToString();
}

TEST_F(IoTest, LinkToUnknownEntityReportsFileAndLine) {
  const auto pair = MakePair();
  ASSERT_TRUE(kg::SaveDatasetPair(pair, dir_.string()).ok());
  const std::string links_path = (dir_ / "ent_links").string();
  std::ofstream(links_path, std::ios::trunc)
      << "ghost_entity\tother_ghost\n";

  datagen::DatasetPair loaded;
  const Status status = kg::LoadDatasetPair(dir_.string(), &loaded);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unknown entity"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find(links_path + ":1"), std::string::npos)
      << status.ToString();
}

TEST_F(IoTest, GarbageAttributeTripleReportsFileAndLine) {
  const auto pair = MakePair();
  ASSERT_TRUE(kg::SaveDatasetPair(pair, dir_.string()).ok());
  const std::string attr_path = (dir_ / "attr_triples_2").string();
  std::ofstream(attr_path, std::ios::trunc)
      << "\x01\x02garbage bytes with no tabs\n";

  datagen::DatasetPair loaded;
  const Status status = kg::LoadDatasetPair(dir_.string(), &loaded);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(attr_path + ":1"), std::string::npos)
      << status.ToString();
}

TEST(LshBlockerTest, SelfQueryFindsSelf) {
  Rng rng(3);
  math::Matrix emb(100, 16);
  emb.FillUniform(rng, 1.0f);
  align::LshBlocker blocker(16, 10, 4, 7);
  blocker.Index(emb);
  size_t found_self = 0;
  for (size_t i = 0; i < emb.rows(); ++i) {
    const auto candidates = blocker.Candidates(emb.Row(i));
    for (int c : candidates) {
      if (c == static_cast<int>(i)) {
        ++found_self;
        break;
      }
    }
  }
  // A vector always hashes into its own buckets.
  EXPECT_EQ(found_self, emb.rows());
}

TEST(LshBlockerTest, CandidateSetsAreMuchSmallerThanFullSpace) {
  Rng rng(3);
  math::Matrix emb(500, 16);
  emb.FillUniform(rng, 1.0f);
  align::LshBlocker blocker(16, 12, 2, 7);
  blocker.Index(emb);
  size_t total = 0;
  for (size_t i = 0; i < 100; ++i) {
    total += blocker.Candidates(emb.Row(i)).size();
  }
  EXPECT_LT(total / 100, 250u);  // Far below the full 500.
}

TEST(BlockedGreedyMatchTest, NearExactOnWellSeparatedData) {
  // Identical source/target embeddings: blocked matching must recover the
  // identity mapping for (almost) every row; tolerate tiny recall loss.
  Rng rng(3);
  math::Matrix emb(200, 32);
  emb.FillUniform(rng, 1.0f);
  for (size_t r = 0; r < emb.rows(); ++r) math::NormalizeL2(emb.Row(r));
  align::CandidateSourceConfig config;
  config.kind = align::CandidateSourceKind::kLsh;
  config.lsh_bits = 10;
  config.lsh_tables = 4;
  config.seed = 7;
  auto source = align::CreateCandidateSourceOrDie(config);
  ASSERT_TRUE(source->Index(emb).ok());
  const align::TopKResult top1 = source->TopK(emb, 1);
  size_t correct = 0;
  for (size_t i = 0; i < emb.rows(); ++i) {
    if (top1.BestIndex(i) == static_cast<int>(i)) ++correct;
  }
  EXPECT_GT(correct, 195u);
}

}  // namespace
}  // namespace openea
