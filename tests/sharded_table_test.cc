// Out-of-core sharded-table suite (ctest label: sharded; the sanitize
// presets run it too). Pins, in order:
//  * the on-disk format round trip (values + AdaGrad, padding, accessors,
//    content fingerprint) and the writer's row-count/shape contract;
//  * damage detection — a corrupted header fails Open, a corrupted or torn
//    bank (shard/short_write fault) passes Open but fails MapBank/ToMatrix
//    with a CRC error, shard/enospc surfaces as a write Status;
//  * the residency budget (LRU eviction, pin exemption) and prefetch;
//  * *bit*-identity of StreamingTopK over banks with StreamingTopK in RAM —
//    every metric, 1 and 8 threads, bank sizes that split rows unevenly —
//    and of the exact and IVF candidate sources built via IndexSharded
//    against their in-RAM Index builds;
//  * the span paths the ledger's traced mode reads;
//  * eval::EvaluateRankingSharded == eval::EvaluateRanking, bitwise.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "src/align/candidate_source.h"
#include "src/align/similarity.h"
#include "src/align/topk.h"
#include "src/common/fault.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/common/telemetry.h"
#include "src/core/task.h"
#include "src/eval/metrics.h"
#include "src/math/embedding_table.h"
#include "src/math/matrix.h"
#include "src/math/sharded_table.h"

namespace openea {
namespace {

class ShardedTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::DisarmAll();
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("openea_sharded_table_") + info->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    fault::DisarmAll();
    std::filesystem::remove_all(dir_);
  }
  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

math::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  math::Matrix m(rows, cols);
  m.FillUniform(rng, 1.0f);
  return m;
}

/// Restores the serial default when a test body returns or fails.
struct ThreadGuard {
  explicit ThreadGuard(int threads) { SetThreads(threads); }
  ~ThreadGuard() { SetThreads(1); }
};

/// Flips one byte of the file at `path`.
void CorruptByteAt(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0xFF);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

// ---------------------------------------------------------------------------
// Format round trip.
// ---------------------------------------------------------------------------

TEST_F(ShardedTableTest, RoundTripValuesAndAdagrad) {
  const size_t rows = 100, dim = 7, rows_per_bank = 16;
  std::vector<float> values(rows * dim), adagrad(rows * dim);
  Rng rng(42);
  for (float& v : values) v = rng.NextFloat(-1.0f, 1.0f);
  for (float& v : adagrad) v = rng.NextFloat(0.0f, 1.0f);
  const auto table =
      math::EmbeddingTable::FromParts(rows, dim, values, adagrad);

  const std::string path = Path("table.shard");
  ASSERT_TRUE(math::WriteShardedTable(path, table, rows_per_bank).ok());
  EXPECT_TRUE(math::IsShardedTableFile(path));

  auto opened = math::ShardedEmbeddingTable::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const auto& sharded = **opened;
  EXPECT_EQ(sharded.num_rows(), rows);
  EXPECT_EQ(sharded.dim(), dim);
  EXPECT_EQ(sharded.row_stride(), 16u);  // 7 rounded up to 16 floats.
  EXPECT_EQ(sharded.rows_per_bank(), rows_per_bank);
  EXPECT_EQ(sharded.num_banks(), 7u);  // ceil(100 / 16).
  EXPECT_TRUE(sharded.has_adagrad());
  EXPECT_NE(sharded.ContentFingerprint(), 0u);

  auto round = sharded.ToEmbeddingTable();
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  ASSERT_EQ(round->num_rows(), rows);
  ASSERT_EQ(round->dim(), dim);
  EXPECT_TRUE(std::equal(round->Data().begin(), round->Data().end(),
                         values.begin()));
  EXPECT_TRUE(std::equal(round->AdagradData().begin(),
                         round->AdagradData().end(), adagrad.begin()));

  // Row reads and mapped-bank row pointers agree with the source data.
  std::vector<float> row(dim);
  ASSERT_TRUE(sharded.ReadRow(57, row).ok());
  for (size_t d = 0; d < dim; ++d) EXPECT_EQ(row[d], values[57 * dim + d]);
  auto lease = sharded.MapBank(sharded.BankOfRow(57));
  ASSERT_TRUE(lease.ok());
  EXPECT_EQ(lease->stride(), 16u);
  const float* mapped = lease->RowValues(57);
  for (size_t d = 0; d < dim; ++d) EXPECT_EQ(mapped[d], values[57 * dim + d]);
  // Padding floats must be zero (the kernel may read through the stride).
  for (size_t d = dim; d < lease->stride(); ++d) EXPECT_EQ(mapped[d], 0.0f);
}

TEST_F(ShardedTableTest, FingerprintTracksContent) {
  const math::Matrix a = RandomMatrix(30, 8, 1);
  math::Matrix b = RandomMatrix(30, 8, 1);
  b.Row(17)[3] += 1.0f;
  ASSERT_TRUE(math::WriteShardedTable(Path("a.shard"), a).ok());
  ASSERT_TRUE(math::WriteShardedTable(Path("a2.shard"), a).ok());
  ASSERT_TRUE(math::WriteShardedTable(Path("b.shard"), b).ok());
  const auto fp = [&](const std::string& p) {
    auto t = math::ShardedEmbeddingTable::Open(p);
    EXPECT_TRUE(t.ok());
    return (*t)->ContentFingerprint();
  };
  EXPECT_EQ(fp(Path("a.shard")), fp(Path("a2.shard")));
  EXPECT_NE(fp(Path("a.shard")), fp(Path("b.shard")));
}

TEST_F(ShardedTableTest, WriterEnforcesRowCountAndShape) {
  math::ShardedTableOptions options;
  options.rows_per_bank = 4;
  auto writer =
      math::ShardedTableWriter::Create(Path("w.shard"), 3, 5, options);
  ASSERT_TRUE(writer.ok());
  const std::vector<float> row(5, 1.0f), wrong(4, 1.0f);
  EXPECT_FALSE((*writer)->AppendRow(wrong).ok());
  ASSERT_TRUE((*writer)->AppendRow(row).ok());
  EXPECT_FALSE((*writer)->Finalize().ok());  // 1 of 3 rows appended.
  ASSERT_TRUE((*writer)->AppendRow(row).ok());
  ASSERT_TRUE((*writer)->AppendRow(row).ok());
  EXPECT_TRUE((*writer)->Finalize().ok());
  EXPECT_TRUE(math::IsShardedTableFile(Path("w.shard")));
}

TEST_F(ShardedTableTest, NotAShardFile) {
  const std::string path = Path("not_a_shard");
  std::ofstream(path) << "hello";
  EXPECT_FALSE(math::IsShardedTableFile(path));
  EXPECT_FALSE(math::ShardedEmbeddingTable::Open(path).ok());
  EXPECT_FALSE(math::IsShardedTableFile(Path("missing")));
}

// ---------------------------------------------------------------------------
// Damage detection.
// ---------------------------------------------------------------------------

TEST_F(ShardedTableTest, CorruptedHeaderFailsOpen) {
  const std::string path = Path("h.shard");
  ASSERT_TRUE(math::WriteShardedTable(path, RandomMatrix(20, 6, 2)).ok());
  CorruptByteAt(path, 16);  // num_rows field.
  EXPECT_FALSE(math::ShardedEmbeddingTable::Open(path).ok());
}

TEST_F(ShardedTableTest, CorruptedBankFailsMapNotOpen) {
  const std::string path = Path("b.shard");
  math::ShardedTableOptions options;
  options.rows_per_bank = 8;
  ASSERT_TRUE(
      math::WriteShardedTable(path, RandomMatrix(24, 6, 3), options).ok());
  // Flip a payload byte in the last bank (banks are 64-aligned at the tail
  // of the file, so the last few bytes are bank payload).
  CorruptByteAt(path, std::filesystem::file_size(path) - 70);

  auto opened = math::ShardedEmbeddingTable::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE((*opened)->MapBank(0).ok());  // Undamaged bank still maps.
  const auto last = (*opened)->MapBank((*opened)->num_banks() - 1);
  ASSERT_FALSE(last.ok());
  EXPECT_EQ(last.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(last.status().ToString().find("CRC"), std::string::npos);
  EXPECT_FALSE((*opened)->ToMatrix().ok());

  // Opting out of verification maps the damaged bank (CRC skipped).
  math::ShardedEmbeddingTable::OpenOptions no_verify;
  no_verify.verify_crc = false;
  auto unchecked = math::ShardedEmbeddingTable::Open(path, no_verify);
  ASSERT_TRUE(unchecked.ok());
  EXPECT_TRUE((*unchecked)->MapBank((*unchecked)->num_banks() - 1).ok());
}

TEST_F(ShardedTableTest, ShortWriteFaultTearsOneBankCaughtByCrc) {
  // shard/short_write models power loss without fsync: the writer "succeeds"
  // but half of one bank's payload never reached the disk. Open (header +
  // directory intact) succeeds; mapping the torn bank fails its CRC.
  fault::Spec spec;
  spec.point = "shard/short_write";
  spec.hit = 2;  // Tear the second bank.
  fault::Arm(spec);
  const std::string path = Path("torn.shard");
  math::ShardedTableOptions options;
  options.rows_per_bank = 8;
  ASSERT_TRUE(
      math::WriteShardedTable(path, RandomMatrix(32, 6, 4), options).ok());
  fault::DisarmAll();

  auto opened = math::ShardedEmbeddingTable::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE((*opened)->MapBank(0).ok());
  const auto torn = (*opened)->MapBank(1);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(torn.status().ToString().find("torn"), std::string::npos);
  EXPECT_FALSE((*opened)->ToMatrix().ok());
}

TEST_F(ShardedTableTest, EnospcFaultFailsWriteWithoutFinalFile) {
  fault::Spec spec;
  spec.point = "shard/enospc";
  spec.hit = 1;
  fault::Arm(spec);
  const std::string path = Path("full.shard");
  EXPECT_FALSE(math::WriteShardedTable(path, RandomMatrix(16, 4, 5)).ok());
  fault::DisarmAll();
  EXPECT_FALSE(std::filesystem::exists(path));  // Temp+rename never renamed.
}

// ---------------------------------------------------------------------------
// Residency budget and prefetch.
// ---------------------------------------------------------------------------

TEST_F(ShardedTableTest, ResidencyBudgetEvictsLruKeepsPinned) {
  const std::string path = Path("lru.shard");
  math::ShardedTableOptions options;
  options.rows_per_bank = 8;
  const math::Matrix source = RandomMatrix(64, 6, 6);
  ASSERT_TRUE(math::WriteShardedTable(path, source, options).ok());

  math::ShardedEmbeddingTable::OpenOptions open_options;
  open_options.max_resident_banks = 2;
  auto opened = math::ShardedEmbeddingTable::Open(path, open_options);
  ASSERT_TRUE(opened.ok());
  const auto& table = **opened;
  ASSERT_EQ(table.num_banks(), 8u);

  // Sequential scan with dropped leases: the budget holds throughout.
  for (size_t b = 0; b < table.num_banks(); ++b) {
    auto lease = table.MapBank(b);
    ASSERT_TRUE(lease.ok());
    EXPECT_EQ(lease->first_row(), b * 8);
    EXPECT_LE(table.resident_banks(), 2u);
  }
  EXPECT_LE(table.resident_banks(), 2u);

  // Pinned banks are never evicted: three live leases exceed the budget
  // (soft while pinned), and their pointers stay valid.
  {
    auto l0 = table.MapBank(0);
    auto l1 = table.MapBank(1);
    auto l2 = table.MapBank(2);
    ASSERT_TRUE(l0.ok() && l1.ok() && l2.ok());
    EXPECT_GE(table.resident_banks(), 3u);
    EXPECT_EQ(l0->values()[0], source.Row(0)[0]);
  }
  table.ReleaseUnpinned();
  EXPECT_EQ(table.resident_banks(), 0u);
  EXPECT_EQ(table.resident_bytes(), 0u);
}

TEST_F(ShardedTableTest, PrefetchWarmsBanksValuesUnchanged) {
  const std::string path = Path("pf.shard");
  math::ShardedTableOptions options;
  options.rows_per_bank = 4;
  const math::Matrix source = RandomMatrix(20, 6, 7);
  ASSERT_TRUE(math::WriteShardedTable(path, source, options).ok());
  auto opened = math::ShardedEmbeddingTable::Open(path);
  ASSERT_TRUE(opened.ok());
  const auto& table = **opened;
  for (size_t b = 0; b < table.num_banks(); ++b) table.Prefetch(b);
  table.Prefetch(1000);  // Out of range: ignored, not fatal.
  auto matrix = table.ToMatrix();
  ASSERT_TRUE(matrix.ok());
  EXPECT_TRUE(std::equal(matrix->Data().begin(), matrix->Data().end(),
                         source.Data().begin()));
}

// ---------------------------------------------------------------------------
// Top-k over banks: bit-identity with the in-RAM scan.
// ---------------------------------------------------------------------------

const align::DistanceMetric kAllMetrics[] = {
    align::DistanceMetric::kCosine, align::DistanceMetric::kEuclidean,
    align::DistanceMetric::kManhattan, align::DistanceMetric::kInner};

void ExpectSameTopK(const align::TopKResult& a, const align::TopKResult& b,
                    const std::string& label) {
  ASSERT_EQ(a.rows, b.rows) << label;
  ASSERT_EQ(a.k, b.k) << label;
  EXPECT_EQ(a.nan_cells, b.nan_cells) << label;
  for (size_t i = 0; i < a.rows; ++i) {
    const auto ra = a.Row(i);
    const auto rb = b.Row(i);
    for (size_t t = 0; t < a.k; ++t) {
      EXPECT_EQ(ra[t].value, rb[t].value) << label << " row=" << i;
      EXPECT_EQ(ra[t].index, rb[t].index) << label << " row=" << i;
    }
  }
  ASSERT_EQ(a.true_sim.size(), b.true_sim.size()) << label;
  for (size_t i = 0; i < a.true_sim.size(); ++i) {
    if (std::isnan(a.true_sim[i])) {
      EXPECT_TRUE(std::isnan(b.true_sim[i])) << label << " row=" << i;
    } else {
      EXPECT_EQ(a.true_sim[i], b.true_sim[i]) << label << " row=" << i;
    }
    EXPECT_EQ(a.num_greater[i], b.num_greater[i]) << label << " row=" << i;
    EXPECT_EQ(a.num_ties[i], b.num_ties[i]) << label << " row=" << i;
  }
}

TEST_F(ShardedTableTest, ShardedTopKBitIdenticalToStreaming) {
  const size_t rows = 37, cols = 53, dim = 16, k = 7;
  const math::Matrix src = RandomMatrix(rows, dim, 11);
  const math::Matrix tgt = RandomMatrix(cols, dim, 22);
  for (const size_t rows_per_bank : {7u, 16u, 64u}) {  // 64 = single bank.
    math::ShardedTableOptions options;
    options.rows_per_bank = rows_per_bank;
    const std::string path =
        Path("tgt_" + std::to_string(rows_per_bank) + ".shard");
    ASSERT_TRUE(math::WriteShardedTable(path, tgt, options).ok());
    auto sharded = math::ShardedEmbeddingTable::Open(path);
    ASSERT_TRUE(sharded.ok());
    for (const align::DistanceMetric metric : kAllMetrics) {
      for (int threads : {1, 8}) {
        ThreadGuard guard(threads);
        align::TopKOptions topk_options;
        topk_options.k = k;
        topk_options.metric = metric;
        topk_options.true_cols.resize(rows);
        for (size_t i = 0; i < rows; ++i) {
          topk_options.true_cols[i] = static_cast<int>(i % cols);
        }
        const align::TopKResult streamed =
            align::StreamingTopK(src, tgt, topk_options);
        const align::TopKResult banked =
            align::StreamingTopK(src, **sharded, topk_options);
        ExpectSameTopK(streamed, banked,
                       std::string(align::DistanceMetricName(metric)) +
                           " bank=" + std::to_string(rows_per_bank) +
                           " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST_F(ShardedTableTest, ShardedTopKSkipsNanCellsLikeStreaming) {
  const size_t rows = 9, cols = 21, dim = 8;
  const math::Matrix src = RandomMatrix(rows, dim, 33);
  math::Matrix tgt = RandomMatrix(cols, dim, 44);
  tgt.Row(5)[0] = std::numeric_limits<float>::quiet_NaN();
  tgt.Row(13)[3] = std::numeric_limits<float>::quiet_NaN();
  math::ShardedTableOptions options;
  options.rows_per_bank = 6;
  const std::string path = Path("nan.shard");
  ASSERT_TRUE(math::WriteShardedTable(path, tgt, options).ok());
  auto sharded = math::ShardedEmbeddingTable::Open(path);
  ASSERT_TRUE(sharded.ok());
  align::TopKOptions topk_options;
  topk_options.k = 5;
  topk_options.metric = align::DistanceMetric::kInner;
  topk_options.true_cols.assign(rows, 5);  // NaN true column for every row.
  const align::TopKResult streamed =
      align::StreamingTopK(src, tgt, topk_options);
  const align::TopKResult banked =
      align::StreamingTopK(src, **sharded, topk_options);
  EXPECT_GT(banked.nan_cells, 0u);
  ExpectSameTopK(streamed, banked, "nan");
}

// ---------------------------------------------------------------------------
// Candidate sources built out-of-core.
// ---------------------------------------------------------------------------

std::shared_ptr<const math::ShardedEmbeddingTable> OpenTable(
    const std::string& path) {
  auto table = math::ShardedEmbeddingTable::Open(path);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.ok() ? *std::move(table) : nullptr;
}

TEST_F(ShardedTableTest, ExactSourceShardedMatchesInRam) {
  const math::Matrix queries = RandomMatrix(19, 12, 1);
  const math::Matrix targets = RandomMatrix(47, 12, 2);
  // 7 rows per bank: ragged banks, the last one short (47 = 6 * 7 + 5).
  for (const size_t rows_per_bank : {16u, 7u}) {
    const std::string path =
        Path("exact_" + std::to_string(rows_per_bank) + ".shard");
    math::ShardedTableOptions options;
    options.rows_per_bank = rows_per_bank;
    ASSERT_TRUE(math::WriteShardedTable(path, targets, options).ok());
    for (const align::DistanceMetric metric : kAllMetrics) {
      align::CandidateSourceConfig config;
      config.kind = align::CandidateSourceKind::kExact;
      config.metric = metric;
      auto in_ram = align::CreateCandidateSourceOrDie(config);
      ASSERT_TRUE(in_ram->Index(targets).ok());
      auto out_of_core = align::CreateCandidateSourceOrDie(config);
      ASSERT_TRUE(out_of_core->IndexSharded(OpenTable(path)).ok());
      EXPECT_EQ(out_of_core->num_targets(), targets.rows());
      EXPECT_EQ(out_of_core->dim(), targets.cols());

      for (int threads : {1, 8}) {
        ThreadGuard guard(threads);
        ExpectSameTopK(in_ram->TopK(queries, 10),
                       out_of_core->TopK(queries, 10),
                       std::string("exact ") +
                           align::DistanceMetricName(metric) +
                           " bank=" + std::to_string(rows_per_bank) +
                           " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST_F(ShardedTableTest, ExactSourceShardedRejectsCsls) {
  align::CandidateSourceConfig config;
  config.kind = align::CandidateSourceKind::kExact;
  config.csls = true;
  auto source = align::CreateCandidateSourceOrDie(config);
  const std::string path = Path("csls.shard");
  ASSERT_TRUE(math::WriteShardedTable(path, RandomMatrix(8, 4, 3)).ok());
  const Status status = source->IndexSharded(OpenTable(path));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("csls"), std::string::npos);
}

TEST_F(ShardedTableTest, AnnIvfShardedBuildMatchesInRam) {
  const math::Matrix queries = RandomMatrix(23, 16, 5);
  const math::Matrix targets = RandomMatrix(300, 16, 6);
  // 7 rows per bank: inverted lists straddle banks of the spilled layout and
  // the last bank is short (300 = 42 * 7 + 6).
  for (const size_t rows_per_bank : {64u, 7u}) {
    const std::string path =
        Path("ivf_" + std::to_string(rows_per_bank) + ".shard");
    math::ShardedTableOptions options;
    options.rows_per_bank = rows_per_bank;
    ASSERT_TRUE(math::WriteShardedTable(path, targets, options).ok());
    for (const align::DistanceMetric metric : kAllMetrics) {
      align::CandidateSourceConfig config;
      config.kind = align::CandidateSourceKind::kAnnIvf;
      config.metric = metric;
      config.ivf_nprobe = 4;
      auto in_ram = align::CreateCandidateSourceOrDie(config);
      ASSERT_TRUE(in_ram->Index(targets).ok());
      auto out_of_core = align::CreateCandidateSourceOrDie(config);
      ASSERT_TRUE(out_of_core->IndexSharded(OpenTable(path)).ok());
      EXPECT_EQ(out_of_core->num_targets(), targets.rows());
      EXPECT_EQ(out_of_core->dim(), targets.cols());

      // Same seeds, same Lloyd updates (streamed in global row order), same
      // probe routing — the sharded build must return the same candidates.
      for (int threads : {1, 8}) {
        ThreadGuard guard(threads);
        const auto a = in_ram->TopK(queries, 10);
        const auto b = out_of_core->TopK(queries, 10);
        ASSERT_EQ(a.rows, b.rows);
        const std::string label = std::string(align::DistanceMetricName(
                                      metric)) +
                                  " bank=" + std::to_string(rows_per_bank) +
                                  " threads=" + std::to_string(threads);
        for (size_t i = 0; i < a.rows; ++i) {
          const auto ra = a.Row(i);
          const auto rb = b.Row(i);
          for (size_t t = 0; t < a.k; ++t) {
            EXPECT_EQ(ra[t].value, rb[t].value)
                << label << " row=" << i << " t=" << t;
            EXPECT_EQ(ra[t].index, rb[t].index)
                << label << " row=" << i << " t=" << t;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Span paths the ledger's traced mode reads (ledger/run.py): a renamed or
// re-nested span would break its per-layer split, and ctest does not build
// the ledger.
// ---------------------------------------------------------------------------

TEST_F(ShardedTableTest, LedgerSpanPathsExist) {
  struct CollectGuard {
    CollectGuard() {
      telemetry::ResetForTesting();
      telemetry::SetCollectForTesting(true);
    }
    ~CollectGuard() {
      telemetry::SetCollectForTesting(false);
      telemetry::ResetForTesting();
    }
  } collect;
  const size_t n = 40, dim = 8;
  core::AlignmentModel model;
  model.emb1 = RandomMatrix(n, dim, 81);
  model.emb2 = RandomMatrix(n, dim, 82);
  kg::Alignment pairs;
  for (size_t i = 0; i < n; ++i) {
    pairs.push_back({static_cast<kg::EntityId>(i),
                     static_cast<kg::EntityId>(i)});
  }
  const align::DistanceMetric metric = align::DistanceMetric::kCosine;
  (void)eval::EvaluateRanking(model, pairs, metric);
  (void)eval::EvaluateRankingSharded(model, pairs, metric,
                                     Path("eval.shard"), /*rows_per_bank=*/16);
  const std::string path = Path("ivf.shard");
  math::ShardedTableOptions options;
  options.rows_per_bank = 16;
  ASSERT_TRUE(math::WriteShardedTable(path, model.emb2, options).ok());
  align::CandidateSourceConfig config;
  config.kind = align::CandidateSourceKind::kAnnIvf;
  auto source = align::CreateCandidateSourceOrDie(config);
  {
    telemetry::ScopedSpan create("create");
    ASSERT_TRUE(source->IndexSharded(OpenTable(path)).ok());
  }
  std::vector<std::string> paths;
  for (const telemetry::SpanStat& span : telemetry::SnapshotSpans()) {
    paths.push_back(span.path);
  }
  for (const char* want :
       {"eval_ranking/similarity/streaming_topk/topk_scan",
        "eval_ranking_sharded/similarity/sharded_topk/topk_scan",
        "create/ann_ivf_build"}) {
    EXPECT_NE(std::find(paths.begin(), paths.end(), want), paths.end())
        << want;
  }
}

// ---------------------------------------------------------------------------
// Sharded evaluation.
// ---------------------------------------------------------------------------

TEST_F(ShardedTableTest, EvaluateRankingShardedBitIdentical) {
  const size_t n = 80, dim = 16;
  core::AlignmentModel model;
  model.emb1 = RandomMatrix(n, dim, 71);
  model.emb2 = RandomMatrix(n, dim, 72);
  kg::Alignment pairs;
  for (size_t i = 0; i < n; ++i) {
    pairs.push_back({static_cast<kg::EntityId>(i),
                     static_cast<kg::EntityId>((i * 7 + 3) % n)});
  }
  const eval::RankingMetrics in_ram =
      eval::EvaluateRanking(model, pairs, align::DistanceMetric::kCosine);
  for (int threads : {1, 8}) {
    ThreadGuard guard(threads);
    const eval::RankingMetrics sharded = eval::EvaluateRankingSharded(
        model, pairs, align::DistanceMetric::kCosine,
        Path("eval_t" + std::to_string(threads) + ".shard"),
        /*rows_per_bank=*/16, /*max_resident_banks=*/2);
    EXPECT_EQ(sharded.hits1, in_ram.hits1) << threads;
    EXPECT_EQ(sharded.hits5, in_ram.hits5) << threads;
    EXPECT_EQ(sharded.mr, in_ram.mr) << threads;
    EXPECT_EQ(sharded.mrr, in_ram.mrr) << threads;
  }
  // The shard file is left behind as a serve-loadable artifact.
  EXPECT_TRUE(math::IsShardedTableFile(Path("eval_t1.shard")));
}

}  // namespace
}  // namespace openea
