// End-to-end suite for align-serve (src/serve/), registered under the
// `serve` ctest label. Each test forks the real binary (path injected via
// OPENEA_ALIGN_SERVE) with its stdin/stdout on pipes and drives the NDJSON
// protocol: a 1000-query batched session must return ids and scores
// bit-identical to a local exact top-k, malformed requests and fingerprint
// mismatches must come back as in-order Status errors without killing the
// session, and the --json telemetry must pass validate_bench_json and
// carry the serving metrics (qps, latency percentiles, batch sizes). The
// topk response writer is pinned byte for byte against the DOM dump it
// replaced, directly and on served lines.

#include <gtest/gtest.h>
#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "src/align/candidate_source.h"
#include "src/common/checkpoint.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/core/benchmark.h"
#include "src/math/matrix.h"
#include "src/serve/server.h"

namespace openea::serve {
namespace {

std::string TempDir() {
  std::string tmpl = ::testing::TempDir() + "serve_test_XXXXXX";
  char* dir = ::mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return std::string(dir);
}

/// Writes a two-table TrainState (source KG = table 0, target KG = table 1)
/// and returns its path.
std::string WriteCheckpoint(const std::string& dir, size_t rows, size_t dim,
                            uint64_t seed) {
  Rng rng(seed);
  checkpoint::TrainState state;
  state.epoch = 3;
  state.learning_rate = 0.01f;
  state.tables.emplace_back(rows, dim, math::InitScheme::kUniform, rng);
  state.tables.emplace_back(rows, dim, math::InitScheme::kUniform, rng);
  const std::string path = dir + "/model.ckpt";
  EXPECT_TRUE(checkpoint::SaveTrainState(path, state).ok());
  return path;
}

math::Matrix TableMatrix(const math::EmbeddingTable& table) {
  math::Matrix out(table.num_rows(), table.dim());
  const auto data = table.Data();
  std::copy(data.begin(), data.end(), out.Data().begin());
  return out;
}

/// The forked server with its stdin/stdout piped to the test.
class ServeProcess {
 public:
  explicit ServeProcess(std::vector<std::string> extra_args) {
    int to_child[2], from_child[2];
    EXPECT_EQ(::pipe(to_child), 0);
    EXPECT_EQ(::pipe(from_child), 0);
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(to_child[0], STDIN_FILENO);
      ::dup2(from_child[1], STDOUT_FILENO);
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      std::vector<char*> argv;
      static std::string binary = OPENEA_ALIGN_SERVE;
      argv.push_back(binary.data());
      for (auto& arg : extra_args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      std::perror("execv align-serve");
      ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    in_fd_ = to_child[1];
    out_fd_ = from_child[0];
  }

  ~ServeProcess() {
    if (in_fd_ >= 0) ::close(in_fd_);
    if (out_fd_ >= 0) ::close(out_fd_);
    if (pid_ > 0) ::waitpid(pid_, nullptr, 0);
  }

  void Send(const std::string& line) {
    const std::string framed = line + "\n";
    size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n =
          ::write(in_fd_, framed.data() + off, framed.size() - off);
      ASSERT_GT(n, 0);
      off += static_cast<size_t>(n);
    }
  }

  void CloseInput() {
    if (in_fd_ >= 0) ::close(in_fd_);
    in_fd_ = -1;
  }

  /// Blocking read of the next response line (EOF fails the test).
  std::string ReadLine() {
    for (;;) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        const std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
      EXPECT_GT(n, 0) << "server closed the pipe mid-read";
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  json::Value ReadJson() {
    json::Value value;
    const std::string line = ReadLine();
    EXPECT_TRUE(json::Parse(line, &value).ok()) << "bad line: " << line;
    return value;
  }

  /// Waits for exit and returns the raw status; call after CloseInput().
  int Wait() {
    int status = -1;
    EXPECT_EQ(::waitpid(pid_, &status, 0), pid_);
    pid_ = -1;
    return status;
  }

 private:
  pid_t pid_ = -1;
  int in_fd_ = -1, out_fd_ = -1;
  std::string buffer_;
};

std::string RowsJson(const math::Matrix& queries, size_t begin, size_t count) {
  std::string out = "[";
  for (size_t r = begin; r < begin + count; ++r) {
    if (r != begin) out += ",";
    out += "[";
    const auto row = queries.Row(r);
    for (size_t d = 0; d < row.size(); ++d) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.9g", row[d]);
      if (d != 0) out += ",";
      out += buf;
    }
    out += "]";
  }
  out += "]";
  return out;
}

TEST(ServeTest, BatchedSessionBitIdenticalToLocalExactTopK) {
  const std::string dir = TempDir();
  const std::string ckpt = WriteCheckpoint(dir, 400, 16, 7);
  const std::string json_path = dir + "/BENCH_align_serve.json";

  constexpr size_t kQueries = 1000, kPerRequest = 25, kK = 5;
  Rng rng(99);
  math::Matrix queries(kQueries, 16);
  queries.FillUniform(rng, 1.0f);

  // Local reference: same exact source over the checkpoint's target table.
  const auto state = checkpoint::LoadTrainState(ckpt);
  ASSERT_TRUE(state.ok());
  align::CandidateSourceConfig config;
  auto exact = align::CreateCandidateSourceOrDie(config);
  ASSERT_TRUE(exact->Index(TableMatrix(state->tables[1])).ok());
  const align::TopKResult truth = exact->TopK(queries, kK);

  ServeProcess server({"--checkpoint=" + ckpt, "--source=exact",
                       "--k=" + std::to_string(kK), "--batch=16",
                       "--json=" + json_path});
  const json::Value hello = server.ReadJson();
  ASSERT_TRUE(hello.Find("event") != nullptr);
  EXPECT_EQ(hello.Find("event")->string_value(), "ready");
  EXPECT_EQ(hello.Find("source")->string_value(), "exact");
  EXPECT_EQ(static_cast<size_t>(hello.Find("targets")->number()), 400u);
  const std::string fingerprint = hello.Find("fingerprint")->string_value();
  EXPECT_EQ(fingerprint, ModelFingerprint(*state));

  // Pipeline every request before reading a single response: the server
  // must micro-batch them and still answer in order. The requests plus
  // their responses are far larger than the pipe buffers, so a writer
  // thread keeps pushing while the main thread drains responses.
  std::thread writer([&] {
    for (size_t begin = 0; begin < kQueries; begin += kPerRequest) {
      server.Send("{\"op\":\"topk\",\"id\":" +
                  std::to_string(begin / kPerRequest) +
                  ",\"k\":" + std::to_string(kK) +
                  ",\"fingerprint\":\"" + fingerprint + "\"," +
                  "\"rows\":" + RowsJson(queries, begin, kPerRequest) + "}");
    }
  });
  for (size_t begin = 0; begin < kQueries; begin += kPerRequest) {
    const json::Value response = server.ReadJson();
    ASSERT_TRUE(response.Find("ok") != nullptr);
    ASSERT_TRUE(response.Find("ok")->bool_value())
        << response.Find("error")->string_value();
    EXPECT_EQ(static_cast<size_t>(response.Find("id")->number()),
              begin / kPerRequest);
    const auto& ids = response.Find("ids")->array();
    const auto& scores = response.Find("scores")->array();
    ASSERT_EQ(ids.size(), kPerRequest);
    ASSERT_EQ(scores.size(), kPerRequest);
    for (size_t r = 0; r < kPerRequest; ++r) {
      const auto want = truth.Row(begin + r);
      const auto& row_ids = ids[r].array();
      const auto& row_scores = scores[r].array();
      ASSERT_EQ(row_ids.size(), kK);
      for (size_t t = 0; t < kK; ++t) {
        EXPECT_EQ(static_cast<int>(row_ids[t].number()), want[t].index);
        // %.17g serialization roundtrips the float-widened-to-double score
        // exactly, so the comparison is bit-level.
        EXPECT_EQ(row_scores[t].number(),
                  static_cast<double>(want[t].value));
      }
    }
  }

  writer.join();

  // Stats must report the session so far; shutdown ends it cleanly.
  server.Send("{\"op\":\"stats\",\"id\":\"s\"}");
  const json::Value stats = server.ReadJson();
  EXPECT_TRUE(stats.Find("ok")->bool_value());
  EXPECT_EQ(static_cast<size_t>(stats.Find("queries")->number()), kQueries);
  EXPECT_GT(stats.Find("qps")->number(), 0.0);
  EXPECT_GE(stats.Find("p95_ms")->number(), stats.Find("p50_ms")->number());
  server.Send("{\"op\":\"shutdown\"}");
  const json::Value bye = server.ReadJson();
  EXPECT_EQ(bye.Find("event")->string_value(), "bye");
  server.CloseInput();
  const int status = server.Wait();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // The emitted telemetry document passes the bench schema validator and
  // carries the serving metrics.
  const std::string validate =
      std::string(OPENEA_VALIDATE_BENCH_JSON) + " " + json_path;
  EXPECT_EQ(std::system(validate.c_str()), 0);
  json::Value doc;
  ASSERT_TRUE(json::ReadFile(json_path, &doc).ok());
  EXPECT_EQ(doc.Find("bench")->string_value(), "align_serve");
  const json::Value* gauges = doc.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  for (const char* key : {"serve/qps", "serve/p50_ms", "serve/p95_ms",
                          "serve/p99_ms"}) {
    ASSERT_NE(gauges->Find(key), nullptr) << key;
    EXPECT_GT(gauges->Find(key)->number(), 0.0) << key;
  }
  const json::Value* histograms = doc.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  ASSERT_NE(histograms->Find("serve/batch_size"), nullptr);
  const json::Value* counters = doc.Find("counters");
  EXPECT_EQ(counters->Find("serve/queries")->number(),
            static_cast<double>(kQueries));
  // Micro-batching must have coalesced the pipelined requests: strictly
  // fewer flushes than requests.
  EXPECT_LT(counters->Find("serve/batches")->number(),
            static_cast<double>(kQueries / kPerRequest));
}

TEST(ServeTest, MalformedRequestsAreStatusErrorsNotFatal) {
  const std::string dir = TempDir();
  const std::string ckpt = WriteCheckpoint(dir, 50, 8, 11);
  ServeProcess server({"--checkpoint=" + ckpt, "--source=exact", "--k=3"});
  server.ReadJson();  // hello

  const auto expect_error = [&](const std::string& request,
                                const std::string& needle) {
    server.Send(request);
    const json::Value response = server.ReadJson();
    ASSERT_TRUE(response.Find("ok") != nullptr) << request;
    EXPECT_FALSE(response.Find("ok")->bool_value()) << request;
    const std::string& error = response.Find("error")->string_value();
    EXPECT_NE(error.find(needle), std::string::npos)
        << request << " -> " << error;
  };
  expect_error("this is not json", "InvalidArgument");
  expect_error("[1,2,3]", "InvalidArgument");
  expect_error("{\"op\":\"topk\"}", "rows");
  expect_error("{\"op\":\"topk\",\"rows\":[[1,2]]}", "dim");
  expect_error("{\"op\":\"topk\",\"rows\":[[1,2,3,4,5,6,7,\"x\"]]}",
               "numbers");
  expect_error("{\"op\":\"topk\",\"k\":0,\"rows\":[[0,0,0,0,0,0,0,0]]}",
               "\"k\"");
  expect_error("{\"op\":\"frobnicate\"}", "unknown op");
  expect_error("{\"rows\":[[0,0,0,0,0,0,0,0]]}", "op");

  // The session survives all of it: a well-formed request still answers.
  server.Send("{\"op\":\"ping\",\"id\":7}");
  const json::Value pong = server.ReadJson();
  EXPECT_TRUE(pong.Find("ok")->bool_value());
  EXPECT_EQ(pong.Find("event")->string_value(), "pong");
  server.CloseInput();
  const int status = server.Wait();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeTest, FingerprintMismatchIsRejected) {
  const std::string dir = TempDir();
  const std::string ckpt = WriteCheckpoint(dir, 50, 8, 13);
  ServeProcess server({"--checkpoint=" + ckpt, "--source=exact", "--k=3"});
  const json::Value hello = server.ReadJson();
  const std::string fingerprint = hello.Find("fingerprint")->string_value();
  ASSERT_EQ(fingerprint.size(), 16u);

  // A client pinned to a different model revision must get
  // FailedPrecondition, not silently-wrong neighbours.
  server.Send(
      "{\"op\":\"topk\",\"id\":1,\"fingerprint\":\"0123456789abcdef\","
      "\"rows\":[[0,0,0,0,0,0,0,0]]}");
  const json::Value rejected = server.ReadJson();
  EXPECT_FALSE(rejected.Find("ok")->bool_value());
  EXPECT_NE(rejected.Find("error")->string_value().find("FailedPrecondition"),
            std::string::npos);
  EXPECT_NE(rejected.Find("error")->string_value().find(fingerprint),
            std::string::npos);

  // The correct fingerprint passes.
  server.Send("{\"op\":\"topk\",\"id\":2,\"fingerprint\":\"" + fingerprint +
              "\",\"rows\":[[0.5,0.1,0,0,0,0,0,0.2]]}");
  const json::Value accepted = server.ReadJson();
  EXPECT_TRUE(accepted.Find("ok")->bool_value());
  server.CloseInput();
  server.Wait();
}

TEST(ServeTest, AnnSourceServesAndReportsIndex) {
  const std::string dir = TempDir();
  const std::string ckpt = WriteCheckpoint(dir, 300, 16, 17);
  ServeProcess server({"--checkpoint=" + ckpt, "--source=ann_ivf",
                       "--nprobe=6", "--k=4"});
  const json::Value hello = server.ReadJson();
  EXPECT_EQ(hello.Find("source")->string_value(), "ann_ivf");

  Rng rng(5);
  math::Matrix queries(8, 16);
  queries.FillUniform(rng, 1.0f);
  server.Send("{\"op\":\"topk\",\"id\":0,\"rows\":" + RowsJson(queries, 0, 8) +
              "}");
  const json::Value response = server.ReadJson();
  ASSERT_TRUE(response.Find("ok")->bool_value());
  const auto& ids = response.Find("ids")->array();
  ASSERT_EQ(ids.size(), 8u);
  for (const auto& row : ids) {
    ASSERT_EQ(row.array().size(), 4u);
    EXPECT_GE(row.array()[0].number(), 0) << "empty top-1 from ANN index";
  }
  server.CloseInput();
  server.Wait();
}

TEST(ServeTest, ServesBenchCvCheckpointFoldModel) {
  // The offline-train -> online-serve loop end to end: a tiny checkpointed
  // cross-validation leaves a CV checkpoint behind, and align-serve serves
  // its fold-0 target embeddings directly.
  const std::string dir = TempDir();
  const auto dataset = core::BuildBenchmarkDataset(
      datagen::HeterogeneityProfile::EnFr(),
      core::ScalePreset{"tiny", 500, 250, 25.0}, false, 5);
  core::TrainConfig config;
  config.dim = 16;
  config.max_epochs = 2;
  config.seed = 7;
  config.threads = 1;
  core::CheckpointConfig ckpt;
  ckpt.directory = dir;
  core::RunCrossValidation("MTransE", dataset, config, /*num_folds=*/1, ckpt);

  std::string ckpt_path;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name.size() > 5 && name.rfind(".ckpt") == name.size() - 5) {
        ckpt_path = dir + "/" + name;
      }
    }
    ::closedir(d);
  }
  ASSERT_FALSE(ckpt_path.empty()) << "CV run left no checkpoint in " << dir;

  const auto fold = core::LoadCvFoldModel(ckpt_path);
  ASSERT_TRUE(fold.ok()) << fold.status().ToString();

  ServeProcess server({"--checkpoint=" + ckpt_path, "--source=exact",
                       "--k=3"});
  const json::Value hello = server.ReadJson();
  ASSERT_NE(hello.Find("event"), nullptr);
  EXPECT_EQ(hello.Find("event")->string_value(), "ready");
  // Default --table=1 serves the target-KG (emb2) side.
  EXPECT_EQ(static_cast<size_t>(hello.Find("targets")->number()),
            fold->emb2.rows());
  EXPECT_EQ(hello.Find("epoch")->number(), 0.0);

  // One lookup, bit-identical to a local exact source over emb2.
  align::CandidateSourceConfig exact_config;
  auto exact = align::CreateCandidateSourceOrDie(exact_config);
  math::Matrix targets = fold->emb2;
  ASSERT_TRUE(exact->Index(targets).ok());
  Rng rng(3);
  math::Matrix queries(2, fold->emb2.cols());
  queries.FillUniform(rng, 1.0f);
  const align::TopKResult truth = exact->TopK(queries, 3);

  server.Send("{\"op\":\"topk\",\"id\":0,\"rows\":" +
              RowsJson(queries, 0, 2) + "}");
  const json::Value response = server.ReadJson();
  ASSERT_TRUE(response.Find("ok")->bool_value())
      << response.Find("error")->string_value();
  const auto& ids = response.Find("ids")->array();
  const auto& scores = response.Find("scores")->array();
  for (size_t r = 0; r < 2; ++r) {
    const auto want = truth.Row(r);
    for (size_t t = 0; t < 3; ++t) {
      EXPECT_EQ(static_cast<int>(ids[r].array()[t].number()), want[t].index);
      EXPECT_EQ(scores[r].array()[t].number(),
                static_cast<double>(want[t].value));
    }
  }
  server.CloseInput();
  const int status = server.Wait();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeTest, DeadlineExceededIsExplicitStatusAndCounted) {
  const std::string dir = TempDir();
  const std::string ckpt = WriteCheckpoint(dir, 50, 8, 23);
  const std::string json_path = dir + "/BENCH_align_serve_deadline.json";
  // 100 nanoseconds: every request deterministically exceeds the deadline
  // by the time the batcher flushes it, so graceful degradation is exercised
  // on every response.
  ServeProcess server({"--checkpoint=" + ckpt, "--source=exact", "--k=3",
                       "--deadline-ms=0.0001", "--json=" + json_path});
  server.ReadJson();  // hello

  constexpr int kRequests = 3;
  for (int i = 0; i < kRequests; ++i) {
    server.Send("{\"op\":\"topk\",\"id\":" + std::to_string(i) +
                ",\"rows\":[[0.5,0.1,0,0,0,0,0,0.2]]}");
    const json::Value response = server.ReadJson();
    ASSERT_NE(response.Find("ok"), nullptr);
    EXPECT_FALSE(response.Find("ok")->bool_value());
    EXPECT_EQ(static_cast<int>(response.Find("id")->number()), i);
    const std::string& error = response.Find("error")->string_value();
    EXPECT_NE(error.find("DeadlineExceeded"), std::string::npos) << error;
    EXPECT_NE(error.find("deadline"), std::string::npos) << error;
    EXPECT_EQ(response.Find("ids"), nullptr)
        << "deadline-exceeded response must not carry partial results";
  }

  // Graceful degradation, not a crash: control ops still answer and the
  // session shuts down cleanly.
  server.Send("{\"op\":\"ping\",\"id\":7}");
  const json::Value pong = server.ReadJson();
  EXPECT_TRUE(pong.Find("ok")->bool_value());
  server.CloseInput();
  const int status = server.Wait();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  json::Value doc;
  ASSERT_TRUE(json::ReadFile(json_path, &doc).ok());
  const json::Value* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Find("serve/deadline_exceeded"), nullptr);
  EXPECT_EQ(counters->Find("serve/deadline_exceeded")->number(),
            static_cast<double>(kRequests));
  ASSERT_NE(counters->Find("serve/errors"), nullptr);
  EXPECT_GE(counters->Find("serve/errors")->number(),
            static_cast<double>(kRequests));
}

TEST(ServeTest, BadCheckpointOrConfigFailsStartup) {
  {
    ServeProcess server({"--checkpoint=/nonexistent/model.ckpt"});
    server.CloseInput();
    const int status = server.Wait();
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 1);
  }
  {
    const std::string dir = TempDir();
    const std::string ckpt = WriteCheckpoint(dir, 20, 8, 19);
    // Table index beyond the checkpoint's two tables.
    ServeProcess server({"--checkpoint=" + ckpt, "--table=5"});
    server.CloseInput();
    const int status = server.Wait();
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 1);
  }
}

/// The topk response as a DOM, compactly dumped: what AppendTopKResponse
/// must write byte for byte.
std::string DomTopKResponse(const json::Value& id,
                            const std::string& request_id,
                            const align::TopKResult& topk, size_t row_begin,
                            size_t rows, size_t k) {
  json::Value::Array ids, scores;
  for (size_t r = 0; r < rows; ++r) {
    const auto row = topk.Row(row_begin + r);
    json::Value::Array row_ids, row_scores;
    for (size_t t = 0; t < k; ++t) {
      row_ids.push_back(json::Value(row[t].index));
      row_scores.push_back(json::Value(
          row[t].index >= 0 ? static_cast<double>(row[t].value) : 0.0));
    }
    ids.push_back(json::Value(std::move(row_ids)));
    scores.push_back(json::Value(std::move(row_scores)));
  }
  json::Value::Object obj;
  obj["id"] = id;
  obj["ok"] = json::Value(true);
  obj["req"] = json::Value(request_id);
  obj["ids"] = json::Value(std::move(ids));
  obj["scores"] = json::Value(std::move(scores));
  return json::Value(std::move(obj)).Dump(/*indent=*/0);
}

TEST(TopKResponseTest, WriterMatchesDomDump) {
  // Three rows of k = 4: full rows with scores that need 17 digits, ties
  // and a -0 score, and a row padded with {-inf, -1}.
  align::TopKResult topk;
  topk.rows = 3;
  topk.k = 4;
  const float kNegInf = -std::numeric_limits<float>::infinity();
  topk.entries = {{0.70710677f, 3},  {0.5f, 0},     {0.5f, 9},
                  {-0.0f, 12},       {1e-30f, 100}, {-2.5f, 7},
                  {-3.4e38f, 8},     {-1e-45f, 1},  {0.125f, 4},
                  {kNegInf, -1},     {kNegInf, -1}, {kNegInf, -1}};
  json::Value::Object nested;
  nested["a"] = json::Value(json::Value::Array{1, 2.5});
  const json::Value ids[] = {json::Value(42), json::Value(-3.25),
                             json::Value(1e20),
                             json::Value("q\"uo\\te\n\x01 caf\xc3\xa9"),
                             json::Value(), json::Value(true),
                             json::Value(std::move(nested))};
  for (const json::Value& id : ids) {
    for (const auto& [row_begin, rows] :
         {std::pair<size_t, size_t>{0, 3}, {1, 2}, {2, 1}, {0, 0}}) {
      for (size_t k : {size_t{4}, size_t{2}, size_t{0}}) {
        std::string out = "prefix";
        AppendTopKResponse(id, "r-17", topk, row_begin, rows, k, out);
        EXPECT_EQ(out, "prefix" + DomTopKResponse(id, "r-17", topk, row_begin,
                                                  rows, k));
      }
    }
  }
}

TEST(TopKResponseTest, ServedLinesMatchDomDump) {
  // Six targets and k = 9 pad every row; the four requests carry a numeric
  // id, a string id that needs escaping, a null id and no id at all (which
  // the response echoes as null).
  const std::string dir = TempDir();
  const std::string ckpt = WriteCheckpoint(dir, 6, 8, 31);
  const auto state = checkpoint::LoadTrainState(ckpt);
  ASSERT_TRUE(state.ok());
  auto exact = align::CreateCandidateSourceOrDie(align::CandidateSourceConfig());
  ASSERT_TRUE(exact->Index(TableMatrix(state->tables[1])).ok());

  Rng rng(12);
  math::Matrix queries(5, 8);
  queries.FillUniform(rng, 1.0f);
  const align::TopKResult truth = exact->TopK(queries, 9);

  struct Request {
    std::string id_json;  // Empty: no "id" member.
    json::Value id;
    size_t row_begin, rows;
  };
  const std::vector<Request> requests = {
      {"7", json::Value(7), 0, 2},
      {"\"a\\\"b\\\\c\\n\\u0001\"", json::Value("a\"b\\c\n\x01"), 2, 1},
      {"null", json::Value(), 3, 1},
      {"", json::Value(), 4, 1}};
  ServeProcess server({"--checkpoint=" + ckpt, "--source=exact", "--k=9"});
  server.ReadLine();  // Hello.
  for (const Request& request : requests) {
    server.Send("{\"op\":\"topk\"," +
                (request.id_json.empty() ? std::string()
                                         : "\"id\":" + request.id_json + ",") +
                "\"rows\":" +
                RowsJson(queries, request.row_begin, request.rows) + "}");
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(server.ReadLine(),
              DomTopKResponse(requests[i].id, "r-" + std::to_string(i + 1),
                              truth, requests[i].row_begin, requests[i].rows,
                              9));
  }
  server.CloseInput();
  server.Wait();
}

TEST(ModelFingerprintTest, SensitiveToValuesAndShape) {
  Rng rng(1);
  checkpoint::TrainState state;
  state.tables.emplace_back(10, 4, math::InitScheme::kUniform, rng);
  const std::string base = ModelFingerprint(state);
  EXPECT_EQ(base.size(), 16u);
  EXPECT_EQ(base, ModelFingerprint(state));  // Deterministic.

  checkpoint::TrainState other = state;
  other.tables[0].MutableData()[0] += 1.0f;
  EXPECT_NE(base, ModelFingerprint(other));

  checkpoint::TrainState epoch_bump = state;
  epoch_bump.epoch = 9;
  EXPECT_NE(base, ModelFingerprint(epoch_bump));
}

}  // namespace
}  // namespace openea::serve
