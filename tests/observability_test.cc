// Live-observability suite (`ctest -L observability`), covering the PR's
// whole surface: sliding-window aggregation under a fake clock (rotation,
// expiry, rates), labeled metric names and their Prometheus escaping, the
// text-exposition renderer, concurrent recording (exercised under tsan by
// the sanitizer presets), and three forked end-to-end drivers — align-serve
// over TCP (stats op vs `metrics` op vs GET /metrics agreement),
// align-serve over pipes (request ids in responses, trace spans, and
// slow-request JSON logs), and a CV bench run with --metrics-interval
// emitting parseable heartbeat lines plus a validator-clean JSON document.

#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/checkpoint.h"
#include "src/common/json.h"
#include "src/common/metrics_export.h"
#include "src/common/rng.h"
#include "src/common/telemetry.h"
#include "src/common/trace.h"
#include "src/math/matrix.h"

namespace openea {
namespace {

// ---------------------------------------------------------------------------
// Windowed aggregation under a fake clock.
// ---------------------------------------------------------------------------

double g_fake_seconds = 0.0;
double FakeClock() { return g_fake_seconds; }

class WindowClockTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::SetCollectForTesting(true);
    telemetry::ResetForTesting();
    g_fake_seconds = 0.0;
    telemetry::SetWindowClockForTesting(&FakeClock);
  }
  void TearDown() override {
    telemetry::SetWindowClockForTesting(nullptr);
    telemetry::ResetForTesting();
    telemetry::SetCollectForTesting(false);
  }
};

TEST_F(WindowClockTest, BucketsRotateAndExpireDeterministically) {
  telemetry::WindowOptions options;
  options.bucket_seconds = 1.0;
  options.num_buckets = 3;
  options.bounds = {10.0, 20.0, 30.0};
  telemetry::DefineWindow("obs/w", options);

  g_fake_seconds = 0.5;
  telemetry::ObserveWindowed("obs/w", 5.0);
  g_fake_seconds = 1.5;
  telemetry::ObserveWindowed("obs/w", 15.0);

  {
    const auto snap = telemetry::SnapshotMetrics();
    const auto it = snap.windows.find("obs/w");
    ASSERT_NE(it, snap.windows.end());
    const telemetry::WindowSnapshot& w = it->second;
    EXPECT_EQ(w.histogram.count, 2u);
    EXPECT_DOUBLE_EQ(w.histogram.sum, 20.0);
    EXPECT_DOUBLE_EQ(w.histogram.min, 5.0);
    EXPECT_DOUBLE_EQ(w.histogram.max, 15.0);
    // Slots 0 and 1 are live: span = 2 buckets = 2 s.
    EXPECT_DOUBLE_EQ(w.window_seconds, 2.0);
    EXPECT_DOUBLE_EQ(w.rate_per_sec, 1.0);
    EXPECT_DOUBLE_EQ(w.value_rate_per_sec, 10.0);
  }

  // Slot 3 reuses the ring cell of slot 0: the 5.0 observation must be
  // recycled away, and slot 0 itself falls out of the live range.
  g_fake_seconds = 3.2;
  telemetry::ObserveWindowed("obs/w", 25.0);
  {
    const auto snap = telemetry::SnapshotMetrics();
    const telemetry::WindowSnapshot& w = snap.windows.at("obs/w");
    EXPECT_EQ(w.histogram.count, 2u);  // 15 and 25; 5 expired.
    EXPECT_DOUBLE_EQ(w.histogram.min, 15.0);
    EXPECT_DOUBLE_EQ(w.histogram.max, 25.0);
    // Earliest live slot is 1, now slot 3: span = 3 s.
    EXPECT_DOUBLE_EQ(w.window_seconds, 3.0);
    EXPECT_DOUBLE_EQ(w.rate_per_sec, 2.0 / 3.0);
    EXPECT_DOUBLE_EQ(w.value_rate_per_sec, 40.0 / 3.0);
  }

  // Far future: every bucket is stale; the window drains to zero...
  g_fake_seconds = 10.0;
  {
    const auto snap = telemetry::SnapshotMetrics();
    const telemetry::WindowSnapshot& w = snap.windows.at("obs/w");
    EXPECT_EQ(w.histogram.count, 0u);
    EXPECT_DOUBLE_EQ(w.window_seconds, 0.0);
    EXPECT_DOUBLE_EQ(w.rate_per_sec, 0.0);
    // ... while the cumulative histogram of the same name keeps all three.
    EXPECT_EQ(snap.histograms.at("obs/w").count, 3u);
    EXPECT_DOUBLE_EQ(snap.histograms.at("obs/w").sum, 45.0);
  }
}

TEST_F(WindowClockTest, WindowQuantilesUseMergedLiveBuckets) {
  telemetry::WindowOptions options;
  options.bucket_seconds = 1.0;
  options.num_buckets = 60;
  options.bounds = {1.0, 2.0, 4.0, 8.0};
  telemetry::DefineWindow("obs/q", options);
  g_fake_seconds = 100.0;
  for (int i = 0; i < 90; ++i) telemetry::ObserveWindowed("obs/q", 0.5);
  g_fake_seconds = 101.0;
  for (int i = 0; i < 10; ++i) telemetry::ObserveWindowed("obs/q", 6.0);
  const auto snap = telemetry::SnapshotMetrics();
  const telemetry::WindowSnapshot& w = snap.windows.at("obs/q");
  ASSERT_EQ(w.histogram.count, 100u);
  EXPECT_LE(w.histogram.P50(), 1.0);
  EXPECT_GT(w.histogram.P95(), 4.0);
}

// ---------------------------------------------------------------------------
// Labeled names: canonical encoding, escaping, round trip.
// ---------------------------------------------------------------------------

TEST(LabeledNameTest, EncodesCanonicalPrometheusForm) {
  EXPECT_EQ(telemetry::LabeledName("serve/ops", {{"op", "topk"}}),
            "serve/ops{op=\"topk\"}");
  EXPECT_EQ(telemetry::LabeledName("x", {{"a", "1"}, {"b", "2"}}),
            "x{a=\"1\",b=\"2\"}");
}

TEST(LabeledNameTest, EscapesQuotesBackslashesAndNewlines) {
  const std::string nasty = "a\"b\\c\nd";
  EXPECT_EQ(telemetry::EscapeLabelValue(nasty), "a\\\"b\\\\c\\nd");
  const std::string name = telemetry::LabeledName("m", {{"k", nasty}});
  EXPECT_EQ(name, "m{k=\"a\\\"b\\\\c\\nd\"}");
  // Parsing undoes the escaping exactly.
  const telemetry::MetricName parsed = telemetry::ParseMetricName(name);
  EXPECT_EQ(parsed.base, "m");
  ASSERT_EQ(parsed.labels.size(), 1u);
  EXPECT_EQ(parsed.labels[0].first, "k");
  EXPECT_EQ(parsed.labels[0].second, nasty);
}

TEST(LabeledNameTest, MalformedNamesFallBackToOpaqueBase) {
  for (const char* name :
       {"weird{unterminated", "x{no_equals}", "y{k=unquoted}", "z{k=\"v\"",
        "plain_name"}) {
    const telemetry::MetricName parsed = telemetry::ParseMetricName(name);
    EXPECT_EQ(parsed.base, name);
    EXPECT_TRUE(parsed.labels.empty());
  }
}

// ---------------------------------------------------------------------------
// Prometheus text exposition.
// ---------------------------------------------------------------------------

TEST(PrometheusTest, SanitizesMetricNames) {
  EXPECT_EQ(telemetry::SanitizeMetricName("serve/latency_ms"),
            "serve_latency_ms");
  EXPECT_EQ(telemetry::SanitizeMetricName("9lives"), "_9lives");
  EXPECT_EQ(telemetry::SanitizeMetricName(""), "_");
  EXPECT_EQ(telemetry::SanitizeMetricName("a-b.c"), "a_b_c");
}

TEST(PrometheusTest, RendersCountersGaugesHistogramsAndWindows) {
  telemetry::SetCollectForTesting(true);
  telemetry::ResetForTesting();
  telemetry::SetWindowClockForTesting(&FakeClock);
  g_fake_seconds = 50.0;

  telemetry::IncrCounter(telemetry::LabeledName("serve/ops", {{"op", "topk"}}),
                         3);
  telemetry::IncrCounter(telemetry::LabeledName("serve/ops", {{"op", "ping"}}));
  telemetry::SetGauge("mem/peak_rss_mb", 12.5);
  telemetry::DefineHistogram("lat/ms", {1.0, 2.0});
  telemetry::Observe("lat/ms", 0.5);
  telemetry::Observe("lat/ms", 1.5);
  telemetry::Observe("lat/ms", 5.0);
  telemetry::WindowOptions options;
  options.bounds = {1.0, 2.0};
  telemetry::DefineWindow("win/ms", options);
  telemetry::ObserveWindowed("win/ms", 1.5);

  const std::string text =
      telemetry::RenderPrometheus(telemetry::SnapshotMetrics());
  // Labeled counter samples share one TYPE declaration of the base.
  EXPECT_NE(text.find("# TYPE serve_ops counter\n"), std::string::npos);
  EXPECT_EQ(text.find("# TYPE serve_ops counter",
                      text.find("# TYPE serve_ops counter") + 1),
            std::string::npos);
  EXPECT_NE(text.find("serve_ops{op=\"topk\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("serve_ops{op=\"ping\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("mem_peak_rss_mb 12.5\n"), std::string::npos);
  // Histogram buckets are cumulative and end in +Inf, sum and count follow.
  EXPECT_NE(text.find("lat_ms_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_bucket{le=\"2\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_sum 7\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_count 3\n"), std::string::npos);
  // Windows render as *_window_* gauges.
  EXPECT_NE(text.find("win_ms_window_count 1\n"), std::string::npos);
  EXPECT_NE(text.find("win_ms_window_rate 1\n"), std::string::npos);
  EXPECT_NE(text.find("win_ms_window_seconds 1\n"), std::string::npos);

  telemetry::SetWindowClockForTesting(nullptr);
  telemetry::ResetForTesting();
  telemetry::SetCollectForTesting(false);
}

TEST(PrometheusTest, EscapedLabelValuesSurviveExposition) {
  telemetry::SetCollectForTesting(true);
  telemetry::ResetForTesting();
  telemetry::SetGauge(telemetry::LabeledName("g", {{"k", "a\"b\\c\nd"}}), 1.0);
  const std::string text =
      telemetry::RenderPrometheus(telemetry::SnapshotMetrics());
  EXPECT_NE(text.find("g{k=\"a\\\"b\\\\c\\nd\"} 1\n"), std::string::npos);
  telemetry::ResetForTesting();
  telemetry::SetCollectForTesting(false);
}

TEST(PrometheusTest, HttpResponseFramesTheExposition) {
  telemetry::SetCollectForTesting(true);
  telemetry::ResetForTesting();
  telemetry::IncrCounter("serve/requests", 7);
  const std::string response =
      telemetry::HttpMetricsResponse(telemetry::SnapshotMetrics());
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  const size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = response.substr(body_at + 4);
  const size_t len_at = response.find("Content-Length: ");
  ASSERT_NE(len_at, std::string::npos);
  EXPECT_EQ(static_cast<size_t>(
                std::atoi(response.c_str() + len_at + sizeof("Content-Length: ") - 1)),
            body.size());
  EXPECT_NE(body.find("serve_requests 7\n"), std::string::npos);
  telemetry::ResetForTesting();
  telemetry::SetCollectForTesting(false);
}

// ---------------------------------------------------------------------------
// Concurrent recording (the sanitizer presets run this under tsan).
// ---------------------------------------------------------------------------

TEST(ConcurrencyTest, WindowedAndLabeledRecordingIsThreadSafe) {
  telemetry::SetCollectForTesting(true);
  telemetry::ResetForTesting();
  constexpr int kThreads = 4, kPerThread = 500;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      const std::string op = (t % 2 == 0) ? "even" : "odd";
      for (int i = 0; i < kPerThread; ++i) {
        telemetry::ObserveWindowed("obs/conc", static_cast<double>(i % 10));
        telemetry::IncrCounter(
            telemetry::LabeledName("obs/ops", {{"op", op}}));
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto snap = telemetry::SnapshotMetrics();
  EXPECT_EQ(snap.histograms.at("obs/conc").count,
            static_cast<uint64_t>(kThreads * kPerThread));
  uint64_t labeled = 0;
  for (const auto& [name, value] : snap.counters) {
    if (telemetry::ParseMetricName(name).base == "obs/ops") labeled += value;
  }
  EXPECT_EQ(labeled, static_cast<uint64_t>(kThreads * kPerThread));
  telemetry::ResetForTesting();
  telemetry::SetCollectForTesting(false);
}

// ---------------------------------------------------------------------------
// Trace context propagation.
// ---------------------------------------------------------------------------

TEST(TraceContextTest, ScopedThreadContextRestoresOuterContext) {
  trace::SetThreadContext("");
  EXPECT_EQ(trace::ThreadContext(), "");
  {
    trace::ScopedThreadContext outer("req:r-1");
    EXPECT_EQ(trace::ThreadContext(), "req:r-1");
    {
      trace::ScopedThreadContext inner("fold:3");
      EXPECT_EQ(trace::ThreadContext(), "fold:3");
    }
    EXPECT_EQ(trace::ThreadContext(), "req:r-1");
  }
  EXPECT_EQ(trace::ThreadContext(), "");
  // Over-long contexts truncate at the event payload limit, no overflow.
  trace::SetThreadContext(std::string(100, 'x'));
  EXPECT_EQ(trace::ThreadContext().size(),
            trace::TraceEvent::kMaxContextLength);
  trace::SetThreadContext("");
}

// ---------------------------------------------------------------------------
// Forked end-to-end drivers.
// ---------------------------------------------------------------------------

std::string TempDir() {
  std::string tmpl = ::testing::TempDir() + "observability_test_XXXXXX";
  char* dir = ::mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return std::string(dir);
}

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

/// Forks `binary` with the given args; stdin/stdout ride on pipes and
/// stderr lands in `stderr_path` (empty = inherit).
class ChildProcess {
 public:
  ChildProcess(const char* binary, std::vector<std::string> args,
               const std::string& stderr_path = "") {
    int to_child[2], from_child[2];
    EXPECT_EQ(::pipe(to_child), 0);
    EXPECT_EQ(::pipe(from_child), 0);
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(to_child[0], STDIN_FILENO);
      ::dup2(from_child[1], STDOUT_FILENO);
      if (!stderr_path.empty()) {
        const int err =
            ::open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (err >= 0) ::dup2(err, STDERR_FILENO);
      }
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      std::vector<char*> argv;
      std::string bin = binary;
      argv.push_back(bin.data());
      for (auto& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      std::perror("execv");
      ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    in_fd_ = to_child[1];
    out_fd_ = from_child[0];
  }

  ~ChildProcess() {
    CloseInput();
    if (out_fd_ >= 0) ::close(out_fd_);
    if (pid_ > 0) ::waitpid(pid_, nullptr, 0);
  }

  void Send(const std::string& line) {
    const std::string framed = line + "\n";
    ASSERT_EQ(::write(in_fd_, framed.data(), framed.size()),
              static_cast<ssize_t>(framed.size()));
  }

  void CloseInput() {
    if (in_fd_ >= 0) ::close(in_fd_);
    in_fd_ = -1;
  }

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
      EXPECT_GT(n, 0) << "child closed the pipe mid-read";
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

/// A free loopback port: bind to 0, read back the assignment, release it.
int FreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

/// Connects to 127.0.0.1:port, retrying while the server starts up.
int ConnectWithRetry(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  for (int attempt = 0; attempt < 200; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd >= 0 &&
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    if (fd >= 0) ::close(fd);
    ::usleep(50 * 1000);
  }
  return -1;
}

/// Line-framed NDJSON client over a connected socket.
class SocketClient {
 public:
  explicit SocketClient(int fd) : fd_(fd) {}
  ~SocketClient() { Close(); }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void Send(const std::string& line) {
    const std::string framed = line + "\n";
    ASSERT_EQ(::write(fd_, framed.data(), framed.size()),
              static_cast<ssize_t>(framed.size()));
  }

  json::Value ReadJson() {
    for (;;) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        const std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        json::Value value;
        EXPECT_TRUE(json::Parse(line, &value).ok()) << "bad line: " << line;
        return value;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      EXPECT_GT(n, 0) << "server closed the socket mid-read";
      if (n <= 0) return json::Value();
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// The value of an unlabeled sample line `<name> <value>` in an exposition.
double PromValue(const std::string& text, const std::string& name) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::atof(line.c_str() + name.size() + 1);
    }
  }
  ADD_FAILURE() << "no sample " << name << " in exposition:\n" << text;
  return -1.0;
}

std::string OneRowRequest(int id, size_t dim, double fill) {
  std::string row = "[";
  for (size_t d = 0; d < dim; ++d) {
    if (d != 0) row += ",";
    row += std::to_string(fill + static_cast<double>(d) * 0.1);
  }
  row += "]";
  return "{\"op\":\"topk\",\"id\":" + std::to_string(id) + ",\"rows\":[" +
         row + "]}";
}

TEST(ObservabilityServeTest, MetricsOpAndHttpScrapeAgreeWithStats) {
  const std::string dir = TempDir();
  const std::string ckpt = WriteCheckpoint(dir, 100, 8, 21);
  const int port = FreePort();

  const pid_t pid = ::fork();
  if (pid == 0) {
    std::string bin = OPENEA_ALIGN_SERVE;
    std::string a1 = "--checkpoint=" + ckpt;
    std::string a2 = "--source=exact";
    std::string a3 = "--k=3";
    std::string a4 = "--listen=" + std::to_string(port);
    char* argv[] = {bin.data(), a1.data(), a2.data(), a3.data(), a4.data(),
                    nullptr};
    ::execv(argv[0], argv);
    ::_exit(127);
  }
  ASSERT_GT(pid, 0);

  double stats_p95 = -1.0, stats_count = -1.0;
  {
    const int fd = ConnectWithRetry(port);
    ASSERT_GE(fd, 0) << "could not connect to align-serve";
    SocketClient client(fd);
    const json::Value hello = client.ReadJson();
    ASSERT_NE(hello.Find("event"), nullptr);
    EXPECT_EQ(hello.Find("event")->string_value(), "ready");

    // Five singleton requests, each answered with its server request id.
    for (int i = 0; i < 5; ++i) {
      client.Send(OneRowRequest(i, 8, 0.1 * (i + 1)));
      const json::Value response = client.ReadJson();
      ASSERT_NE(response.Find("ok"), nullptr);
      ASSERT_TRUE(response.Find("ok")->bool_value());
      ASSERT_NE(response.Find("req"), nullptr);
      EXPECT_EQ(response.Find("req")->string_value(),
                "r-" + std::to_string(i + 1));
    }

    client.Send("{\"op\":\"stats\",\"id\":\"s\"}");
    const json::Value stats = client.ReadJson();
    ASSERT_TRUE(stats.Find("ok")->bool_value());
    const json::Value* window = stats.Find("window");
    ASSERT_NE(window, nullptr);
    for (const char* key : {"seconds", "qps", "requests_per_sec", "count",
                            "p50_ms", "p95_ms", "p99_ms"}) {
      ASSERT_NE(window->Find(key), nullptr) << key;
      EXPECT_TRUE(window->Find(key)->is_number()) << key;
    }
    stats_count = window->Find("count")->number();
    stats_p95 = window->Find("p95_ms")->number();
    EXPECT_EQ(stats_count, 5.0);
    EXPECT_GT(window->Find("requests_per_sec")->number(), 0.0);
    EXPECT_GT(window->Find("qps")->number(), 0.0);
    EXPECT_GE(window->Find("p95_ms")->number(),
              window->Find("p50_ms")->number());

    // The metrics op renders the same registry as Prometheus text.
    client.Send("{\"op\":\"metrics\",\"id\":\"m\"}");
    const json::Value metrics = client.ReadJson();
    ASSERT_TRUE(metrics.Find("ok")->bool_value());
    EXPECT_EQ(metrics.Find("format")->string_value(), "prometheus");
    const std::string& text = metrics.Find("text")->string_value();
    EXPECT_NE(text.find("# TYPE serve_ops counter"), std::string::npos);
    EXPECT_NE(text.find("serve_ops{op=\"topk\"} 5\n"), std::string::npos);
    EXPECT_NEAR(PromValue(text, "serve_latency_ms_window_p95"), stats_p95,
                1e-9);
    EXPECT_EQ(PromValue(text, "serve_latency_ms_window_count"), stats_count);
    client.Close();  // EOF: the server re-accepts.
  }

  // A raw HTTP connection on the same port gets the exposition.
  {
    const int fd = ConnectWithRetry(port);
    ASSERT_GE(fd, 0);
    const std::string request =
        "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n";
    ASSERT_EQ(::write(fd, request.data(), request.size()),
              static_cast<ssize_t>(request.size()));
    std::string response;
    char chunk[4096];
    ssize_t n;
    while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
      response.append(chunk, static_cast<size_t>(n));
    }
    ::close(fd);
    EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
    const size_t body_at = response.find("\r\n\r\n");
    ASSERT_NE(body_at, std::string::npos);
    const std::string body = response.substr(body_at + 4);
    EXPECT_NE(body.find("# TYPE serve_ops counter"), std::string::npos);
    // No latency observations happened since the stats call, so the
    // windowed quantile is identical across all three surfaces.
    EXPECT_NEAR(PromValue(body, "serve_latency_ms_window_p95"), stats_p95,
                1e-9);
    EXPECT_EQ(PromValue(body, "serve_latency_ms_window_count"), stats_count);
  }

  // An unknown path is a 404, and the server keeps serving afterwards.
  {
    const int fd = ConnectWithRetry(port);
    ASSERT_GE(fd, 0);
    const std::string request = "GET /nope HTTP/1.1\r\n\r\n";
    ASSERT_EQ(::write(fd, request.data(), request.size()),
              static_cast<ssize_t>(request.size()));
    std::string response;
    char chunk[1024];
    ssize_t n;
    while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
      response.append(chunk, static_cast<size_t>(n));
    }
    ::close(fd);
    EXPECT_EQ(response.rfind("HTTP/1.1 404", 0), 0u);
  }

  // A final NDJSON session shuts the accept loop down.
  {
    const int fd = ConnectWithRetry(port);
    ASSERT_GE(fd, 0);
    SocketClient client(fd);
    client.ReadJson();  // hello
    client.Send("{\"op\":\"shutdown\"}");
    const json::Value bye = client.ReadJson();
    EXPECT_EQ(bye.Find("event")->string_value(), "bye");
  }
  int status = -1;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ObservabilityServeTest, RequestIdsThreadThroughTraceAndSlowLogs) {
  const std::string dir = TempDir();
  const std::string ckpt = WriteCheckpoint(dir, 60, 8, 23);
  const std::string trace_path = dir + "/trace.json";
  const std::string stderr_path = dir + "/server.log";

  std::set<std::string> req_ids;
  {
    // A sub-microsecond slow threshold makes every request "slow", so each
    // one must produce a structured warning line.
    ChildProcess server(OPENEA_ALIGN_SERVE,
                        {"--checkpoint=" + ckpt, "--source=exact", "--k=2",
                         "--trace=" + trace_path, "--log-format=json",
                         "--slow-ms=0.000001"},
                        stderr_path);
    server.ReadJson();  // hello
    for (int i = 0; i < 3; ++i) {
      server.Send(OneRowRequest(i, 8, 0.2 * (i + 1)));
      const json::Value response = server.ReadJson();
      ASSERT_TRUE(response.Find("ok")->bool_value());
      ASSERT_NE(response.Find("req"), nullptr);
      req_ids.insert(response.Find("req")->string_value());
    }
    EXPECT_EQ(req_ids.size(), 3u);
    server.Send("{\"op\":\"shutdown\"}");
    server.ReadJson();  // bye
    server.CloseInput();
    const int status = server.Wait();
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  // Every topk response's request id appears as args.ctx of a
  // serve_request span in the exported timeline.
  json::Value trace_doc;
  ASSERT_TRUE(json::ReadFile(trace_path, &trace_doc).ok());
  const json::Value* events = trace_doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<std::string> span_ctx;
  for (const json::Value& event : events->array()) {
    const json::Value* name = event.Find("name");
    const json::Value* ph = event.Find("ph");
    if (name == nullptr || ph == nullptr) continue;
    if (name->string_value() != "serve_request" ||
        ph->string_value() != "B") {
      continue;
    }
    const json::Value* args = event.Find("args");
    ASSERT_NE(args, nullptr) << "serve_request span without args";
    const json::Value* ctx = args->Find("ctx");
    ASSERT_NE(ctx, nullptr) << "serve_request span without ctx";
    span_ctx.insert(ctx->string_value());
  }
  std::set<std::string> want_ctx;
  for (const std::string& id : req_ids) want_ctx.insert("req:" + id);
  EXPECT_EQ(span_ctx, want_ctx);

  // The slow-request log lines parse as JSON and carry the same ids.
  std::ifstream log(stderr_path);
  ASSERT_TRUE(log.good());
  std::set<std::string> slow_ids;
  std::string line;
  while (std::getline(log, line)) {
    if (line.empty() || line[0] != '{') continue;
    json::Value entry;
    ASSERT_TRUE(json::Parse(line, &entry).ok()) << "bad log line: " << line;
    const json::Value* msg = entry.Find("msg");
    if (msg == nullptr || msg->string_value() != "slow request") continue;
    EXPECT_EQ(entry.Find("level")->string_value(), "warning");
    EXPECT_FALSE(entry.Find("src")->string_value().empty());
    const json::Value* fields = entry.Find("fields");
    ASSERT_NE(fields, nullptr);
    ASSERT_NE(fields->Find("req"), nullptr);
    EXPECT_TRUE(fields->Find("ms")->is_number());
    EXPECT_TRUE(fields->Find("rows")->is_number());
    slow_ids.insert(fields->Find("req")->string_value());
  }
  EXPECT_EQ(slow_ids, req_ids);
}

TEST(ObservabilityBenchTest, HeartbeatLinesAndWindowedJsonFromCvRun) {
  const std::string dir = TempDir();
  const std::string json_path = dir + "/BENCH_main_results.json";
  const std::string stderr_path = dir + "/bench.log";

  {
    ChildProcess bench(OPENEA_BENCH_MAIN_RESULTS,
                       {"--scale=small", "--folds=1", "--epochs=2", "--seed=7",
                        "--threads=2", "--approaches=MTransE",
                        "--json=" + json_path, "--metrics-interval=1",
                        "--log-format=json"},
                       stderr_path);
    bench.CloseInput();
    const int status = bench.Wait();
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);
  }

  // Heartbeats: one immediately at start and one at stop are guaranteed,
  // each a parseable JSON object with the progress fields.
  std::ifstream log(stderr_path);
  ASSERT_TRUE(log.good());
  int heartbeats = 0;
  std::string line;
  while (std::getline(log, line)) {
    if (line.empty() || line[0] != '{') continue;
    json::Value entry;
    ASSERT_TRUE(json::Parse(line, &entry).ok()) << "bad log line: " << line;
    const json::Value* msg = entry.Find("msg");
    if (msg == nullptr || msg->string_value() != "heartbeat") continue;
    ++heartbeats;
    EXPECT_EQ(entry.Find("level")->string_value(), "info");
    const json::Value* fields = entry.Find("fields");
    ASSERT_NE(fields, nullptr);
    ASSERT_NE(fields->Find("uptime_s"), nullptr);
    EXPECT_GE(fields->Find("uptime_s")->number(), 0.0);
    ASSERT_NE(fields->Find("rss_mb"), nullptr);
    EXPECT_GT(fields->Find("rss_mb")->number(), 0.0);
  }
  EXPECT_GE(heartbeats, 2);

  // The emitted document still passes the schema validator (which now also
  // checks the windows section) and carries the live-metrics series.
  const std::string validate =
      std::string(OPENEA_VALIDATE_BENCH_JSON) + " " + json_path;
  EXPECT_EQ(std::system(validate.c_str()), 0);
  json::Value doc;
  ASSERT_TRUE(json::ReadFile(json_path, &doc).ok());
  const json::Value* windows = doc.Find("windows");
  ASSERT_NE(windows, nullptr);
  EXPECT_NE(windows->Find("mem/rss_mb"), nullptr);
  const json::Value* gauges = doc.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(gauges->Find("heartbeat/epoch"), nullptr);
  EXPECT_GT(gauges->Find("heartbeat/epoch")->number(), 0.0);
  ASSERT_NE(gauges->Find("heartbeat/fold"), nullptr);
  ASSERT_NE(gauges->Find("mem/sampled_peak_rss_mb"), nullptr);
  EXPECT_GT(gauges->Find("mem/sampled_peak_rss_mb")->number(), 0.0);
  // The kernel backend and its decision lanes (16, 8 or 0).
  ASSERT_NE(gauges->Find("kernels/backend"), nullptr);
  const json::Value* lanes = gauges->Find("kernels/decision_lanes");
  ASSERT_NE(lanes, nullptr);
  EXPECT_TRUE(lanes->number() == 0 || lanes->number() == 8 ||
              lanes->number() == 16)
      << lanes->number();
}

}  // namespace
}  // namespace openea
