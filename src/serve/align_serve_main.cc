// align-serve: online alignment lookup server over a trained checkpoint.
// See src/serve/server.h for the wire protocol and README.md for a session
// example. Default transport is stdin/stdout; --listen=PORT accepts TCP
// connections on 127.0.0.1 sequentially until a shutdown op. Connections
// whose first bytes look like an HTTP request line are answered as
// `GET /metrics` scrapes (Prometheus text exposition) instead of NDJSON.

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "src/common/logging.h"
#include "src/common/metrics_export.h"
#include "src/common/parallel.h"
#include "src/common/strings.h"
#include "src/common/telemetry.h"
#include "src/common/trace.h"
#include "src/math/kernels.h"
#include "src/serve/server.h"

namespace openea::serve {
namespace {

void PrintUsage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: align-serve --checkpoint=path [flags]\n"
      "  --checkpoint=path    checkpoint to serve (required): a TrainState or\n"
      "                       a bench --checkpoint-dir CV checkpoint\n"
      "  --table=N            checkpoint table holding the targets "
      "(default 1)\n"
      "  --source=exact|lsh|ann_ivf  candidate index (default ann_ivf)\n"
      "  --metric=cosine|euclidean|manhattan|inner  (default cosine)\n"
      "  --k=N                default top-k per query row (default 10)\n"
      "  --lists=N            IVF inverted lists (default 0 = "
      "ceil(sqrt(N)))\n"
      "  --nprobe=N           IVF lists probed per query (default 8)\n"
      "  --lsh-bits=N         LSH signature bits (default 8)\n"
      "  --lsh-tables=N       LSH hash tables (default 4)\n"
      "  --seed=N             index seed (default 7)\n"
      "  --batch=N            micro-batch flush threshold (default 64)\n"
      "  --threads=N          worker threads (default 1; 0 = all "
      "hardware)\n"
      "  --listen=PORT        accept TCP connections on 127.0.0.1:PORT\n"
      "                       (sequentially, until a shutdown op) instead of\n"
      "                       stdin/stdout; HTTP connections get GET /metrics\n"
      "  --slow-ms=N          log requests slower than N ms (default 100;\n"
      "                       0 disables)\n"
      "  --deadline-ms=N      answer requests older than N ms with an\n"
      "                       explicit deadline_exceeded error instead of a\n"
      "                       late payload (default 0 = no deadline)\n"
      "  --metrics-interval=SEC  periodic telemetry flush + heartbeat log\n"
      "                       every SEC seconds (default off)\n"
      "  --log-format=text|json  log line format (default text)\n"
      "  --json=path          write BENCH_align_serve.json telemetry on "
      "exit\n"
      "  --trace=path         write a Chrome trace-event timeline on exit\n"
      "  --help               this text\n");
}

int Run(int argc, char** argv) {
  ServeConfig config;
  config.source.kind = align::CandidateSourceKind::kAnnIvf;
  int threads = Threads();
  int listen_port = -1;
  std::string json_path, trace_path;
  double metrics_interval = 0.0;
  uint64_t seed = 7;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 0;
    } else if (StartsWith(arg, "--checkpoint=")) {
      config.checkpoint_path = arg.substr(13);
    } else if (StartsWith(arg, "--table=")) {
      config.table = static_cast<size_t>(std::atoi(arg.c_str() + 8));
    } else if (arg == "--source=exact") {
      config.source.kind = align::CandidateSourceKind::kExact;
    } else if (arg == "--source=lsh") {
      config.source.kind = align::CandidateSourceKind::kLsh;
    } else if (arg == "--source=ann_ivf") {
      config.source.kind = align::CandidateSourceKind::kAnnIvf;
    } else if (arg == "--metric=cosine") {
      config.source.metric = align::DistanceMetric::kCosine;
    } else if (arg == "--metric=euclidean") {
      config.source.metric = align::DistanceMetric::kEuclidean;
    } else if (arg == "--metric=manhattan") {
      config.source.metric = align::DistanceMetric::kManhattan;
    } else if (arg == "--metric=inner") {
      config.source.metric = align::DistanceMetric::kInner;
    } else if (StartsWith(arg, "--k=")) {
      config.default_k = static_cast<size_t>(std::atoi(arg.c_str() + 4));
    } else if (StartsWith(arg, "--lists=")) {
      config.source.ivf_lists =
          static_cast<size_t>(std::atoi(arg.c_str() + 8));
    } else if (StartsWith(arg, "--nprobe=")) {
      config.source.ivf_nprobe =
          static_cast<size_t>(std::atoi(arg.c_str() + 9));
    } else if (StartsWith(arg, "--lsh-bits=")) {
      config.source.lsh_bits = std::atoi(arg.c_str() + 11);
    } else if (StartsWith(arg, "--lsh-tables=")) {
      config.source.lsh_tables = std::atoi(arg.c_str() + 13);
    } else if (StartsWith(arg, "--seed=")) {
      seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (StartsWith(arg, "--batch=")) {
      config.max_batch = static_cast<size_t>(std::atoi(arg.c_str() + 8));
    } else if (StartsWith(arg, "--threads=")) {
      threads = std::atoi(arg.c_str() + 10);
    } else if (StartsWith(arg, "--listen=")) {
      listen_port = std::atoi(arg.c_str() + 9);
    } else if (StartsWith(arg, "--slow-ms=")) {
      config.slow_request_ms = std::atof(arg.c_str() + 10);
    } else if (StartsWith(arg, "--deadline-ms=")) {
      config.deadline_ms = std::atof(arg.c_str() + 14);
    } else if (StartsWith(arg, "--metrics-interval=")) {
      metrics_interval = std::atof(arg.c_str() + 19);
    } else if (arg == "--log-format=text") {
      SetLogFormat(LogFormat::kText);
    } else if (arg == "--log-format=json") {
      SetLogFormat(LogFormat::kJson);
    } else if (StartsWith(arg, "--json=")) {
      json_path = arg.substr(7);
    } else if (StartsWith(arg, "--trace=")) {
      trace_path = arg.substr(8);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      PrintUsage(stderr);
      return 2;
    }
  }
  if (config.checkpoint_path.empty()) {
    std::fprintf(stderr, "--checkpoint is required\n");
    PrintUsage(stderr);
    return 2;
  }
  config.source.seed = seed;
  SetThreads(threads);
  threads = Threads();
  // A client dropping its connection mid-response must surface as a write
  // error in the session, not kill the whole accept loop.
  std::signal(SIGPIPE, SIG_IGN);

  if (!trace_path.empty()) {
    trace::TraceConfig trace_config;
    trace_config.path = trace_path;
    trace::Start(trace_config);
    trace::SetCurrentThreadName("main");
  }
  if (!json_path.empty()) {
    telemetry::AttachSink(std::make_unique<telemetry::JsonSink>(json_path));
    // Same context shape as the benches, so validate_bench_json accepts
    // BENCH_align_serve.json unchanged.
    json::Value::Object run_config;
    run_config.emplace("scale", "serve");
    run_config.emplace("folds", 1);
    run_config.emplace("epochs", 0);
    run_config.emplace("seed", seed);
    run_config.emplace("threads", threads);
    run_config.emplace("kernels", std::string(math::kernels::BackendName(
                                      math::kernels::ActiveBackend())));
    run_config.emplace("approaches", json::Value::Array{});
    json::Value::Object context;
    context.emplace("bench", "align_serve");
    context.emplace("config", std::move(run_config));
    telemetry::SetContext(json::Value(std::move(context)));
  }
  // A server's metrics must exist whether or not a JSON sink is attached:
  // the stats/metrics ops and GET /metrics read the live registry. The
  // decision kernels' lanes (16, 8 or 0) say which avx2 body the run
  // config's `kernels` key stands for, as in the benches.
  telemetry::SetCollection(true);
  telemetry::SetGauge("kernels/decision_lanes",
                      static_cast<double>(math::kernels::DecisionLanes()));
  telemetry::LiveMetricsConfig live;
  live.flush_interval_seconds = metrics_interval;
  telemetry::StartLiveMetrics(live);

  StatusOr<std::unique_ptr<AlignServer>> server = AlignServer::Create(config);
  if (!server.ok()) {
    std::fprintf(stderr, "align-serve: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }

  const std::string hello = (*server)->Hello().Dump(/*indent=*/0) + "\n";
  uint64_t answered = 0;
  if (listen_port < 0) {
    // stdin/stdout transport: one session, EOF or shutdown ends it.
    if (::write(STDOUT_FILENO, hello.data(), hello.size()) < 0) {
      std::fprintf(stderr, "align-serve: hello write failed\n");
      return 1;
    }
    StatusOr<AlignServer::SessionStats> session =
        (*server)->Serve(STDIN_FILENO, STDOUT_FILENO);
    if (!session.ok()) {
      std::fprintf(stderr, "align-serve: %s\n",
                   session.status().ToString().c_str());
      return 1;
    }
    answered = session->answered;
  } else {
    const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) {
      std::fprintf(stderr, "align-serve: socket: %s\n", std::strerror(errno));
      return 1;
    }
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(listen_port));
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
            0 ||
        ::listen(listen_fd, 4) < 0) {
      std::fprintf(stderr, "align-serve: bind/listen: %s\n",
                   std::strerror(errno));
      return 1;
    }
    std::fprintf(stderr, "align-serve: listening on 127.0.0.1:%d\n",
                 listen_port);
    // Sequential accept loop: NDJSON sessions end on EOF (loop re-accepts)
    // or a shutdown op (loop exits); HTTP-looking connections — detected by
    // peeking the first bytes without consuming them — are answered as
    // GET /metrics scrapes.
    bool shutdown = false;
    while (!shutdown) {
      const int conn_fd = ::accept(listen_fd, nullptr, nullptr);
      if (conn_fd < 0) {
        if (errno == EINTR) continue;
        std::fprintf(stderr, "align-serve: accept: %s\n",
                     std::strerror(errno));
        return 1;
      }
      // Protocol sniff without consuming bytes: HTTP clients write their
      // request line immediately after connecting, while NDJSON clients
      // wait for the hello — so a short readability deadline separates the
      // two. A connection that sends nothing within it is treated as NDJSON
      // (the hello goes out and the session proceeds normally).
      pollfd sniff{conn_fd, POLLIN, 0};
      int ready;
      do {
        ready = ::poll(&sniff, 1, /*timeout_ms=*/250);
      } while (ready < 0 && errno == EINTR);
      bool is_http = false;
      if (ready > 0 && (sniff.revents & POLLIN) != 0) {
        char peek[4] = {0};
        ssize_t peeked;
        do {
          peeked = ::recv(conn_fd, peek, sizeof(peek), MSG_PEEK);
        } while (peeked < 0 && errno == EINTR);
        is_http = peeked == static_cast<ssize_t>(sizeof(peek)) &&
                  std::memcmp(peek, "GET ", 4) == 0;
      }
      if (is_http) {
        const Status handled = HandleHttpClient(conn_fd);
        if (!handled.ok()) {
          std::fprintf(stderr, "align-serve: http: %s\n",
                       handled.ToString().c_str());
        }
        ::close(conn_fd);
        continue;
      }
      if (::write(conn_fd, hello.data(), hello.size()) < 0) {
        std::fprintf(stderr, "align-serve: hello write failed\n");
        ::close(conn_fd);
        continue;
      }
      StatusOr<AlignServer::SessionStats> session =
          (*server)->Serve(conn_fd, conn_fd);
      ::close(conn_fd);
      if (!session.ok()) {
        std::fprintf(stderr, "align-serve: %s\n",
                     session.status().ToString().c_str());
        continue;
      }
      answered += session->answered;
      shutdown = session->shutdown;
    }
    ::close(listen_fd);
  }
  std::fprintf(stderr, "align-serve: session done, %llu queries answered\n",
               static_cast<unsigned long long>(answered));

  telemetry::StopLiveMetrics();
  if (!json_path.empty()) {
    telemetry::Flush();
    std::fprintf(stderr, "telemetry: wrote %s\n", json_path.c_str());
  }
  if (!trace_path.empty()) {
    const Status exported = trace::StopAndExport();
    if (!exported.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n",
                   exported.ToString().c_str());
    }
  }
  return 0;
}

}  // namespace
}  // namespace openea::serve

int main(int argc, char** argv) { return openea::serve::Run(argc, argv); }
