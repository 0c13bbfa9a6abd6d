#ifndef OPENEA_BENCH_BENCH_COMMON_H_
#define OPENEA_BENCH_BENCH_COMMON_H_

// Shared helpers for the per-table/figure benchmark binaries. Each binary
// accepts the same flag set (hand-rolled flag loops are gone):
//   --scale=small|large   dataset scale preset (default small)
//   --folds=N             cross-validation folds to run (default varies)
//   --epochs=N            training epoch budget (default varies)
//   --seed=N              master seed (default 7)
//   --threads=N           compute-core worker threads (default 1; 0 = all
//                         hardware threads); results are bit-identical at
//                         any count
//   --approaches=csv      subset of registered approaches to run (default:
//                         the paper's 12; benches pinned to specific
//                         approaches ignore it)
//   --json=path           write BENCH_<name>.json telemetry (metrics, trace
//                         spans, config, seed, thread count) on Finish()
//   --trace=path          record an event-level timeline and write it as
//                         Chrome trace JSON (chrome://tracing / Perfetto)
//                         on Finish()
//   --checkpoint-dir=path write a crash-safe checkpoint after every
//                         cross-validation fold (DESIGN.md, "Fault
//                         tolerance")
//   --resume              with --checkpoint-dir: skip folds already
//                         completed by a previous (possibly killed) run
//   --shard-dir=path      out-of-core eval: stream each fold's candidate
//                         rows through a shard-banked table under this
//                         directory (DESIGN.md, "Out-of-core scale");
//                         bit-identical results, bank-bounded memory
//   --sizes=csv           entity counts for sweep-style benches (e.g.
//                         bench_scale_sweep --sizes=1000,15000,100000);
//                         benches without a sweep axis ignore it
//   --fault=point:n[:kill|fail][:repeat]
//                         arm the named fault point to fire on its n-th
//                         hit (deterministic fault injection; repeatable)
//   --metrics-interval=SEC  periodic telemetry flush + structured heartbeat
//                         log line (epoch/fold/rows-per-sec/RSS) every SEC
//                         seconds, for watching long runs live
//   --log-format=text|json  log line format (default text; json emits one
//                         machine-parseable object per line)
//   --help                print usage and exit
// Unknown flags are rejected with the usage text. Every binary prints the
// rows of its paper table/figure, finishes with a short "shape check" note
// restating the paper's qualitative claim, and ends with
// `return bench::Finish(args);` so --json telemetry reaches disk.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/common/fault.h"
#include "src/common/logging.h"
#include "src/common/metrics_export.h"
#include "src/common/parallel.h"
#include "src/common/strings.h"
#include "src/common/telemetry.h"
#include "src/common/trace.h"
#include "src/core/benchmark.h"
#include "src/core/registry.h"
#include "src/math/kernels.h"

namespace openea::bench {

struct BenchArgs {
  std::string bench_name;  // e.g. "running_time".
  core::ScalePreset scale = core::ScalePreset::Small();
  int folds = 2;
  int epochs = 200;
  uint64_t seed = 7;
  int threads = 1;
  std::string json_path;   // Empty = no JSON telemetry.
  std::string trace_path;  // Empty = no Chrome trace timeline.
  /// --checkpoint-dir, --resume and --shard-dir; every RunCrossValidation
  /// call passes it.
  core::CheckpointConfig checkpoint;
  /// Sweep axis for scale benches (--sizes=csv); empty = bench default.
  std::vector<size_t> sizes;
  /// Heartbeat/flush period of the live-metrics thread; <= 0 = off.
  double metrics_interval = 0.0;
  /// Approaches to iterate for "all approaches" benches.
  std::vector<std::string> approaches = core::ApproachNames();
};

inline void PrintUsage(const std::string& bench_name, int default_folds,
                       int default_epochs, std::FILE* out) {
  std::fprintf(
      out,
      "usage: bench_%s [flags]\n"
      "  --scale=small|large  dataset scale preset (default small)\n"
      "  --folds=N            cross-validation folds (default %d)\n"
      "  --epochs=N           training epoch budget (default %d)\n"
      "  --seed=N             master seed (default 7)\n"
      "  --threads=N          worker threads (default 1; 0 = all hardware)\n"
      "  --approaches=csv     approaches to run (default: the paper's 12)\n"
      "  --json=path          write BENCH_%s.json telemetry on exit\n"
      "  --trace=path         write a Chrome trace-event timeline on exit\n"
      "  --checkpoint-dir=path  crash-safe per-fold checkpoints\n"
      "  --resume             skip folds completed by a previous run\n"
      "  --shard-dir=path     out-of-core eval via shard-banked tables\n"
      "  --sizes=csv          entity counts for sweep benches\n"
      "  --fault=point:n[:kill|fail][:repeat]  arm a fault point\n"
      "  --metrics-interval=SEC  heartbeat log + telemetry flush every SEC\n"
      "  --log-format=text|json  log line format (default text)\n"
      "  --help               this text\n",
      bench_name.c_str(), default_folds, default_epochs, bench_name.c_str());
}

/// Parses the shared flag set, attaches the JSON telemetry sink when
/// requested, and records the run configuration in the telemetry context.
/// Exits with usage on --help (status 0) or any unknown/invalid flag
/// (status 2).
inline BenchArgs ParseArgs(const std::string& bench_name, int argc,
                           char** argv, int default_folds,
                           int default_epochs) {
  BenchArgs args;
  args.bench_name = bench_name;
  args.folds = default_folds;
  args.epochs = default_epochs;
  args.threads = Threads();  // OPENEA_THREADS default; --threads overrides.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(bench_name, default_folds, default_epochs, stdout);
      std::exit(0);
    } else if (arg == "--scale=large") {
      args.scale = core::ScalePreset::Large();
    } else if (arg == "--scale=small") {
      args.scale = core::ScalePreset::Small();
    } else if (StartsWith(arg, "--folds=")) {
      args.folds = std::atoi(arg.c_str() + 8);
    } else if (StartsWith(arg, "--epochs=")) {
      args.epochs = std::atoi(arg.c_str() + 9);
    } else if (StartsWith(arg, "--seed=")) {
      args.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (StartsWith(arg, "--threads=")) {
      args.threads = std::atoi(arg.c_str() + 10);
    } else if (StartsWith(arg, "--json=")) {
      args.json_path = arg.substr(7);
      if (args.json_path.empty()) {
        std::fprintf(stderr, "--json requires a path\n");
        std::exit(2);
      }
    } else if (StartsWith(arg, "--trace=")) {
      args.trace_path = arg.substr(8);
      if (args.trace_path.empty()) {
        std::fprintf(stderr, "--trace requires a path\n");
        std::exit(2);
      }
    } else if (StartsWith(arg, "--checkpoint-dir=")) {
      args.checkpoint.directory = arg.substr(17);
      if (args.checkpoint.directory.empty()) {
        std::fprintf(stderr, "--checkpoint-dir requires a path\n");
        std::exit(2);
      }
    } else if (arg == "--resume") {
      args.checkpoint.resume = true;
    } else if (StartsWith(arg, "--shard-dir=")) {
      args.checkpoint.shard_dir = arg.substr(12);
      if (args.checkpoint.shard_dir.empty()) {
        std::fprintf(stderr, "--shard-dir requires a path\n");
        std::exit(2);
      }
    } else if (StartsWith(arg, "--sizes=")) {
      args.sizes.clear();
      for (const std::string& tok : Split(arg.substr(8), ',')) {
        const unsigned long long v = std::strtoull(tok.c_str(), nullptr, 10);
        if (v == 0) {
          std::fprintf(stderr, "--sizes requires positive integers, got %s\n",
                       tok.c_str());
          std::exit(2);
        }
        args.sizes.push_back(static_cast<size_t>(v));
      }
      if (args.sizes.empty()) {
        std::fprintf(stderr, "--sizes requires at least one count\n");
        std::exit(2);
      }
    } else if (StartsWith(arg, "--fault=")) {
      const Status armed = fault::ArmFromFlag(arg.substr(8));
      if (!armed.ok()) {
        std::fprintf(stderr, "bad --fault: %s\n", armed.ToString().c_str());
        std::exit(2);
      }
    } else if (StartsWith(arg, "--metrics-interval=")) {
      args.metrics_interval = std::atof(arg.c_str() + 19);
    } else if (arg == "--log-format=text") {
      SetLogFormat(LogFormat::kText);
    } else if (arg == "--log-format=json") {
      SetLogFormat(LogFormat::kJson);
    } else if (StartsWith(arg, "--approaches=")) {
      args.approaches = Split(arg.substr(13), ',');
      const std::vector<std::string> registered =
          core::RegisteredApproachNames();
      for (const std::string& name : args.approaches) {
        if (std::find(registered.begin(), registered.end(), name) !=
            registered.end()) {
          continue;
        }
        std::fprintf(stderr, "unknown approach \"%s\"; valid: %s\n",
                     name.c_str(), Join(registered, ", ").c_str());
        std::exit(2);
      }
      if (args.approaches.empty()) {
        std::fprintf(stderr, "--approaches requires at least one name\n");
        std::exit(2);
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      PrintUsage(bench_name, default_folds, default_epochs, stderr);
      std::exit(2);
    }
  }
  SetThreads(args.threads);
  args.threads = Threads();  // Resolve 0 -> hardware thread count.

  if (args.checkpoint.resume && !args.checkpoint.enabled()) {
    std::fprintf(stderr, "--resume requires --checkpoint-dir\n");
    std::exit(2);
  }

  if (!args.trace_path.empty()) {
    trace::TraceConfig trace_config;
    trace_config.path = args.trace_path;
    trace::Start(trace_config);
  }
  if (!args.json_path.empty()) {
    telemetry::AttachSink(
        std::make_unique<telemetry::JsonSink>(args.json_path));
    json::Value::Object config;
    config.emplace("scale", args.scale.label);
    config.emplace("folds", args.folds);
    config.emplace("epochs", args.epochs);
    config.emplace("seed", args.seed);
    config.emplace("threads", args.threads);
    config.emplace("kernels", std::string(math::kernels::BackendName(
                                  math::kernels::ActiveBackend())));
    config.emplace("approaches", json::Value::Array(args.approaches.begin(),
                                                    args.approaches.end()));
    json::Value::Object context;
    context.emplace("bench", args.bench_name);
    context.emplace("config", std::move(config));
    telemetry::SetContext(json::Value(std::move(context)));
    // Numeric mirror of the config key (0 = scalar, 1 = avx2) so the
    // backend is attributable from the metrics block alone, and the lanes
    // of its decision kernels (16, 8 or 0), which tell the two avx2 bodies
    // apart.
    telemetry::SetGauge(
        "kernels/backend",
        static_cast<double>(math::kernels::ActiveBackend()));
    telemetry::SetGauge(
        "kernels/decision_lanes",
        static_cast<double>(math::kernels::DecisionLanes()));
  }
  // Live observability: the background RSS sampler feeds the windowed
  // mem/rss_mb series of every --json run; --metrics-interval additionally
  // emits heartbeat log lines and flushes the sink periodically. A
  // heartbeat without a JSON sink still needs the registry collecting.
  if (args.metrics_interval > 0) telemetry::SetCollection(true);
  if (!args.json_path.empty() || args.metrics_interval > 0) {
    telemetry::LiveMetricsConfig live;
    live.flush_interval_seconds = args.metrics_interval;
    telemetry::StartLiveMetrics(live);
  }
  return args;
}

/// Tracks whether BeginRun opened the root trace slice, so Finish can close
/// it before exporting the timeline.
inline bool& RunBegan() {
  static bool began = false;
  return began;
}

/// Opens the run in the observability layer: names the main thread in the
/// trace timeline and starts the root "bench_<name>" slice that every other
/// event nests under. Call once, right after ParseArgs.
inline void BeginRun(const BenchArgs& args) {
  if (trace::Enabled()) {
    trace::SetCurrentThreadName("main");
    trace::Begin("bench_" + args.bench_name);
    RunBegan() = true;
  }
}

/// Flushes telemetry to the --json sink and the event timeline to the
/// --trace file (each a no-op without its flag) and returns the process
/// exit code. Call as the last statement of main().
inline int Finish(const BenchArgs& args) {
  // Join the sampler before the final flush so the JSON document carries
  // the true sampled RSS peak and a complete mem/rss_mb window.
  telemetry::StopLiveMetrics();
  if (!args.json_path.empty()) {
    telemetry::Flush();
    std::fprintf(stderr, "telemetry: wrote %s\n", args.json_path.c_str());
  }
  if (!args.trace_path.empty()) {
    if (RunBegan()) trace::End();
    const Status exported = trace::StopAndExport();
    if (exported.ok()) {
      std::fprintf(stderr, "trace: wrote %s\n", args.trace_path.c_str());
    } else {
      std::fprintf(stderr, "trace export failed: %s\n",
                   exported.ToString().c_str());
    }
  }
  return 0;
}

inline core::TrainConfig MakeTrainConfig(const BenchArgs& args) {
  core::TrainConfig config;
  config.dim = 32;
  config.max_epochs = args.epochs;
  config.seed = args.seed;
  config.threads = args.threads;
  return config;
}

/// "0.507±0.010"-style cell.
inline std::string Cell(const eval::MeanStd& ms, int precision = 3) {
  return FormatDouble(ms.mean, precision) + "±" +
         FormatDouble(ms.std, precision);
}

}  // namespace openea::bench

#endif  // OPENEA_BENCH_BENCH_COMMON_H_
