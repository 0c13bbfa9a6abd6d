// Performance-ledger benchmark program (ledger/README.md). Runs one
// workload of the ledger benchmark in-process at one compute thread and
// writes the raw measurements — every repetition's duration, each served
// query's fastest latency, the reference probe's time before every
// repetition, exact quality values, work counts and the output checks — as
// one JSON document. ledger/run.py turns them into the reported metrics
// with the estimators in ledger/estimators.py.
//
//   ledger_bench --workload=study_3k|rank_15k|serve_100k --seed=N
//                --seconds=S --trace=0|1 --work=DIR --out=FILE
//
// Every input is generated from --seed; the library only ever sees the
// generated inputs. Untraced work keeps telemetry collection as each entry
// point ships it (off for library calls, on for the align-serve server).
// With --trace=1 every repetition is followed by a traced copy that records
// a "ledger/<call>" trace span around each public call and reads telemetry
// counts after it, so the tracing overhead is measured inside the same run.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/align/candidate_source.h"
#include "src/align/topk.h"
#include "src/common/json.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/common/telemetry.h"
#include "src/common/trace.h"
#include "src/core/benchmark.h"
#include "src/core/registry.h"
#include "src/datagen/kg_pair.h"
#include "src/eval/folds.h"
#include "src/eval/metrics.h"
#include "src/math/kernels.h"
#include "src/math/sharded_table.h"
#include "src/sampling/samplers.h"
#include "src/serve/server.h"

namespace {

using namespace openea;

// ---- Workload sizes (README.md, "Workloads") --------------------------------

// study_3k: the paper's protocol end to end at N = 3K.
constexpr size_t kStudyEntities = 3000;
constexpr size_t kStudySourceEntities = kStudyEntities * 12 / 5;  // 2.4 N.
constexpr double kStudyIdsMu = 0.08 * kStudyEntities;
constexpr int kStudyEpochs = 20;
constexpr const char* kStudyApproach = "MultiKE";
constexpr double kStudyHits1Floor = 0.30;  // Chance is 1 / 2100.
// IDS runs per chain: it takes a sixth of the chain, so it gets more
// repetitions for a steady median.
constexpr int kIdsPerChain = 2;
// Triple caps that make the work the same for every seed: the EN-FR
// profile drops a seed-dependent share of KG2's triples, and IDS keeps a
// seed-dependent share of the rest. Each cap sits just below the smallest
// count seen over seeds 1-12, so it nearly always binds.
struct TripleCaps {
  size_t relation;
  size_t attribute;
};
constexpr TripleCaps kSourceCaps1 = {15800, 15900};
constexpr TripleCaps kSourceCaps2 = {9300, 10500};
constexpr TripleCaps kSampleCaps1 = {7550, 7250};
constexpr TripleCaps kSampleCaps2 = {5050, 4750};

// rank_15k: ranking evaluation at the paper's 15K protocol (70% test).
constexpr size_t kRankPairs = 10500;
constexpr size_t kDim = 32;
constexpr float kRankNoise = 1.3f;

// serve_100k: align-serve over 100K clustered rows.
constexpr size_t kServeRows = 100000;
constexpr size_t kServeClusters = 400;
constexpr float kServeClusterSpread = 0.5f;
constexpr float kServeQueryNoise = 0.7f;
constexpr size_t kServeQueries = 2000;
constexpr size_t kServeK = 10;
constexpr double kServeRecallFloor = 0.90;

// Set-ups per run; setup_s is their median. The serve set-up (IVF k-means
// over 100K rows) takes seconds, the others a tenth of one. The count is
// fixed, not set by time, so every run does the same work before its
// repetitions.
constexpr int kSetups = 9;
constexpr int kSetupsServe = 3;

// Reference probe: passes over a block of rows.
constexpr size_t kProbeRows = 12288;  // 1.5 MiB of rows of kDim floats.
constexpr int kProbePasses = 3;
// Probe rounds per set-up, per repetition of a second or more (study_3k,
// rank_15k) and per serve_100k repetition (a fraction of a second), so
// each run takes enough probe samples for a steady median.
constexpr int kProbeRoundsSetup = 4;
constexpr int kProbeRoundsLong = 8;
constexpr int kProbeRoundsShort = 1;

// ---- Arguments --------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      args->workload = v;
    } else if (const char* v = value("--seed=")) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      args->seconds = std::atof(v);
    } else if (const char* v = value("--trace=")) {
      args->trace = std::atoi(v) != 0;
    } else if (const char* v = value("--work=")) {
      args->work_dir = v;
    } else if (const char* v = value("--out=")) {
      args->out = v;
    } else {
      std::fprintf(stderr, "ledger_bench: unknown flag %s\n", arg.c_str());
      return false;
    }
  }
  return !args->workload.empty() && !args->work_dir.empty() &&
         !args->out.empty() && args->seconds > 0;
}

// ---- Hashing and checks ----------------------------------------------------

struct Fnv {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void Vec(const std::vector<T>& v) {
    const uint64_t n = v.size();
    Bytes(&n, sizeof(n));
    Bytes(v.data(), v.size() * sizeof(T));
  }
  void Matrix(const math::Matrix& m) {
    const uint64_t shape[2] = {m.rows(), m.cols()};
    Bytes(shape, sizeof(shape));
    Bytes(m.Data().data(), m.Data().size() * sizeof(float));
  }
};

uint64_t HashPair(const datagen::DatasetPair& pair) {
  Fnv f;
  for (const kg::KnowledgeGraph* g : {&pair.kg1, &pair.kg2}) {
    const uint64_t entities = g->NumEntities();
    f.Bytes(&entities, sizeof(entities));
    f.Vec(g->triples());
    f.Vec(g->attribute_triples());
  }
  f.Vec(pair.reference);
  return f.h;
}

uint64_t HashModel(const core::AlignmentModel& model) {
  Fnv f;
  f.Matrix(model.emb1);
  f.Matrix(model.emb2);
  return f.h;
}

uint64_t HashMetrics(const eval::RankingMetrics& m) {
  Fnv f;
  const double v[4] = {m.hits1, m.hits5, m.mr, m.mrr};
  f.Bytes(v, sizeof(v));
  return f.h;
}

/// Operations attempted and failed, plus the first few failure messages.
/// Every repetition, fold, request and direct query is one operation; an
/// output that differs from its reference fails the operation.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) Fail(what);
  }
  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
  /// Records `hash` as the reference on first use; later calls must match.
  void Same(uint64_t* reference, uint64_t hash, const std::string& what) {
    if (*reference == 0) *reference = hash;
    Op(*reference == hash, what + " differs from the first repetition");
  }
};

// ---- Timing and tracing -----------------------------------------------------

/// Runs `fn` under a "ledger/<name>" trace span when tracing is on and
/// returns its steady-clock duration in seconds.
template <typename F>
double Timed(const char* name, F&& fn) {
  const bool traced = trace::Enabled();
  if (traced) trace::Begin(std::string("ledger/") + name);
  Stopwatch watch;
  fn();
  const double seconds = watch.ElapsedSeconds();
  if (traced) trace::End();
  return seconds;
}

/// Durations (seconds) of the completed outermost "ledger/" spans per name,
/// plus, under "<name>/<inner>", the time each such span spent in library
/// spans named <inner> at any depth below it (one entry per outer span).
using SpanTimes = std::map<std::string, std::vector<double>>;

// ---- Result document --------------------------------------------------------

/// Raw measurements of one run. Durations are seconds, latencies
/// microseconds; ledger/run.py applies the estimators. Traced runs add
/// samples "span/<name>" from the top-level "ledger/" spans.
struct Result {
  json::Value::Object record;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;
  Ledger ledger;
  // Traced runs only: top-level span durations and the traced wall time
  // they leave unexplained.
  SpanTimes spans;
  double unattributed_s = 0.0;
  double traced_wall_s = 0.0;
};

/// One traced section: starts a trace session with telemetry collection on,
/// and on Finish() drains the events into per-span durations plus the
/// section's wall time not covered by a top-level ledger span.
class TracedSection {
 public:
  explicit TracedSection(bool keep_collection) : keep_(keep_collection) {
    telemetry::SetCollection(true);
    trace::TraceConfig config;
    config.events_per_thread = 1 << 18;
    trace::Start(config);
    watch_.Reset();
  }

  void Finish(Result* r) {
    const double section = watch_.ElapsedSeconds();
    trace::Stop();
    if (!keep_) telemetry::SetCollection(false);
    uint64_t dropped = 0;
    const std::vector<trace::TraceEvent> events = trace::DrainEvents(&dropped);
    r->ledger.Op(dropped == 0, "trace ring overflow: " +
                                 std::to_string(dropped) + " events dropped");
    struct Open {
      std::vector<const trace::TraceEvent*> stack;
      std::map<std::string, double> inner;  // Of the open top-level span.
    };
    std::map<uint32_t, Open> open;
    double covered = 0.0;
    for (const trace::TraceEvent& e : events) {
      Open& thread = open[e.tid];
      if (e.kind == trace::EventKind::kBegin) {
        thread.stack.push_back(&e);
        continue;
      }
      if (e.kind != trace::EventKind::kEnd || thread.stack.empty()) continue;
      const trace::TraceEvent* begin = thread.stack.back();
      thread.stack.pop_back();
      const double seconds = (e.ts_us - begin->ts_us) * 1e-6;
      const std::string name(begin->name_view());
      const bool top = thread.stack.empty();
      const bool in_ledger =
          !top && thread.stack.front()->name_view().substr(0, 7) == "ledger/";
      if (in_ledger) thread.inner[name] += seconds;
      if (top && name.compare(0, 7, "ledger/") == 0) {
        const std::string outer = name.substr(7);
        r->spans[outer].push_back(seconds);
        for (const auto& [inner, total] : thread.inner) {
          r->spans[outer + "/" + inner].push_back(total);
        }
        thread.inner.clear();
        covered += seconds;
      }
    }
    r->unattributed_s += section - covered;
    r->traced_wall_s += section;
  }

 private:
  bool keep_;
  Stopwatch watch_;
};

uint64_t Counter(const telemetry::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

/// Sum of every counter whose name starts with `prefix` and ends in
/// `suffix` (e.g. the per-kind train/<kind>_epochs counters).
uint64_t CounterSum(const telemetry::MetricsSnapshot& s,
                    const std::string& prefix, const std::string& suffix) {
  uint64_t total = 0;
  for (const auto& [name, value] : s.counters) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += value;
    }
  }
  return total;
}

void WriteList(FILE* f, const std::vector<double>& v) {
  std::fputc('[', f);
  for (size_t i = 0; i < v.size(); ++i) {
    std::fprintf(f, i ? ",%.17g" : "%.17g", v[i]);
  }
  std::fputc(']', f);
}

bool WriteResult(const std::string& path, const Result& r) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"record\":%s,\n\"samples\":{",
               json::Value(r.record).Dump(0).c_str());
  const char* sep = "";
  for (const auto& [name, v] : r.samples) {
    std::fprintf(f, "%s\"%s\":", sep, name.c_str());
    WriteList(f, v);
    sep = ",\n";
  }
  std::fputs("},\n\"values\":{", f);
  sep = "";
  for (const auto& [name, v] : r.values) {
    std::fprintf(f, "%s\"%s\":%.17g", sep, name.c_str(), v);
    sep = ",";
  }
  json::Value::Array errors;
  for (const std::string& e : r.ledger.errors) errors.push_back(e);
  std::fprintf(f, "},\n\"attempted\":%llu,\"failed\":%llu,\"errors\":%s}\n",
               static_cast<unsigned long long>(r.ledger.attempted),
               static_cast<unsigned long long>(r.ledger.failed),
               json::Value(errors).Dump(0).c_str());
  return std::fclose(f) == 0;
}

/// Peak resident set of the process so far (VmHWM), MiB, less the
/// file-backed pages still mapped (RssFile): the binary and its libraries,
/// whose resident share follows the host's page cache rather than the
/// program (the same run read 26.4 or 30.2 MiB with the total alone).
/// Falls back to getrusage's peak where /proc is not available.
double PeakRssMb() {
  double peak_kb = -1.0, file_kb = 0.0;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      double kb = 0.0;
      if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) peak_kb = kb;
      if (std::sscanf(line, "RssFile: %lf kB", &kb) == 1) file_kb = kb;
    }
    std::fclose(f);
  }
  if (peak_kb < 0) {
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
    peak_kb = static_cast<double>(usage.ru_maxrss);
  }
  return (peak_kb - file_kb) / 1024.0;
}

/// CPU brand string from CPUID ("unknown" off x86).
std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {0};
  for (unsigned int i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[sizeof(regs) + 1] = {0};
  std::memcpy(brand, regs, sizeof(regs));
  std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

/// Keeps running `body` until `seconds` have passed and at least
/// `min_reps` repetitions completed; returns the repetition count.
int RepeatFor(double seconds, int min_reps, const std::function<void()>& body) {
  Stopwatch watch;
  int reps = 0;
  while (reps < min_reps || watch.ElapsedSeconds() < seconds) {
    body();
    ++reps;
  }
  return reps;
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

void PinThread(pthread_t thread, int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(thread, sizeof(set), &set);
}

// ---- Reference probe --------------------------------------------------------

/// Fixed work that belongs to the benchmark, not to the library: float
/// dot products of one query with the rows of a 1.5-MiB block, built from
/// a fixed seed. The block fits the 2-MiB L2 of the machine the benchmark
/// was tuned on only while other tenants leave the core's caches alone.
class ReferenceProbe {
 public:
  ReferenceProbe() : rows_(kProbeRows * kDim) {
    Rng rng(0x9B0BE);
    for (float& v : query_) v = static_cast<float>(rng.NextGaussian());
    for (float& v : rows_) v = static_cast<float>(rng.NextGaussian());
  }

  /// Bytes of the probe's buffer, left out of the reported peak RSS.
  size_t bytes() const { return rows_.size() * sizeof(float); }

  /// Runs the probe once; returns its duration in seconds.
  double Run() {
    Stopwatch watch;
    float best = -1e30f;
    for (int pass = 0; pass < kProbePasses; ++pass) {
      for (size_t row = 0; row < kProbeRows; ++row) {
        const float* v = &rows_[row * kDim];
        float dot = 0.0f;
        for (size_t d = 0; d < kDim; ++d) dot += v[d] * query_[d];
        best = std::max(best, dot);
      }
    }
    sink_ = sink_ + best;
    return watch.ElapsedSeconds();
  }

 private:
  float query_[kDim];
  std::vector<float> rows_;
  volatile float sink_ = 0.0f;
};

/// Runs `rounds` rounds of the probe on every CPU the process may use and
/// pins the calling thread to the CPU of the fastest probe; appends each
/// round's fastest probe time to samples `key` and returns the CPU (-1
/// when the mask is unknown). Every set-up and timed repetition starts
/// with this: on a shared host other tenants slow single cores for seconds
/// to minutes while the others run at full speed (README.md, "Noise").
int PinCalmestCpu(ReferenceProbe& probe, int rounds, const char* key,
                  Result* r) {
  static const std::vector<int> cpus = AllowedCpus();
  int calmest = -1;
  double fastest = 1e300;
  for (int round = 0; round < rounds; ++round) {
    double round_fastest = 1e300;
    for (const int cpu : cpus) {
      PinThread(pthread_self(), cpu);
      const double seconds = probe.Run();
      round_fastest = std::min(round_fastest, seconds);
      if (seconds < fastest) {
        fastest = seconds;
        calmest = cpu;
      }
    }
    if (cpus.empty()) round_fastest = probe.Run();
    r->samples[key].push_back(round_fastest);
  }
  PinThread(pthread_self(), calmest);
  return calmest;
}

// ---- study_3k ---------------------------------------------------------------

datagen::DatasetPair GenerateStudySource(uint64_t seed) {
  datagen::SyntheticKgConfig config;
  config.num_entities = kStudySourceEntities;
  config.avg_degree = 5.8;
  config.num_relations = 30;
  config.num_attributes = 18;
  config.vocabulary_size = 400;
  config.seed = seed;
  return datagen::GenerateDatasetPair(config,
                                      datagen::HeterogeneityProfile::EnFr(),
                                      seed);
}

/// Positions of at most `cap` of `n` items, a seeded random subset kept in
/// its original order.
std::vector<size_t> KeptPositions(size_t n, size_t cap, Rng& rng) {
  std::vector<size_t> positions(n);
  for (size_t i = 0; i < n; ++i) positions[i] = i;
  if (n <= cap) return positions;
  for (size_t i = 0; i < cap; ++i) {
    std::swap(positions[i], positions[i + rng.NextBounded(n - i)]);
  }
  positions.resize(cap);
  std::sort(positions.begin(), positions.end());
  return positions;
}

/// `g` with the same vocabularies and descriptions but at most `caps`
/// relation and attribute triples, a seeded random subset of each.
kg::KnowledgeGraph TrimGraph(const kg::KnowledgeGraph& g, TripleCaps caps,
                             Rng& rng) {
  kg::KnowledgeGraph out;
  for (const std::string& name : g.entities().names()) {
    const kg::EntityId e = out.AddEntity(name);
    out.SetDescription(e, g.Description(e));
  }
  for (const std::string& name : g.relations().names()) out.AddRelation(name);
  for (const std::string& name : g.attributes().names()) {
    out.AddAttribute(name);
  }
  for (const std::string& name : g.literals().names()) out.AddLiteral(name);
  for (size_t i : KeptPositions(g.NumTriples(), caps.relation, rng)) {
    out.AddTriple(g.triples()[i]);
  }
  for (size_t i : KeptPositions(g.NumAttributeTriples(), caps.attribute, rng)) {
    out.AddAttributeTriple(g.attribute_triples()[i]);
  }
  out.BuildIndex();
  return out;
}

/// Caps the triples of both graphs of `pair`; the alignments stay as they
/// are.
void TrimPair(datagen::DatasetPair* pair, TripleCaps caps1, TripleCaps caps2,
              uint64_t seed) {
  Rng rng(seed);
  pair->kg1 = TrimGraph(pair->kg1, caps1, rng);
  pair->kg2 = TrimGraph(pair->kg2, caps2, rng);
}

core::TrainConfig StudyConfig() {
  core::TrainConfig config;
  config.dim = kDim;
  config.max_epochs = kStudyEpochs;
  config.threads = 1;
  return config;
}

void RunStudy(const Args& args, ReferenceProbe& probe, Result* r) {
  Ledger& ledger = r->ledger;
  datagen::DatasetPair source;
  uint64_t source_hash = 0;
  r->record["setup_reps"] = RepeatFor(0.0, kSetups, [&] {
    PinCalmestCpu(probe, kProbeRoundsSetup, "probe_setup", r);
    std::unique_ptr<TracedSection> section;
    if (args.trace) section = std::make_unique<TracedSection>(false);
    r->samples["setup"].push_back(
        Timed("datagen", [&] { source = GenerateStudySource(args.seed); }));
    if (section) section->Finish(r);
    TrimPair(&source, kSourceCaps1, kSourceCaps2, args.seed ^ 0x7219);
    ledger.Same(&source_hash, HashPair(source), "generated source pair");
  });

  sampling::IdsOptions ids;
  ids.target_size = kStudyEntities;
  ids.mu = kStudyIdsMu;
  ids.seed = args.seed ^ 0x1D5;
  // One IDS attempt: whether the JS-divergence retry loop runs again
  // depends on the seed, which would make the work per seed differ by up
  // to 3x (README.md, "Workloads").
  ids.max_retries = 1;
  const core::TrainConfig config = StudyConfig();
  const size_t source_entities =
      source.kg1.NumEntities() + source.kg2.NumEntities();

  uint64_t dataset_hash = 0, model_hash = 0, metrics_hash = 0;
  core::BenchmarkDataset dataset;
  dataset.name = "EN-FR-3K (V1)";
  eval::RankingMetrics metrics;
  // IDS (kIdsPerChain times) -> RunCrossValidation, checked against the
  // first repetition; the durations go to samples "ids" / "cv" when
  // `record` is set.
  auto chain = [&](bool record) {
    for (int i = 0; i < kIdsPerChain; ++i) {
      const double ids_s = Timed("ids", [&] {
        dataset.pair = sampling::IterativeDegreeSampling(source, ids);
      });
      if (record) r->samples["ids"].push_back(ids_s);
      dataset.pair.name = "EN-FR";
      TrimPair(&dataset.pair, kSampleCaps1, kSampleCaps2, args.seed ^ 0x5A3);
      ledger.Same(&dataset_hash, HashPair(dataset.pair), "IDS sample");
    }
    core::CrossValidationResult cv;
    const double cv_s = Timed("cv", [&] {
      cv = core::RunCrossValidation(kStudyApproach, dataset, config, 1,
                                    core::CheckpointConfig());
    });
    if (record) r->samples["cv"].push_back(cv_s);
    for (const core::FoldHealth& h : cv.fold_health) {
      ledger.Op(!h.degraded && h.retries == 0,
                "fold " + std::to_string(h.fold) + " degraded or retried");
    }
    ledger.Same(&model_hash, HashModel(cv.first_fold_model),
                "trained embeddings");
    metrics = {cv.hits1.mean, cv.hits5.mean, cv.mr.mean, cv.mrr.mean};
    ledger.Same(&metrics_hash, HashMetrics(metrics), "CV metrics");
    return std::make_pair(cv_s, cv);
  };

  // Each repetition runs the untraced chain; traced runs follow it with a
  // traced chain that also runs the CV steps directly — MakeFolds ->
  // CreateApproach -> Train -> EvaluateRanking — to split training from
  // evaluation, and check that the split reproduces the CV bit for bit.
  double fastest_cv = 1e300;
  r->record["repetitions"] = RepeatFor(args.seconds, 2, [&] {
    PinCalmestCpu(probe, kProbeRoundsLong, "probe", r);
    chain(true);
    if (!args.trace) return;
    TracedSection section(false);
    const auto [cv_s, cv] = chain(false);
    // The fold split RunCrossValidation makes (same arguments).
    std::vector<eval::FoldSplit> folds;
    Timed("folds", [&] {
      folds = eval::MakeFolds(dataset.pair.reference, 5, 0.1,
                              config.seed ^ 0xF01D);
    });
    const core::AlignmentTask task = core::MakeTask(dataset.pair, folds[0]);
    core::AlignmentModel model;
    const auto before_train = telemetry::SnapshotMetrics();
    Timed("train", [&] {
      auto approach = core::CreateApproachOrDie(kStudyApproach, config);
      model = approach->Train(task);
    });
    const auto after_train = telemetry::SnapshotMetrics();
    eval::RankingMetrics direct;
    Timed("eval", [&] {
      direct = eval::EvaluateRanking(model, task.test,
                                     align::DistanceMetric::kCosine);
    });
    const auto after_eval = telemetry::SnapshotMetrics();
    section.Finish(r);
    ledger.Op(HashModel(model) == model_hash,
              "direct Train differs from the CV fold's embeddings");
    ledger.Op(HashMetrics(direct) == metrics_hash,
              "direct EvaluateRanking differs from the CV metrics");
    r->values["positives"] = static_cast<double>(
        Counter(after_train, "train/positives") -
        Counter(before_train, "train/positives"));
    r->values["epochs"] = static_cast<double>(
        CounterSum(after_train, "train/", "_epochs") -
        CounterSum(before_train, "train/", "_epochs"));
    r->values["cells"] = static_cast<double>(
        Counter(after_eval, "eval/candidates") -
        Counter(after_train, "eval/candidates"));
    if (cv_s < fastest_cv) {
      // CV time outside its own train/eval phases: fold split, health
      // guard, bookkeeping — taken from the fastest traced CV repetition.
      fastest_cv = cv_s;
      double phases = 0.0;
      for (const core::PhaseSeconds& p : cv.phase_seconds) {
        if (p.phase == "train" || p.phase == "eval") {
          phases += p.total_seconds;
        }
      }
      r->values["cv_other_s"] = cv_s - phases;
    }
  });
  r->record["sample_triples"] = static_cast<int64_t>(
      dataset.pair.kg1.NumTriples() + dataset.pair.kg2.NumTriples() +
      dataset.pair.kg1.NumAttributeTriples() +
      dataset.pair.kg2.NumAttributeTriples());
  r->values["hits1"] = metrics.hits1;
  r->values["mrr"] = metrics.mrr;
  r->values["ids_removed"] = static_cast<double>(
      source_entities - dataset.pair.kg1.NumEntities() -
      dataset.pair.kg2.NumEntities());
  ledger.Op(metrics.hits1 >= kStudyHits1Floor,
            "study Hits@1 " + std::to_string(metrics.hits1) +
                " below the floor");
}

// ---- rank_15k ---------------------------------------------------------------

/// Planted alignment: target rows are Gaussian, each source row is its
/// counterpart plus Gaussian noise, and the pairs are a seeded permutation.
struct PlantedRanking {
  core::AlignmentModel model;
  kg::Alignment test;
};

PlantedRanking GeneratePlanted(uint64_t seed) {
  Rng rng(seed ^ 0x7A11C);
  PlantedRanking out;
  out.model.emb1 = math::Matrix(kRankPairs, kDim);
  out.model.emb2 = math::Matrix(kRankPairs, kDim);
  for (float& v : out.model.emb2.Data()) {
    v = static_cast<float>(rng.NextGaussian());
  }
  std::vector<kg::EntityId> rights(kRankPairs);
  for (size_t i = 0; i < kRankPairs; ++i) {
    rights[i] = static_cast<kg::EntityId>(i);
  }
  for (size_t i = kRankPairs - 1; i > 0; --i) {
    std::swap(rights[i], rights[rng.NextBounded(i + 1)]);
  }
  out.test.resize(kRankPairs);
  for (size_t i = 0; i < kRankPairs; ++i) {
    out.test[i] = {static_cast<kg::EntityId>(i), rights[i]};
    const auto target = out.model.emb2.Row(static_cast<size_t>(rights[i]));
    auto row = out.model.emb1.Row(i);
    for (size_t d = 0; d < kDim; ++d) {
      row[d] = target[d] + kRankNoise * static_cast<float>(rng.NextGaussian());
    }
  }
  return out;
}

void RunRank(const Args& args, ReferenceProbe& probe, Result* r) {
  Ledger& ledger = r->ledger;
  PlantedRanking input;
  uint64_t input_hash = 0;
  r->record["setup_reps"] = RepeatFor(0.0, kSetups, [&] {
    PinCalmestCpu(probe, kProbeRoundsSetup, "probe_setup", r);
    std::unique_ptr<TracedSection> section;
    if (args.trace) section = std::make_unique<TracedSection>(false);
    r->samples["setup"].push_back(
        Timed("planted", [&] { input = GeneratePlanted(args.seed); }));
    if (section) section->Finish(r);
    ledger.Same(&input_hash, HashModel(input.model), "planted embeddings");
  });
  const std::string shard_path = args.work_dir + "/rank_targets.shard";
  const align::DistanceMetric metric = align::DistanceMetric::kCosine;
  uint64_t metrics_hash = 0;
  eval::RankingMetrics metrics;

  // Each call's duration goes to samples "rank" / "rank_ooc" when `record`
  // is set.
  auto rank = [&](bool record) {
    const double seconds = Timed("rank", [&] {
      metrics = eval::EvaluateRanking(input.model, input.test, metric);
    });
    if (record) r->samples["rank"].push_back(seconds);
    ledger.Same(&metrics_hash, HashMetrics(metrics), "EvaluateRanking");
  };
  auto rank_ooc = [&](bool record) {
    eval::RankingMetrics ooc;
    const double seconds = Timed("rank_ooc", [&] {
      ooc = eval::EvaluateRankingSharded(input.model, input.test, metric,
                                         shard_path);
    });
    if (record) r->samples["rank_ooc"].push_back(seconds);
    ledger.Op(HashMetrics(ooc) == metrics_hash,
              "EvaluateRankingSharded differs from EvaluateRanking");
  };

  // Each repetition runs both paths untraced; traced runs follow them with
  // a traced pair whose library spans (streaming_topk, sharded_topk,
  // similarity) split each path into scan, shard I/O and reduction.
  r->record["repetitions"] = RepeatFor(args.seconds, 2, [&] {
    PinCalmestCpu(probe, kProbeRoundsLong, "probe", r);
    rank(true);
    rank_ooc(true);
    if (!args.trace) return;
    TracedSection section(false);
    const auto before = telemetry::SnapshotMetrics();
    rank(false);
    const auto after_rank = telemetry::SnapshotMetrics();
    rank_ooc(false);
    const auto after_ooc = telemetry::SnapshotMetrics();
    section.Finish(r);
    r->values["cells"] = static_cast<double>(
        Counter(after_rank, "eval/candidates") -
        Counter(before, "eval/candidates"));
    r->values["bank_maps"] = static_cast<double>(
        Counter(after_ooc, "shard/bank_maps") -
        Counter(after_rank, "shard/bank_maps"));
    r->values["crc_checks"] = static_cast<double>(
        Counter(after_ooc, "shard/crc_checks") -
        Counter(after_rank, "shard/crc_checks"));
  });
  r->values["hits1"] = metrics.hits1;
  r->values["mrr"] = metrics.mrr;
  ledger.Op(metrics.hits1 > 0.05 && metrics.hits1 < 0.95,
            "rank Hits@1 " + std::to_string(metrics.hits1) +
                " outside the informative range");
}

// ---- serve_100k -------------------------------------------------------------

/// Clustered target rows plus queries that are noisy copies of seeded
/// target rows (the planted counterpart of query q is truth[q]).
struct ServeInputs {
  math::Matrix targets;
  math::Matrix queries;
  std::vector<int> truth;
};

ServeInputs GenerateServeInputs(uint64_t seed) {
  Rng rng(seed ^ 0x5E27E);
  math::Matrix centers(kServeClusters, kDim);
  for (float& v : centers.Data()) v = static_cast<float>(rng.NextGaussian());
  ServeInputs in;
  in.targets = math::Matrix(kServeRows, kDim);
  for (size_t i = 0; i < kServeRows; ++i) {
    const auto center = centers.Row(rng.NextBounded(kServeClusters));
    auto row = in.targets.Row(i);
    for (size_t d = 0; d < kDim; ++d) {
      row[d] = center[d] +
               kServeClusterSpread * static_cast<float>(rng.NextGaussian());
    }
  }
  in.queries = math::Matrix(kServeQueries, kDim);
  for (size_t q = 0; q < kServeQueries; ++q) {
    const int t = static_cast<int>(rng.NextBounded(kServeRows));
    in.truth.push_back(t);
    const auto target = in.targets.Row(static_cast<size_t>(t));
    auto row = in.queries.Row(q);
    for (size_t d = 0; d < kDim; ++d) {
      row[d] = target[d] +
               kServeQueryNoise * static_cast<float>(rng.NextGaussian());
    }
  }
  return in;
}

bool WriteAll(int fd, const std::string& data) {
  size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

/// Blocking newline-delimited reader over the response pipe.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}
  bool Next(std::string* line) {
    for (;;) {
      const size_t nl = buffer_.find('\n', scanned_);
      if (nl != std::string::npos) {
        line->assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        scanned_ = 0;
        return true;
      }
      scanned_ = buffer_.size();
      char chunk[8192];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
  size_t scanned_ = 0;
};

/// True when a served topk response carries exactly `expected` (ids and
/// float scores, bit for bit) for query `q`.
bool SameAnswer(const std::string& line, size_t q,
                std::span<const align::TopKEntry> expected) {
  json::Value response;
  if (!json::Parse(line, &response).ok()) return false;
  const json::Value* ok = response.Find("ok");
  const json::Value* id = response.Find("id");
  const json::Value* ids = response.Find("ids");
  const json::Value* scores = response.Find("scores");
  if (ok == nullptr || !ok->is_bool() || !ok->bool_value() || id == nullptr ||
      !id->is_number() || id->number() != static_cast<double>(q) ||
      ids == nullptr || scores == nullptr || ids->array().size() != 1 ||
      scores->array().size() != 1) {
    return false;
  }
  const json::Value::Array& row_ids = ids->array()[0].array();
  const json::Value::Array& row_scores = scores->array()[0].array();
  if (row_ids.size() != expected.size() ||
      row_scores.size() != expected.size()) {
    return false;
  }
  for (size_t t = 0; t < expected.size(); ++t) {
    const float score = static_cast<float>(row_scores[t].number());
    if (row_ids[t].number() != expected[t].index ||
        std::memcmp(&score, &expected[t].value, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

bool SameRow(std::span<const align::TopKEntry> a,
             std::span<const align::TopKEntry> b) {
  if (a.size() != b.size()) return false;
  for (size_t t = 0; t < a.size(); ++t) {
    if (a[t].index != b[t].index ||
        std::memcmp(&a[t].value, &b[t].value, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

void RunServe(const Args& args, ReferenceProbe& probe, Result* r) {
  Ledger& ledger = r->ledger;
  // align-serve ships with telemetry collection always on.
  telemetry::SetCollection(true);
  const ServeInputs in = GenerateServeInputs(args.seed);
  serve::ServeConfig config;
  config.checkpoint_path = args.work_dir + "/serve_targets.shard";
  config.source.kind = align::CandidateSourceKind::kAnnIvf;
  config.default_k = kServeK;

  // Set-up: write the table, then start the server (load + IVF index).
  std::unique_ptr<serve::AlignServer> server;
  uint64_t fingerprint_hash = 0;
  r->record["setup_reps"] = RepeatFor(0.0, kSetupsServe, [&] {
    PinCalmestCpu(probe, kProbeRoundsSetup, "probe_setup", r);
    server.reset();
    std::unique_ptr<TracedSection> section;
    if (args.trace) section = std::make_unique<TracedSection>(true);
    Status written;
    double seconds = Timed("shard_write", [&] {
      written = math::WriteShardedTable(config.checkpoint_path, in.targets);
    });
    ledger.Op(written.ok(), "WriteShardedTable: " + written.ToString());
    seconds += Timed("create", [&] {
      auto created = serve::AlignServer::Create(config);
      ledger.Op(created.ok(), "AlignServer::Create: " +
                                  created.status().ToString());
      if (created.ok()) server = std::move(created).value();
    });
    if (section) section->Finish(r);
    r->samples["setup"].push_back(seconds);
    if (server == nullptr) return;
    Fnv f;
    f.Bytes(server->model().fingerprint.data(),
            server->model().fingerprint.size());
    ledger.Same(&fingerprint_hash, f.h, "served model fingerprint");
  });
  if (server == nullptr) return;
  const align::CandidateSource& source = server->source();

  // References: the IVF answers for every query (batched), and the exact
  // top-10 for recall.
  const align::TopKResult expected = source.TopK(in.queries, kServeK);
  align::TopKOptions exact_options;
  exact_options.k = kServeK;
  const align::TopKResult exact =
      align::StreamingTopK(in.queries, in.targets, exact_options);
  double recall = 0.0, hits1 = 0.0, mrr = 0.0;
  for (size_t q = 0; q < kServeQueries; ++q) {
    const auto got = expected.Row(q);
    const auto want = exact.Row(q);
    for (const align::TopKEntry& e : got) {
      for (const align::TopKEntry& w : want) {
        if (e.index == w.index && e.index >= 0) recall += 1.0;
      }
    }
    for (size_t t = 0; t < got.size(); ++t) {
      if (got[t].index == in.truth[q]) {
        hits1 += t == 0 ? 1.0 : 0.0;
        mrr += 1.0 / static_cast<double>(t + 1);
      }
    }
  }
  r->values["index_rows"] = static_cast<double>(kServeRows);
  r->values["recall10"] = recall / static_cast<double>(kServeQueries * kServeK);
  r->values["hits1"] = hits1 / static_cast<double>(kServeQueries);
  r->values["mrr"] = mrr / static_cast<double>(kServeQueries);
  ledger.Op(r->values["recall10"] >= kServeRecallFloor,
            "recall@10 " + std::to_string(r->values["recall10"]) +
                " below the floor");

  std::vector<std::string> rows_json(kServeQueries);
  for (size_t q = 0; q < kServeQueries; ++q) {
    std::string& s = rows_json[q];
    s = "[[";
    for (size_t d = 0; d < kDim; ++d) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), d ? ",%.9g" : "%.9g",
                    static_cast<double>(in.queries.Row(q)[d]));
      s += buf;
    }
    s += "]]";
  }

  // Server on its own thread behind two pipes; this thread is the client.
  int request_pipe[2], response_pipe[2];
  if (::pipe(request_pipe) != 0 || ::pipe(response_pipe) != 0) {
    ledger.Fail("pipe() failed");
    return;
  }
  Status session_status;
  std::thread server_thread([&] {
    auto session = server->Serve(request_pipe[0], response_pipe[1]);
    session_status = session.status();
    ::close(response_pipe[1]);
  });
  LineReader responses(response_pipe[0]);
  std::string line;
  auto barrier = [&] {
    // Ping round trip: the server has finished every earlier request and
    // emits nothing more until the next one arrives.
    const bool ok = WriteAll(request_pipe[1], "{\"op\":\"ping\"}\n") &&
                    responses.Next(&line) &&
                    line.find("pong") != std::string::npos;
    ledger.Op(ok, "ping barrier failed");
  };
  // Samples `key` hold each query's fastest latency (µs) over the run.
  auto fastest = [&](const char* key) -> std::vector<double>& {
    std::vector<double>& best = r->samples[key];
    if (best.empty()) best.assign(kServeQueries, 1e300);
    return best;
  };
  // One pass sends every query once, in order, one row per request; every
  // latency also goes to `all` when non-null.
  auto served_pass = [&](const char* key, std::vector<double>* all) {
    std::vector<double>& best = fastest(key);
    for (size_t q = 0; q < kServeQueries; ++q) {
      const std::string request = "{\"op\":\"topk\",\"id\":" +
                                  std::to_string(q) + ",\"k\":10,\"rows\":" +
                                  rows_json[q] + "}\n";
      bool answered = false;
      Timed("lookup", [&] {
        Stopwatch watch;
        answered = WriteAll(request_pipe[1], request) && responses.Next(&line);
        const double us = watch.ElapsedSeconds() * 1e6;
        best[q] = std::min(best[q], us);
        if (all != nullptr) all->push_back(us);
      });
      if (!answered) {
        ledger.Fail("server closed the session");
        break;
      }
      Timed("verify", [&] {
        ledger.Op(SameAnswer(line, q, expected.Row(q)),
                  "served answer differs from CandidateSource::TopK");
      });
    }
    barrier();
  };
  math::Matrix one(1, kDim);
  auto direct_pass = [&](const char* key) {
    std::vector<double>& best = fastest(key);
    for (size_t q = 0; q < kServeQueries; ++q) {
      const auto query = in.queries.Row(q);
      std::copy(query.begin(), query.end(), one.Row(0).begin());
      align::TopKResult got;
      Timed("query", [&] {
        Stopwatch watch;
        got = source.TopK(one, kServeK);
        best[q] = std::min(best[q], watch.ElapsedSeconds() * 1e6);
      });
      Timed("verify", [&] {
        ledger.Op(SameRow(got.Row(0), expected.Row(q)),
                  "one-row TopK differs from the batched TopK");
      });
    }
  };

  // Each repetition is one served pass and one direct pass. Client and
  // server share one CPU per repetition (the closed loop runs one of them
  // at a time), rotating with the repetitions. Traced runs follow the
  // untraced passes with traced ones.
  std::vector<double> traced_latencies;
  double scanned = 0, queried = 0;
  r->record["repetitions"] = RepeatFor(args.seconds, 2, [&] {
    const int cpu = PinCalmestCpu(probe, kProbeRoundsShort, "probe", r);
    PinThread(server_thread.native_handle(), cpu);
    served_pass("lookup", nullptr);
    direct_pass("query");
    if (!args.trace) return;
    {
      TracedSection section(true);
      served_pass("traced_lookup", &traced_latencies);
      section.Finish(r);
    }
    TracedSection section(true);
    const auto before = telemetry::SnapshotMetrics();
    direct_pass("traced_query");
    const auto after = telemetry::SnapshotMetrics();
    section.Finish(r);
    scanned += static_cast<double>(Counter(after, "cand/ann_ivf/scanned") -
                                   Counter(before, "cand/ann_ivf/scanned"));
    queried += static_cast<double>(Counter(after, "cand/ann_ivf/queries") -
                                   Counter(before, "cand/ann_ivf/queries"));
  });
  if (args.trace) {
    r->samples["traced_lookup_all"] = std::move(traced_latencies);
    r->values["scanned_per_query"] = queried > 0 ? scanned / queried : 0.0;
    const auto snapshot = telemetry::SnapshotMetrics();
    const auto batch = snapshot.histograms.find("serve/batch_size");
    if (batch != snapshot.histograms.end() && batch->second.count > 0) {
      r->values["batch_rows"] =
          batch->second.sum / static_cast<double>(batch->second.count);
    }
  }

  const bool bye = WriteAll(request_pipe[1], "{\"op\":\"shutdown\"}\n") &&
                   responses.Next(&line) &&
                   line.find("bye") != std::string::npos;
  ::close(request_pipe[1]);
  server_thread.join();
  ::close(request_pipe[0]);
  ::close(response_pipe[0]);
  ledger.Op(bye && session_status.ok(),
            "serve session ended badly: " + session_status.ToString());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ledger_bench --workload=study_3k|rank_15k|serve_100k "
                 "--seed=N --seconds=S --trace=0|1 --work=DIR --out=FILE\n");
    return 2;
  }
  SetThreads(1);
  ReferenceProbe probe;
  Result result;
  json::Value::Object& record = result.record;
  record["workload"] = args.workload;
  record["seed"] = args.seed;
  record["traced"] = args.trace;
  record["seconds"] = args.seconds;
  record["cpu_model"] = CpuModel();
  record["nproc"] = static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN));
  record["kernels"] =
      math::kernels::BackendName(math::kernels::ActiveBackend());
  record["threads"] = Threads();
  record["serve_queries"] = static_cast<int64_t>(kServeQueries);
  record["cpus"] = static_cast<int64_t>(AllowedCpus().size());
  if (args.workload == "study_3k") {
    RunStudy(args, probe, &result);
  } else if (args.workload == "rank_15k") {
    RunRank(args, probe, &result);
  } else if (args.workload == "serve_100k") {
    RunServe(args, probe, &result);
  } else {
    std::fprintf(stderr, "ledger_bench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  result.values["peak_rss_mb"] =
      PeakRssMb() - static_cast<double>(probe.bytes()) / (1024.0 * 1024.0);
  if (args.trace) {
    for (const auto& [name, v] : result.spans) {
      result.samples["span/" + name] = v;
    }
    result.values["unattributed_s"] = result.unattributed_s;
    result.values["traced_wall_s"] = result.traced_wall_s;
  }
  if (!WriteResult(args.out, result)) {
    std::fprintf(stderr, "ledger_bench: cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}
