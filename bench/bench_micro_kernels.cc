// Scalar vs dispatched kernel-table A/B at the telemetry level: times every
// kernel in src/math/kernels.h under the scalar reference table and under
// the table the runtime dispatch selected, and lands the results in the
// --json document as kernels/ms/<kernel>/{scalar,dispatch} and
// kernels/speedup/<kernel> gauges, attributed to the active backend via the
// `kernels` config key and the kernels/backend gauge (bench_common.h).
//
// The work loop is single-threaded and fixed-count on purpose: the emitted
// counters are deterministic, so the bench_diff gate
// (bench/run_bench_diff_gate.cmake) can gate this document exactly on work
// amount while --skip-ing the timing gauges.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/common/table_printer.h"
#include "src/math/kernels.h"

int main(int argc, char** argv) {
  using namespace openea;
  using math::kernels::Backend;
  using math::kernels::KernelTable;
  const auto args = bench::ParseArgs("micro_kernels", argc, argv, 1, 1);
  bench::BeginRun(args);

  const KernelTable& scalar = math::kernels::Table(Backend::kScalar);
  const KernelTable& dispatch = math::kernels::Active();
  const char* backend =
      math::kernels::BackendName(math::kernels::ActiveBackend());

  // One vector length for the whole sweep: the library's row width is the
  // training dim (default 32); 512 shows the wide-row ceiling. Iteration
  // counts are fixed so the kernels/iters counter is deterministic.
  const size_t n = 512;
  const size_t rows = 256;
  const int iters = args.epochs * 2000;  // --epochs scales the measurement.

  Rng rng(args.seed);
  std::vector<float> a(n), b(rows * n), out(rows), y(n), acc(n, 0.5f);
  for (float& v : a) v = rng.NextFloat(-1, 1);
  for (float& v : b) v = rng.NextFloat(-1, 1);
  for (float& v : y) v = rng.NextFloat(-1, 1);

  // Each case runs `body(table)` `iters` times and reports the per-call
  // ratio. A volatile sink defeats dead-code elimination without touching
  // the timed loop.
  volatile float sink = 0.0f;
  const auto time_case = [&](const KernelTable& kt, const auto& body) {
    body(kt);  // Warm-up; untimed.
    Stopwatch watch;
    for (int i = 0; i < iters; ++i) body(kt);
    return watch.ElapsedMillis();
  };

  std::printf("== Kernel table: scalar vs dispatched (%s), n=%zu ==\n",
              backend, n);
  TablePrinter table({"kernel", "scalar ms", "dispatch ms", "speedup"});
  double worst_speedup = 0.0, best_speedup = 0.0;
  const auto run = [&](const std::string& name, const auto& body) {
    const double scalar_ms = time_case(scalar, body);
    const double dispatch_ms = time_case(dispatch, body);
    const double speedup =
        dispatch_ms > 0.0 ? scalar_ms / dispatch_ms : 0.0;
    if (worst_speedup == 0.0 || speedup < worst_speedup) {
      worst_speedup = speedup;
    }
    if (speedup > best_speedup) best_speedup = speedup;
    table.AddRow({name, FormatDouble(scalar_ms, 2),
                  FormatDouble(dispatch_ms, 2), FormatDouble(speedup, 2)});
    telemetry::SetGauge("kernels/ms/" + name + "/scalar", scalar_ms);
    telemetry::SetGauge("kernels/ms/" + name + "/dispatch", dispatch_ms);
    telemetry::SetGauge("kernels/speedup/" + name, speedup);
    telemetry::IncrCounter("kernels/cases");
    telemetry::IncrCounter("kernels/iters", static_cast<uint64_t>(iters));
  };

  run("dot", [&](const KernelTable& kt) {
    sink = sink + kt.dot(a.data(), b.data(), n);
  });
  run("squared_l2", [&](const KernelTable& kt) {
    sink = sink + kt.squared_l2(a.data(), n);
  });
  run("l1", [&](const KernelTable& kt) { sink = sink + kt.l1(a.data(), n); });
  run("squared_l2_distance", [&](const KernelTable& kt) {
    sink = sink + kt.squared_l2_distance(a.data(), b.data(), n);
  });
  run("l1_distance", [&](const KernelTable& kt) {
    sink = sink + kt.l1_distance(a.data(), b.data(), n);
  });
  run("dot_rows", [&](const KernelTable& kt) {
    kt.dot_rows(a.data(), b.data(), n, out.data(), rows, n);
    sink = sink + out[0];
  });
  run("squared_l2_distance_rows", [&](const KernelTable& kt) {
    kt.squared_l2_distance_rows(a.data(), b.data(), n, out.data(), rows, n);
    sink = sink + out[0];
  });
  run("l1_distance_rows", [&](const KernelTable& kt) {
    kt.l1_distance_rows(a.data(), b.data(), n, out.data(), rows, n);
    sink = sink + out[0];
  });
  run("axpy", [&](const KernelTable& kt) {
    kt.axpy(1e-9f, a.data(), y.data(), n);
    sink = sink + y[0];
  });
  run("scale", [&](const KernelTable& kt) {
    kt.scale(1.0000001f, y.data(), n);
    sink = sink + y[0];
  });
  run("add", [&](const KernelTable& kt) {
    kt.add(a.data(), b.data(), y.data(), n);
    sink = sink + y[0];
  });
  run("sub", [&](const KernelTable& kt) {
    kt.sub(a.data(), b.data(), y.data(), n);
    sink = sink + y[0];
  });
  run("hadamard", [&](const KernelTable& kt) {
    kt.hadamard(a.data(), b.data(), y.data(), n);
    sink = sink + y[0];
  });
  // Small GEMM block: 32 x 512 x 32, the shape of one parallel row chunk.
  std::vector<float> gemm_out(32 * 32);
  run("gemm_block", [&](const KernelTable& kt) {
    kt.gemm_block(b.data(), n, b.data(), 32, gemm_out.data(), 32, 32, n,
                  32);
    sink = sink + gemm_out[0];
  });
  run("adagrad_update", [&](const KernelTable& kt) {
    kt.adagrad_update(y.data(), acc.data(), a.data(), n, 1e-9f, 1e-8f);
    sink = sink + y[0];
  });
  run("sgd_update", [&](const KernelTable& kt) {
    kt.sgd_update(y.data(), a.data(), n, 1e-9f);
    sink = sink + y[0];
  });
  (void)sink;
  table.Print(std::cout);

  std::printf(
      "Shape check: with AVX2 dispatched, the reduction and row-batch\n"
      "kernels should beat scalar severalfold at n=%zu while the\n"
      "elementwise kernels are bound by memory bandwidth (smaller but\n"
      ">= 1x wins). Under OPENEA_KERNELS=scalar both columns time the\n"
      "same table and every speedup is ~1. Active backend: %s;\n"
      "speedup range %.2fx .. %.2fx.\n",
      n, backend, worst_speedup, best_speedup);
  return bench::Finish(args);
}
