#!/usr/bin/env python3
"""Performance-ledger benchmark entry point (README.md in this directory).

    python3 ledger/run.py --workload study_3k|rank_15k|serve_100k \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds ledger_bench from source under
.bench_build/ledger (the first run pays for a cold library build), runs one
workload, applies the estimators and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"} — the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The line before it holds
the run record (machine, kernel backend, threads, seed, repetitions).
"""

import argparse
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import estimators  # noqa: E402

WORKLOADS = ("study_3k", "rank_15k", "serve_100k")
# Reference probe time (seconds) on the machine the benchmark was tuned on,
# in a calm phase; README.md, "Reference probe".
REFERENCE_PROBE_S = 0.00045
# Traced runs fail when spans leave more of the traced wall time unexplained.
MAX_UNATTRIBUTED_SHARE = 0.05
# Wall-clock budget of one ledger_bench run (the whole run must end in 180 s).
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Metric names and units come from the benchmark definition at the root.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _DEFINITION = json.load(_f)
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _DEFINITION["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _DEFINITION["per_layer"]}


def fail(message):
    print("ledger: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds ledger_bench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to ledger/")
    jobs = str(max(1, min(4, multiprocessing.cpu_count())))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "ledger_bench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "ledger_bench")


def scales(samples):
    """Probe scale factors of each set-up and of the repetitions."""
    per_setup = [estimators.probe_scale(estimators.median(probes),
                                        REFERENCE_PROBE_S)
                 for probes in estimators.chunks(samples["probe_setup"],
                                                 len(samples["setup"]))]
    return per_setup, estimators.probe_scale(
        estimators.median(samples["probe"]), REFERENCE_PROBE_S)


def scaled_setup(samples, per_setup, key="setup"):
    """Median over the set-ups of each set-up's time times its own scale."""
    return estimators.median([t * f for t, f in zip(samples[key], per_setup)])


def end_to_end(workload, doc):
    """End-to-end metrics and the raw (unscaled) timings behind them."""
    s, v = doc["samples"], doc["values"]
    m = estimators.median
    setup_scale, scale = scales(s)
    if workload == "study_3k":
        stage = m(s["ids"])
        op = stage + m(s["cv"])
    elif workload == "rank_15k":
        op = m(s["rank"])
        stage = m(s["rank_ooc"])
    else:
        # Median over the queries of each query's fastest latency (µs).
        op = m(s["lookup"]) * 1e-6
        stage = m(s["query"]) * 1e-6
    raw = {"setup_s": m(s["setup"]), "op_ms": op * 1e3, "stage_ms": stage * 1e3}
    metrics = {"setup_s": scaled_setup(s, setup_scale),
               "op_ms": raw["op_ms"] * scale,
               "stage_ms": raw["stage_ms"] * scale}
    metrics.update(hits1=v["hits1"], mrr=v["mrr"],
                   peak_rss_mb=v["peak_rss_mb"])
    return metrics, raw


def per_layer(workload, doc):
    """Per-layer metrics; a layer the workload does not run reads 0."""
    s, v = doc["samples"], doc["values"]
    m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    med = estimators.median
    setup_scale, scale = scales(s)

    def span(name):
        return med(s["span/" + name]) * scale

    def setup_span(name):
        return scaled_setup(s, setup_scale, "span/" + name)

    def between(outer, inner):
        # Per call: time in `outer` outside its library span `inner`.
        return med([a - b for a, b in zip(s["span/" + outer],
                                           s["span/%s/%s" % (outer, inner)])]
                   ) * scale

    if workload == "study_3k":
        m["datagen.gen_s"] = setup_span("datagen")
        m["sampling.ids_s"] = span("ids")
        m["sampling.ids_removed_per_s"] = v["ids_removed"] / m["sampling.ids_s"]
        m["train.train_s"] = span("train")
        m["train.positives"] = v["positives"]
        m["train.positives_per_s"] = v["positives"] / m["train.train_s"]
        m["train.epochs"] = v["epochs"]
        m["eval.study_rank_s"] = span("eval")
        m["eval.cells"] = v["cells"]
        m["core.cv_other_s"] = v["cv_other_s"] * scale
        traced = span("ids") + span("cv")
        untraced = (med(s["ids"]) + med(s["cv"])) * scale
    elif workload == "rank_15k":
        m["eval.cells"] = v["cells"]
        m["align.topk_s"] = span("rank/streaming_topk")
        m["eval.reduce_s"] = between("rank", "similarity")
        m["align.cells_per_s"] = v["cells"] / m["align.topk_s"]
        m["align.sharded_topk_s"] = span("rank_ooc/sharded_topk")
        # Shard write and open inside EvaluateRankingSharded.
        m["math.shard_write_s"] = between("rank_ooc", "sharded_topk")
        m["math.bank_maps"] = v["bank_maps"]
        m["math.crc_checks"] = v["crc_checks"]
        traced = span("rank")
        untraced = med(s["rank"]) * scale
    else:
        m["math.shard_write_s"] = setup_span("shard_write")
        m["serve.create_s"] = setup_span("create")
        m["align.index_s"] = setup_span("create/ann_ivf_build")
        m["align.index_rows_per_s"] = v["index_rows"] / m["align.index_s"]
        m["align.query_us"] = med(s["traced_query"]) * scale
        m["align.scanned_per_query"] = v["scanned_per_query"]
        lookup = med(s["traced_lookup"]) * scale
        m["serve.overhead_us"] = lookup - m["align.query_us"]
        m["serve.batch_rows"] = v["batch_rows"]
        tail = estimators.tail_percentile(s["traced_lookup_all"])
        if tail is not None:
            p99, m["serve.lookup_p99_samples"] = tail
            m["serve.lookup_p99_us"] = p99 * scale
        m["serve.recall10"] = v["recall10"]
        traced = lookup * 1e-6
        untraced = med(s["lookup"]) * 1e-6 * scale
    m["unattributed_s"] = v["unattributed_s"]
    m["unattributed_share"] = v["unattributed_s"] / v["traced_wall_s"]
    m["trace_overhead_ms"] = (traced - untraced) * 1e3
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, ".bench_build", "ledger")
    binary = build(build_dir)
    work = os.path.join(build_dir, "work-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    out = os.path.join(work, "result.json")
    try:
        started = time.monotonic()
        done = subprocess.run(
            [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
             "--seconds=%s" % args.seconds, "--trace=%d" % args.trace,
             "--work=" + work, "--out=" + out],
            stdout=sys.stderr, stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
        if done.returncode != 0:
            fail("ledger_bench exited with %d" % done.returncode)
        with open(out) as f:
            doc = json.load(f)
        wall = time.monotonic() - started
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = doc["failed"]
    attempted = doc["attempted"]
    record = dict(doc["record"], run_wall_s=wall, errors=doc["errors"],
                  reference_probe_s=REFERENCE_PROBE_S)
    for key, samples in doc["samples"].items():
        if key.startswith("probe"):
            record[key + "_s"] = estimators.median(samples)
    if args.trace:
        values = per_layer(args.workload, doc)
        units = PER_LAYER_UNITS
        if values["unattributed_share"] >= MAX_UNATTRIBUTED_SHARE:
            failed += 1
            doc["errors"].append("unattributed share %.4f" %
                                 values["unattributed_share"])
    else:
        values, record["unscaled"] = end_to_end(args.workload, doc)
        units = END_TO_END_UNITS
    if "recall10" in doc["values"]:
        record["recall10"] = doc["values"]["recall10"]
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))


if __name__ == "__main__":
    main()
