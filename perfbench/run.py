#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the tac3d library and the benchmark program tac3d_perfbench from
this checkout's
sources into .bench_build/ (first run only), runs the workload, checks
every scenario output against the committed reference, and prints a
human-readable report followed, as the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones (the traced run also writes a Chrome trace JSON and checks
it with scripts/check_trace.py).

A run is correct only when every attempt succeeded, every expected
scenario output reached the oracle and agreed with the reference, and,
on a traced run, the trace passed its check and the workload loaded what
it claims (LOAD_CLAIMS).

See perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import json
import os
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "tac3d_perfbench")
RUN_TIMEOUT_S = 170

# Spans each traced workload must show in its trace.
REQUIRED_SPANS = {
    "paper_sweep": ["sweep/setup", "sweep/matrix_build", "bank/prepare",
                    "sweep/run_sweep"],
    "long_horizon": ["session/setup", "session/step", "session/balance",
                     "session/sense", "control/decide", "session/apply",
                     "power/update", "thermal/step", "session/finish",
                     "sparse/spmv"],
    "periodic_replay": ["session/setup", "replay/fast_forward",
                        "session/step"],
    "service_openloop": ["service/submit", "service/receive",
                         "service/status", "service/encode",
                         "service/decode"],
}

# What each workload claims to load, checked on its traced run: a claim
# not met makes the run incorrect, because the workload no longer
# measures what it is defined to. A change that removes a lever on
# purpose updates its claim here with it.
LOAD_CLAIMS = {
    "paper_sweep": [("batch.lane_fraction", ">", 0.5),
                    ("sweep.scenarios_per_worker", ">=", 8)],
    "long_horizon": [("replay.steps_replayed_fraction", "==", 0),
                     ("batch.lane_fraction", "==", 0)],
    "periodic_replay": [("replay.steps_replayed_fraction", ">=", 0.9)],
    "service_openloop": [],
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isdir(os.path.join(ROOT, "src")) and
            os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))):
        fail("the tac3d sources (src/, CMakeLists.txt) are not in this "
             "checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "--target",
                      "tac3d_perfbench", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def run_benchmark(args, record_path, trace_path):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", record_path]
    if args.trace:
        cmd += ["--trace-file", trace_path]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    with open(record_path) as f:
        return json.load(f)


def end_to_end(name, rec):
    """Value of end-to-end metric `name` from a run record."""
    samples = rec["samples"]
    requests = rec["requests"]
    ok_ttfr = [r[0] for r in requests if r[2] and r[0] >= 0]
    ok_done = [r[1] for r in requests if r[2] and r[1] >= 0]
    table = {
        "setup_s": lambda: stats.median(samples["setup_s"]),
        "scenarios_per_s": lambda: stats.median(samples["scenarios_per_s"]),
        "steps_per_s": lambda: stats.median(samples["steps_per_s"]),
        "ttfr_p50_ms": lambda: stats.quantile(ok_ttfr, 0.5),
        "ttfr_p90_ms": lambda: stats.quantile(ok_ttfr, 0.9),
        "done_p90_ms": lambda: stats.quantile(ok_done, 0.9),
        "ttfr_limit_met": lambda: stats.limit_met_share(
            requests, rec["ttfr_limit_ms"]),
        "peak_rss_mb": lambda: rec["peak_rss_mb"],
    }
    if name not in table:
        fail(f"no definition for end-to-end metric {name}")
    return table[name]()


STATS = {"p50": lambda v: stats.quantile(v, 0.5),
         "p90": lambda v: stats.quantile(v, 0.9),
         "min": min, "max": max, "mean": lambda v: sum(v) / len(v)}


def per_layer(name, rec):
    """Value of per-layer metric `name`: a recorded value, the median of
    its samples, a statistic named by its suffix ("x.p90" over the samples
    of "x"), or 0 where the workload does not exercise the layer."""
    values, samples = rec["layer_values"], rec["layer_samples"]
    if name == "trace.overhead":
        base = samples.get("trace.overhead.base")
        traced = samples.get("trace.overhead.traced")
        return stats.median(traced) / stats.median(base) if base and traced \
            else 0.0
    if name in values:
        return values[name]
    if samples.get(name):
        return stats.median(samples[name])
    base, _, suffix = name.rpartition(".")
    if suffix in STATS and samples.get(base):
        return STATS[suffix](samples[base])
    return 0.0


def check_trace(workload, trace_path):
    cmd = [sys.executable, os.path.join(ROOT, "scripts", "check_trace.py"),
           trace_path]
    for span in REQUIRED_SPANS[workload]:
        cmd += ["--require", span]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    print("trace check: " + (proc.stdout + proc.stderr).strip()[:300])
    return proc.returncode == 0


def claim_met(value, op, bound):
    return {">": value > bound, ">=": value >= bound,
            "==": value == bound}[op]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(REQUIRED_SPANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(os.path.join(HERE, "reference",
                               args.workload + ".json")) as f:
            reference = json.load(f)["scenarios"]
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read the benchmark definition: {e}")

    build()
    runs = os.path.join(BUILD, "runs")
    os.makedirs(runs, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    trace_path = os.path.join(runs, f"trace-{tag}.json")
    rec = run_benchmark(args, os.path.join(runs, f"record-{tag}.json"),
                     trace_path)

    env = rec["env"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print(f"host: nproc {env['nproc']}  L2 {env['l2_bytes'] // 1024} KiB  "
          f"TAC3D_NATIVE_ARCH {'ON' if env['native_arch'] else 'OFF'}")

    outputs = rec["outputs"]
    mismatches, bitwise, messages = stats.oracle(outputs, reference)
    print(f"oracle: {len(outputs)} scenario outputs, {mismatches} disagree "
          f"with the reference (rel. tol. {stats.REL_TOL:g}), {bitwise} "
          "bitwise equal")
    for msg in messages[:10]:
        print("  " + msg)
    problems = stats.problems(rec["failed"], rec["expected_outputs"],
                              len(outputs), mismatches)

    attempted = max(1, rec["attempted"])
    failed = min(attempted, rec["failed"] + mismatches)
    print(f"failed_fraction: {failed / attempted:.4g} "
          f"({failed} of {attempted})")

    metrics = {}
    if args.trace:
        if not check_trace(args.workload, trace_path):
            problems.append("the trace failed scripts/check_trace.py")
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": per_layer(m["name"], rec),
                                  "unit": m["unit"]}
        for name, op, bound in LOAD_CLAIMS[args.workload]:
            value = metrics[name]["value"]
            met = claim_met(value, op, bound)
            print(f"load check: {name} {op} {bound:g}: {value:.4g} "
                  f"({'met' if met else 'NOT MET'})")
            if not met:
                problems.append(f"load claim {name} {op} {bound:g} not met")
    else:
        n = len([r for r in rec["requests"] if r[2]])
        pct = stats.reportable_percentile(n)
        print(f"requests: {len(rec['requests'])} ({n} ok); highest "
              "percentile with >= 10 samples beyond: "
              + (f"p{pct:g}" if pct else "none"))
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": end_to_end(m["name"], rec),
                                  "unit": m["unit"]}
    for name, v in metrics.items():
        count = len(rec["layer_samples"].get(name, rec["samples"].get(
            name, [])))
        print(f"  {name}: {v['value']:.6g} {v['unit']}"
              + (f"  (median of {count})" if count > 1 else ""))
    for name, v in metrics.items():
        if v["value"] != v["value"]:  # nan: no sample to measure
            v["value"] = 0.0
            problems.append(f"no sample to measure {name}")
    for reason in problems:
        print("NOT CORRECT: " + reason)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
