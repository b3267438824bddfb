#!/usr/bin/env python3
"""Compare a freshly generated BENCH_*.json against a checked-in baseline.

Two layers of gating, because the baselines are generated on a developer
container while the gate runs on CI-class hardware:

1. Scale-free ratio gates (strict, --threshold, default 30%): pairs of
   throughput metrics from the same JSON object whose quotient is
   machine-independent — flow-modulated vs fixed-flow stepping, cached
   vs uncached and parallel vs serial sweep throughput. A >30% drop in
   such a ratio is a genuine code regression regardless of host speed
   (e.g. the flow-modulated path losing its lazy-refresh advantage).

2. Absolute floor (loose, 3.3x = 1/0.30): any individual "*per_sec*"
   metric collapsing to below 30% of its baseline fails even if every
   metric moved together — machine variance between the baseline host
   and CI runners is far smaller than that, so only a real uniform
   regression (or a broken build) trips it.

3. Fraction ceilings: "*setup_fraction*" metrics (the share of sweep
   busy time spent on scenario construction) and "*tail_fraction*"
   metrics (the share of instrumented stepping time spent in the
   per-step control tail rather than the thermal solves), both emitted
   by bench_sweep_throughput, are fractions, so they are machine-
   independent already. The ScenarioBank drives the cached setup
   fraction toward 0; a fresh value above baseline * (1 + threshold) +
   0.05 means the amortized cost crept back in and fails.

Everything else numeric is reported informationally.

Usage: check_bench_regression.py BASELINE FRESH [--threshold 0.30]
Exit status: 0 = no regression, 1 = regression, 2 = usage/IO error.
"""

import argparse
import json
import sys

# metric -> same-object reference metric whose quotient is scale-free.
RATIO_GATES = {
    "steps_per_sec_flow_modulated": "steps_per_sec_fixed_flow",
    "parallel_cached_scenarios_per_sec": "serial_cached_scenarios_per_sec",
    "serial_cached_scenarios_per_sec": "serial_nocache_scenarios_per_sec",
    "serial_compile_scenarios_per_sec": "serial_nocache_scenarios_per_sec",
    # Batched lockstep stepping: the batched-vs-serial warm-bank ratio on
    # the seed-extended paper matrix must not collapse (losing it means
    # the multi-lane kernels stopped amortizing the matrix traversal).
    "batched_per_sec": "batched_serial_baseline_per_sec",
    # Staggered-convergence (LC_FUZZY) batch group: the regime mid-solve
    # lane compaction targets — lanes converge at different Krylov
    # iterations, and the fused kernels re-dispatch narrower as they do.
    # Losing this ratio means compaction (or the batched path under it)
    # stopped paying on real multi-iteration solves.
    "batched_fuzzy_group_per_sec": "batched_fuzzy_serial_per_sec",
    # Sweep service: request throughput over the wire vs the same mix
    # run directly through run_sweep on the same thread count. The
    # service pays wire + scheduling overhead (ratio < 1 is expected);
    # the gate fails if that overhead grows, i.e. the ratio collapses
    # relative to the checked-in baseline.
    "service_requests_per_sec": "service_direct_requests_per_sec",
}

ABSOLUTE_FLOOR = 0.30  # fresh/baseline below this always fails

# Telemetry must be near-free: the warm-serial sweep with metrics
# publication enabled must sustain at least this fraction of the same
# binary's publication-disabled throughput. The A/B runs inside one
# bench invocation, so the ratio is machine-independent and gated
# against this absolute floor, not against the baseline file.
TELEMETRY_OVERHEAD_FLOOR = 0.97

# Additive slack of the setup_fraction / tail_fraction ceilings:
# fractions this close to the baseline are timer noise on
# sub-millisecond phases, not a cost regression.
FRACTION_SLACK = 0.05

# Limit-cycle replay (bench_sweep_throughput's long-horizon periodic
# leg): replaying verified cycles instead of re-solving must sustain at
# least this steps/sec multiple over step-everything. Like the telemetry
# gate the A/B runs inside one bench invocation, so the ratio is
# machine-independent and gated absolutely. The leg is mandatory: a
# baseline that carries replay_speedup and a fresh run that lost it
# (field missing or null) fails — silently dropping the leg must not
# read as a pass.
REPLAY_SPEEDUP_FLOOR = 10.0


def numeric_leaves(tree, prefix=""):
    """Yield (dotted_key, value) for every numeric leaf of a JSON tree."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from numeric_leaves(value, f"{prefix}{key}.")
    elif isinstance(tree, bool):
        return
    elif isinstance(tree, (int, float)):
        yield prefix.rstrip("."), float(tree)


def null_leaves(tree, prefix=""):
    """Yield the dotted key of every explicit JSON null leaf. The bench
    binaries emit null for legs a host cannot measure (e.g. the
    parallel sweep leg on a single-core runner), which is a deliberate
    "skipped" marker, not a missing metric."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from null_leaves(value, f"{prefix}{key}.")
    elif tree is None:
        yield prefix.rstrip(".")


def leaf_name(dotted):
    return dotted.rsplit(".", 1)[-1]


def sibling(dotted, name):
    head, _, _ = dotted.rpartition(".")
    return f"{head}.{name}" if head else name


def check(baseline_path, fresh_path, threshold):
    """Run the full gate; returns the process exit code (0/1/2)."""
    try:
        with open(baseline_path) as f:
            baseline_tree = json.load(f)
        with open(fresh_path) as f:
            fresh_tree = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    baseline = dict(numeric_leaves(baseline_tree))
    fresh = dict(numeric_leaves(fresh_tree))
    fresh_skipped = set(null_leaves(fresh_tree))

    failures = []

    print(f"{'metric':58s} {'baseline':>14s} {'fresh':>14s} {'ratio':>7s}")
    for key in sorted(baseline):
        gated = ("per_sec" in key or "setup_fraction" in key
                 or "tail_fraction" in key)
        if key in fresh_skipped:
            # An explicit null marks a leg this host skipped (e.g. the
            # parallel leg on one core) — informational, not a failure.
            print(f"{key:58s} {baseline[key]:14.4g} {'skipped':>14s}")
            continue
        if key not in fresh:
            print(f"{key:58s} {baseline[key]:14.4g} {'MISSING':>14s}")
            if gated:
                failures.append(f"{key}: missing from fresh run")
            continue
        old, new = baseline[key], fresh[key]
        ratio = new / old if old else float("inf")
        flag = "" if gated else "  (informational)"
        if "per_sec" in key and old > 0 and ratio < ABSOLUTE_FLOOR:
            failures.append(
                f"{key}: {new:.4g} collapsed to {ratio:.2f}x of baseline "
                f"{old:.4g} (absolute floor {ABSOLUTE_FLOOR:.2f}x)")
            flag = "  << COLLAPSE"
        if "setup_fraction" in key or "tail_fraction" in key:
            what = ("construction cost" if "setup_fraction" in key
                    else "control-tail share")
            ceiling = old * (1.0 + threshold) + FRACTION_SLACK
            if new > ceiling:
                failures.append(
                    f"{key}: {new:.4g} exceeds ceiling {ceiling:.4g} "
                    f"(baseline {old:.4g} — {what} crept back)")
                flag = "  << FRACTION CREEP"
        print(f"{key:58s} {old:14.4g} {new:14.4g} {ratio:7.2f}{flag}")

    print("\nScale-free ratio gates "
          f"(fail below {1.0 - threshold:.2f}x of baseline ratio):")
    for key in sorted(baseline):
        ref_name = RATIO_GATES.get(leaf_name(key))
        if ref_name is None:
            continue
        ref = sibling(key, ref_name)
        if not all(k in d and d[k] > 0
                   for k in (key, ref) for d in (baseline, fresh)):
            continue
        base_ratio = baseline[key] / baseline[ref]
        fresh_ratio = fresh[key] / fresh[ref]
        rel = fresh_ratio / base_ratio
        flag = ""
        if rel < 1.0 - threshold:
            failures.append(
                f"{key} / {ref_name}: ratio {fresh_ratio:.4g} is "
                f"{100 * (1 - rel):.1f}% below baseline {base_ratio:.4g}")
            flag = "  << REGRESSION"
        scope = key.rpartition(".")[0] or "(top level)"
        print(f"  {leaf_name(key)}/{ref_name} [{scope}]: "
              f"{base_ratio:.4g} -> {fresh_ratio:.4g} ({rel:.2f}x){flag}")

    telemetry = [(k, v) for k, v in sorted(fresh.items())
                 if leaf_name(k) == "telemetry_overhead_ratio"]
    if telemetry:
        print(f"\nTelemetry overhead gate (absolute, on/off >= "
              f"{TELEMETRY_OVERHEAD_FLOOR:.2f}x):")
        for key, value in telemetry:
            flag = ""
            if value < TELEMETRY_OVERHEAD_FLOOR:
                failures.append(
                    f"{key}: {value:.4g} below telemetry overhead floor "
                    f"{TELEMETRY_OVERHEAD_FLOOR:.2f} (registry publication "
                    f"is no longer near-free)")
                flag = "  << OVERHEAD"
            print(f"  {key}: {value:.4g}{flag}")

    replay_keys = sorted(
        {k for k in baseline if leaf_name(k) == "replay_speedup"} |
        {k for k in fresh if leaf_name(k) == "replay_speedup"})
    if replay_keys:
        print(f"\nLimit-cycle replay gate (absolute, on/off >= "
              f"{REPLAY_SPEEDUP_FLOOR:.1f}x):")
        for key in replay_keys:
            if key not in fresh:
                how = "null" if key in fresh_skipped else "missing"
                failures.append(
                    f"{key}: {how} in fresh run — the replay leg is "
                    f"mandatory and must be measured")
                print(f"  {key}: {how.upper()}  << NOT MEASURED")
                continue
            value = fresh[key]
            flag = ""
            if value < REPLAY_SPEEDUP_FLOOR:
                failures.append(
                    f"{key}: {value:.4g} below replay speedup floor "
                    f"{REPLAY_SPEEDUP_FLOOR:.1f} (fast-forwarding locked "
                    f"cycles no longer beats re-solving)")
                flag = "  << SLOW"
            print(f"  {key}: {value:.4g}{flag}")

    if failures:
        print("\nThroughput regressions detected:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nNo throughput regression beyond "
          f"{100 * threshold:.0f}% (ratio) / "
          f"{100 * (1 - ABSOLUTE_FLOOR):.0f}% (absolute) tolerance.")
    return 0


def self_test():
    """Exercise the gate against synthetic JSONs: a healthy run must
    pass, a collapsed ratio must fail, and a gated metric vanishing from
    the fresh run must fail. Run by CI before the real gates so a broken
    gate script cannot silently wave regressions through."""
    import tempfile

    healthy = {
        "bench": "service",
        "service_requests_per_sec": 13.0,
        "service_direct_requests_per_sec": 17.0,
        "p99_ttfr_ms": 100.0,
        "batched_tail_fraction": 0.20,
        "telemetry_overhead_ratio": 0.99,
        "replay_speedup": 18.0,
    }
    collapsed = dict(healthy, service_requests_per_sec=5.0)
    missing = {k: v for k, v in healthy.items()
               if k != "service_requests_per_sec"}
    # A host that cannot run a leg emits null for its columns; the gate
    # must read that as "skipped here", not as a vanished metric.
    par_base = dict(healthy,
                    parallel_cached_scenarios_per_sec=10.0,
                    serial_cached_scenarios_per_sec=6.0,
                    serial_nocache_scenarios_per_sec=1.0)
    par_skipped = dict(par_base, parallel_cached_scenarios_per_sec=None)
    # The replay leg, by contrast, runs everywhere: losing the field —
    # or nulling it — must fail, as must a collapsed speedup.
    replay_slow = dict(healthy, replay_speedup=4.0)
    replay_missing = {k: v for k, v in healthy.items()
                      if k != "replay_speedup"}
    replay_null = dict(healthy, replay_speedup=None)
    # Ceiling at threshold 0.30: 0.20 * 1.30 + 0.05 = 0.31.
    tail_ok = dict(healthy, batched_tail_fraction=0.30)
    tail_creep = dict(healthy, batched_tail_fraction=0.40)
    # The telemetry gate is absolute (floor 0.97), so the fresh value
    # alone decides: 0.975 squeaks by, 0.90 fails.
    telem_ok = dict(healthy, telemetry_overhead_ratio=0.975)
    telem_slow = dict(healthy, telemetry_overhead_ratio=0.90)

    cases = [
        ("healthy fresh run passes", healthy, healthy, 0),
        ("collapsed service/direct ratio fails", healthy, collapsed, 1),
        ("gated metric missing from fresh run fails", healthy, missing, 1),
        ("tail fraction within ceiling passes", healthy, tail_ok, 0),
        ("tail fraction past ceiling fails", healthy, tail_creep, 1),
        ("telemetry overhead above floor passes", healthy, telem_ok, 0),
        ("telemetry overhead below floor fails", healthy, telem_slow, 1),
        ("null skipped-leg marker passes", par_base, par_skipped, 0),
        ("replay speedup below floor fails", healthy, replay_slow, 1),
        ("replay speedup missing from fresh fails", healthy,
         replay_missing, 1),
        ("replay speedup nulled in fresh fails", healthy, replay_null, 1),
    ]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, base, fresh, expected) in enumerate(cases):
            base_path = f"{tmp}/base_{i}.json"
            fresh_path = f"{tmp}/fresh_{i}.json"
            with open(base_path, "w") as f:
                json.dump(base, f)
            with open(fresh_path, "w") as f:
                json.dump(fresh, f)
            print(f"--- self-test: {name}")
            got = check(base_path, fresh_path, threshold=0.30)
            if got != expected:
                failures.append(f"{name}: exit {got}, expected {expected}")
            print()
    if failures:
        print("self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"self-test OK ({len(cases)} cases)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("fresh", nargs="?")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="maximum allowed fractional drop of a "
                             "scale-free throughput ratio")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate itself catches pass/fail/"
                             "missing-field cases, then exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.baseline is None or args.fresh is None:
        parser.error("baseline and fresh are required unless --self-test")
    return check(args.baseline, args.fresh, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
