"""Statistics and the correctness oracle of the repository benchmark.

run.py turns the raw samples of a workload run into metrics with these
functions; test_stats.py checks them.
"""

import math

# Percentiles a timing may be reported at, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A percentile is reportable when at least this many samples lie beyond it.
MIN_BEYOND = 10

# Oracle: continuous SimMetrics fields agree within REL_TOL (relative to
# the larger magnitude); discrete fields agree exactly.
REL_TOL = 1e-6
CONTINUOUS = ("duration", "any_hot_time", "peak_temp", "chip_energy",
              "pump_energy", "offered_work", "lost_work", "avg_flow_fraction")
DISCRETE = ("migrations",)


def quantile(values, p):
    """The p-quantile (0 <= p <= 1), interpolated linearly between order
    statistics at rank p * (n - 1). Empty input gives nan."""
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = p * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def quartiles(values):
    """(Q1, median, Q3), by quantile()."""
    return tuple(quantile(values, p) for p in (0.25, 0.5, 0.75))


def samples_beyond(n, pct):
    """How many of n samples lie above the interpolation rank of the pct-th
    percentile."""
    return n - 1 - math.floor(pct / 100.0 * (n - 1))


def reportable_percentile(n):
    """Highest percentile of PERCENTILES with at least MIN_BEYOND of n
    samples beyond it, or None when there is none."""
    for pct in PERCENTILES:
        if n > 0 and samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def limit_met_share(requests, limit_ms):
    """Share of requests whose first result came within limit_ms. Each
    request is (ttfr_ms, done_ms, ok); a failed or refused request, or one
    that never produced a result, counts as a miss."""
    if not requests:
        return math.nan
    met = sum(1 for ttfr, _, ok in requests if ok and 0 <= ttfr <= limit_ms)
    return met / len(requests)


def close(a, b):
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def compare_metrics(out, ref):
    """Field names on which one scenario's outputs disagree with its
    reference."""
    bad = [f for f in CONTINUOUS if not close(out[f], ref[f])]
    bad += [f for f in DISCRETE if out[f] != ref[f]]
    oc, rc = out["core_hot_time"], ref["core_hot_time"]
    if len(oc) != len(rc) or not all(close(a, b) for a, b in zip(oc, rc)):
        bad.append("core_hot_time")
    return bad


def bitwise_equal(out, ref):
    return all(out[f] == ref[f] for f in CONTINUOUS + DISCRETE +
               ("core_hot_time",))


def oracle(outputs, reference):
    """Check (key, metrics) outputs against reference {key: metrics}.
    Returns (mismatches, bitwise_equal_count, messages)."""
    mismatches, bitwise, messages = 0, 0, []
    for key, metrics in outputs:
        ref = reference.get(key)
        if ref is None:
            mismatches += 1
            messages.append(f"{key}: no reference")
            continue
        bad = compare_metrics(metrics, ref)
        if bad:
            mismatches += 1
            messages.append(f"{key}: differs in {', '.join(bad)}")
        elif bitwise_equal(metrics, ref):
            bitwise += 1
    return mismatches, bitwise, messages


def problems(failed, expected_outputs, outputs, mismatches):
    """Why a run is not correct; empty when it is. `failed` counts the
    attempts that threw or were refused, `expected_outputs` the scenario
    outputs the attempts should have produced, `outputs` those that came,
    and `mismatches` those the oracle rejected."""
    reasons = []
    if failed:
        reasons.append(f"{failed} attempts threw or were refused")
    if expected_outputs < 1 or outputs != expected_outputs:
        reasons.append(f"{outputs} of {expected_outputs} expected scenario "
                       "outputs reached the oracle")
    if mismatches:
        reasons.append(f"{mismatches} outputs disagree with the reference")
    return reasons
