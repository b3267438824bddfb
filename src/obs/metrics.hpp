#pragma once
/// \file metrics.hpp
/// \brief Process-wide metrics registry: named counters, gauges and
/// log-bucketed histograms with cheap deterministic merge.
///
/// Handles (Counter/Gauge/HistogramMetric) are registered by name —
/// usually as function-local statics at the instrumentation site — and
/// resolve to dense ids. A counter is one process-wide atomic slot that
/// add() bumps with a relaxed fetch_add, no lock; gauges are
/// last-write-wins process globals; histogram records take the registry
/// mutex. All three are meant for per-scenario, per-job and per-request
/// paths, not per-step loops: a session publishes its step counts once,
/// when it completes.
///
/// snapshot() reads every metric into a name-keyed Snapshot;
/// Snapshot::since() gives the delta between two snapshots so benches
/// can attribute counts to one measured leg.
///
/// Publication is process-gated: TAC3D_METRICS=0 (or
/// set_metrics_enabled(false)) turns every record into an early
/// return. Telemetry never feeds back into simulation arithmetic, so
/// enabled/disabled runs stay bitwise identical by construction.
///
/// Naming convention: "<layer>/<what>", lower_snake within segments —
/// e.g. "bank/trace_hits", "solver/iterations", "service/ttfr_ms".

#include <cassert>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace tac3d::obs {

/// Log-bucketed histogram over positive doubles (a value type — safe
/// to copy, merge and ship over the wire).
///
/// Buckets are half-octave (boundaries at sqrt(2) steps): index 0
/// catches v <= 0 and underflow, 1..126 span ~2^-32..2^31, 127 is
/// overflow. While the sample count stays within kExactCap the raw
/// samples are retained and quantiles are exact interpolated order
/// statistics — this is the one shared fix for the nearest-rank
/// small-sample bias the benches used to hand-roll; past the cap,
/// quantiles interpolate geometrically within the bucket.
///
/// merge() is deterministic regardless of merge order: bucket counts
/// and moments are commutative sums, and the exact-sample sets either
/// concatenate (then get sorted by quantile()) or collectively spill
/// to bucket-only resolution.
class Histogram {
 public:
  static constexpr int kBuckets = 128;
  static constexpr std::size_t kExactCap = 512;

  void record(double v);
  void merge(const Histogram& other);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

  /// p in [0,1]; exact (interpolated order statistic) while the sample
  /// set is retained, bucket-interpolated afterwards. 0 when empty.
  double quantile(double p) const;

  /// True while quantiles come from the retained sample set.
  bool exact() const { return exact_; }

  std::uint64_t bucket_count(int i) const {
    return buckets_[static_cast<std::size_t>(i)];
  }

  /// (index, count) pairs of the non-empty buckets — the wire form.
  std::vector<std::pair<std::uint8_t, std::uint64_t>> sparse_buckets() const;

  /// Rebuild from wire parts (bucket resolution only; the exact-sample
  /// set does not travel).
  static Histogram from_parts(
      std::uint64_t count, double sum, double min, double max,
      const std::vector<std::pair<std::uint8_t, std::uint64_t>>& buckets);

  /// Lower bound of bucket i's value range (0 for bucket 0).
  static double bucket_floor(int i);
  static int bucket_index(double v);

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  bool exact_ = true;
  std::uint64_t buckets_[kBuckets] = {};
  std::vector<double> samples_;  ///< retained while exact_
};

/// Is metric publication on (TAC3D_METRICS != 0 and not overridden)?
bool metrics_enabled();
/// Programmatic override, e.g. for same-binary overhead A/B legs.
void set_metrics_enabled(bool on);

/// Monotone counter. Register once (function-local static), add from
/// any thread without a lock.
class Counter {
 public:
  explicit Counter(const char* name);
  void add(std::uint64_t n = 1);

 private:
  std::uint32_t id_;
};

/// Last-write-wins instantaneous value (queue depths, pool sizes).
class Gauge {
 public:
  explicit Gauge(const char* name);
  void set(double v);

 private:
  std::uint32_t id_;
};

/// Registry-owned histogram; record() locks, so keep it off per-step
/// hot loops (per-job / per-request cadence is the intended use).
class HistogramMetric {
 public:
  explicit HistogramMetric(const char* name);
  void record(double v);

 private:
  std::uint32_t id_;
};

/// Point-in-time fold of every registered metric, keyed by name.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram> histograms;

  /// Delta view: counters and histogram buckets subtract \p base
  /// (histogram deltas lose the exact-sample set); gauges keep their
  /// current value.
  Snapshot since(const Snapshot& base) const;
};

/// Read every registered metric.
Snapshot snapshot();

/// Steady-clock stopwatch — the one clock source shared by the obs
/// layer and every bench binary (see bench/bench_util.hpp).
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}
  void reset() { start_ = Clock::now(); }
  double seconds() const {
    const auto now = Clock::now();
    assert(now >= start_ && "steady_clock went backwards");
    return std::chrono::duration<double>(now - start_).count();
  }
  double millis() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace tac3d::obs
