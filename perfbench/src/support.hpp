#pragma once
/// \file support.hpp
/// \brief Shared pieces of the benchmark program: the raw run record that
/// run.py turns into metrics, an in-memory span recorder written out as
/// Chrome trace JSON, a seeded generator and host facts.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Run \p rep at least once, and again while one more repetition of the
/// mean length so far still fits in \p seconds.
template <typename Fn>
void repeat_for(double seconds, Fn&& rep) {
  const Clock::time_point t0 = Clock::now();
  int n = 0;
  do {
    rep();
    ++n;
  } while (seconds_since(t0) * (n + 1) / n <= seconds);
}

/// The p-quantile of \p v (0 <= p <= 1), interpolated linearly between
/// order statistics at rank p * (n - 1), as stats.py does; nan when empty.
double quantile(std::vector<double> v, double p);

/// What one workload run hands to run.py. Timings are raw samples, but
/// for the quartiles a session workload forms per request; the statistics
/// (medians, percentiles) over samples are computed in stats.py.
struct RunRecord {
  /// One request: the unit a user waits on (a sweep, a session run, a
  /// service request). Times are from when it was due; < 0 = never came.
  struct Request {
    double ttfr_ms = -1.0;  ///< first result
    double done_ms = -1.0;  ///< last result
    bool ok = false;        ///< no throw, refusal or failed scenario
  };
  /// One scenario outcome, checked against the reference by the oracle.
  struct Output {
    std::string key;
    tac3d::sim::SimMetrics metrics;
  };

  std::int64_t attempted = 0;  ///< scenarios or requests attempted
  std::int64_t failed = 0;     ///< of those, threw or were refused
  /// Scenario outputs the attempts should have produced: run.py requires
  /// every one of them in `outputs`, checked by the oracle.
  std::int64_t expected_outputs = 0;
  double ttfr_limit_ms = 0.0;  ///< the workload's fixed TTFR limit
  std::vector<Request> requests;
  std::vector<Output> outputs;
  /// End-to-end samples by metric name (setup_s, scenarios_per_s, ...).
  std::map<std::string, std::vector<double>> samples;
  /// Per-layer values and per-call samples; run.py maps a metric name
  /// "x.p90" onto the samples of "x".
  std::map<std::string, double> layer_values;
  std::map<std::string, std::vector<double>> layer_samples;

  void add_output(std::string key, const tac3d::sim::SimMetrics& m) {
    outputs.push_back({std::move(key), m});
  }
};

/// Serialize \p rec (plus the host facts) as the JSON document run.py
/// reads.
std::string to_json(const RunRecord& rec, const std::string& workload,
                    std::uint64_t seed, bool traced);

/// Reference document: key -> metrics, in the same field layout.
std::string reference_json(const std::string& workload,
                           const std::vector<RunRecord::Output>& outputs);

// --- tracing ------------------------------------------------------------

/// Span recorder of the benchmark's own spans (named "<layer>/<what>",
/// string literals). Spans nest per thread; on close each adds its
/// duration minus its children's to its layer's self time. B/E events
/// are kept in memory up to a cap (whole top-level spans only, so the
/// nesting stays balanced) and written once by write_chrome_trace().
/// Off by default: a Span then costs one branch.
namespace trace {

void start();
void stop();

class Span {
 public:
  explicit Span(const char* name);
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Close now; returns the span's duration [s] (0 when tracing is off).
  double close();

 private:
  const char* name_ = nullptr;
};

/// Run \p fn inside a span and append its duration [us] to \p samples.
template <typename Fn>
void timed(std::vector<double>& samples, const char* name, Fn&& fn) {
  Span span(name);
  fn();
  samples.push_back(span.close() * 1e6);
}

/// Self time [s] per layer over every span closed since start().
std::map<std::string, double> self_seconds_by_layer();

/// Distinct span names recorded since start().
std::vector<std::string> span_names();

/// Write the recorded events as Chrome trace-event JSON.
void write_chrome_trace(const std::string& path);

}  // namespace trace

// --- host and process facts ---------------------------------------------

int host_nproc();
long host_l2_bytes();
bool native_arch_build();
double peak_rss_mb();

/// Moves the calling thread over the CPUs it may run on and gives it its
/// whole CPU set back when destroyed. Left alone, a single-threaded
/// workload stays on one CPU for a whole run, and the CPUs of a shared
/// host differ in speed, so runs would differ by where they landed.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  /// Pin the thread to allowed CPU \p i (modulo their count).
  void pin(std::size_t i);

 private:
  std::vector<int> allowed_;
};

/// splitmix64: a small seeded generator whose sequence is fixed by the
/// seed alone (std:: distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform double in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// Fisher-Yates shuffle driven by \p rng.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

}  // namespace perfbench
