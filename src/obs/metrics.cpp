#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace tac3d::obs {

// --- Histogram -------------------------------------------------------------

int Histogram::bucket_index(double v) {
  if (!(v > 0.0)) return 0;  // non-positive and NaN
  int exp = 0;
  const double m = std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
  // Half-octave sub-bucket: split each octave at sqrt(2)/2 ~= 0.7071.
  const int sub = m >= 0.70710678118654752 ? 1 : 0;
  const int idx = 2 * (exp + 32) + sub + 1;
  if (idx < 1) return 0;                      // underflow: < ~2^-33
  if (idx >= kBuckets) return kBuckets - 1;   // overflow: >= ~2^31
  return idx;
}

double Histogram::bucket_floor(int i) {
  if (i <= 0) return 0.0;
  return std::exp2(0.5 * static_cast<double>(i - 1) - 33.0);
}

void Histogram::record(double v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  ++buckets_[static_cast<std::size_t>(bucket_index(v))];
  if (exact_) {
    if (samples_.size() < kExactCap) {
      samples_.push_back(v);
    } else {
      exact_ = false;
      samples_.clear();
      samples_.shrink_to_fit();
    }
  }
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (int i = 0; i < kBuckets; ++i)
    buckets_[static_cast<std::size_t>(i)] +=
        other.buckets_[static_cast<std::size_t>(i)];
  if (exact_ && other.exact_ &&
      samples_.size() + other.samples_.size() <= kExactCap) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
  } else {
    exact_ = false;
    samples_.clear();
    samples_.shrink_to_fit();
  }
}

double Histogram::quantile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  if (exact_) {
    // Interpolated order statistic (the R-7 / numpy "linear" rule):
    // unbiased on small samples where nearest-rank is not.
    std::vector<double> sorted(samples_);
    std::sort(sorted.begin(), sorted.end());
    const double pos = p * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  }
  // Bucket resolution: walk the cumulative counts, then interpolate
  // geometrically inside the half-octave bucket that crosses the rank.
  const double target = p * static_cast<double>(count_);
  std::uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = buckets_[static_cast<std::size_t>(i)];
    if (c == 0) continue;
    if (static_cast<double>(cum + c) >= target) {
      if (i == 0) return min_;
      const double frac =
          std::clamp((target - static_cast<double>(cum)) /
                         static_cast<double>(c),
                     0.0, 1.0);
      const double v = bucket_floor(i) * std::exp2(0.5 * frac);
      return std::clamp(v, min_, max_);
    }
    cum += c;
  }
  return max_;
}

std::vector<std::pair<std::uint8_t, std::uint64_t>>
Histogram::sparse_buckets() const {
  std::vector<std::pair<std::uint8_t, std::uint64_t>> out;
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = buckets_[static_cast<std::size_t>(i)];
    if (c) out.emplace_back(static_cast<std::uint8_t>(i), c);
  }
  return out;
}

Histogram Histogram::from_parts(
    std::uint64_t count, double sum, double min, double max,
    const std::vector<std::pair<std::uint8_t, std::uint64_t>>& buckets) {
  Histogram h;
  h.count_ = count;
  h.sum_ = sum;
  h.min_ = min;
  h.max_ = max;
  h.exact_ = false;
  for (const auto& [idx, c] : buckets)
    if (idx < kBuckets) h.buckets_[idx] += c;
  return h;
}

// --- Registry --------------------------------------------------------------

namespace {

constexpr std::uint32_t kInvalidId = 0xffffffffu;
constexpr std::size_t kMaxCounters = 128;
constexpr std::size_t kMaxGauges = 64;
constexpr std::size_t kMaxHists = 64;

struct Registry {
  std::mutex mu;
  std::vector<std::string> counter_names;
  std::vector<std::string> gauge_names;
  std::vector<std::string> hist_names;
  std::atomic<std::uint64_t> counters[kMaxCounters] = {};
  std::atomic<double> gauges[kMaxGauges] = {};
  Histogram hists[kMaxHists];
  std::atomic<bool> enabled{true};
};

/// Leaked singleton: immortal, so atexit-ordered destructors can never
/// observe a destroyed registry.
Registry& reg() {
  static Registry* r = new Registry;
  return *r;
}

bool env_enabled() {
  const char* v = std::getenv("TAC3D_METRICS");
  return !(v && (std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0));
}

const bool g_env_init = [] {
  reg().enabled.store(env_enabled(), std::memory_order_relaxed);
  return true;
}();

std::uint32_t register_name(std::vector<std::string>& names,
                            std::size_t cap, const char* name) {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == name) return static_cast<std::uint32_t>(i);
  if (names.size() >= cap) return kInvalidId;  // over cap: silent no-op id
  names.emplace_back(name);
  return static_cast<std::uint32_t>(names.size() - 1);
}

}  // namespace

bool metrics_enabled() {
  (void)g_env_init;
  return reg().enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool on) {
  reg().enabled.store(on, std::memory_order_relaxed);
}

Counter::Counter(const char* name)
    : id_(register_name(reg().counter_names, kMaxCounters, name)) {}

void Counter::add(std::uint64_t n) {
  if (id_ == kInvalidId || !metrics_enabled()) return;
  reg().counters[id_].fetch_add(n, std::memory_order_relaxed);
}

Gauge::Gauge(const char* name)
    : id_(register_name(reg().gauge_names, kMaxGauges, name)) {}

void Gauge::set(double v) {
  if (id_ == kInvalidId || !metrics_enabled()) return;
  reg().gauges[id_].store(v, std::memory_order_relaxed);
}

HistogramMetric::HistogramMetric(const char* name)
    : id_(register_name(reg().hist_names, kMaxHists, name)) {}

void HistogramMetric::record(double v) {
  if (id_ == kInvalidId || !metrics_enabled()) return;
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  r.hists[id_].record(v);
}

Snapshot snapshot() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  Snapshot snap;
  for (std::size_t i = 0; i < r.counter_names.size(); ++i)
    snap.counters[r.counter_names[i]] =
        r.counters[i].load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < r.gauge_names.size(); ++i)
    snap.gauges[r.gauge_names[i]] =
        r.gauges[i].load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < r.hist_names.size(); ++i)
    snap.histograms[r.hist_names[i]] = r.hists[i];
  return snap;
}

Snapshot Snapshot::since(const Snapshot& base) const {
  Snapshot delta;
  for (const auto& [name, value] : counters) {
    const auto it = base.counters.find(name);
    const std::uint64_t old = it == base.counters.end() ? 0 : it->second;
    delta.counters[name] = value >= old ? value - old : 0;
  }
  delta.gauges = gauges;
  for (const auto& [name, hist] : histograms) {
    const auto it = base.histograms.find(name);
    if (it == base.histograms.end()) {
      delta.histograms[name] = hist;
      continue;
    }
    const Histogram& old = it->second;
    std::vector<std::pair<std::uint8_t, std::uint64_t>> buckets;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      const std::uint64_t now = hist.bucket_count(i);
      const std::uint64_t was = old.bucket_count(i);
      if (now > was)
        buckets.emplace_back(static_cast<std::uint8_t>(i), now - was);
    }
    delta.histograms[name] = Histogram::from_parts(
        hist.count() >= old.count() ? hist.count() - old.count() : 0,
        hist.sum() - old.sum(), hist.min(), hist.max(), buckets);
  }
  return delta;
}

}  // namespace tac3d::obs
