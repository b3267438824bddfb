#include "support.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string_view>
#include <thread>

namespace perfbench {

namespace {

/// Minimal streaming JSON writer (commas and escaping handled here).
class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(std::string_view k) {
    comma();
    string(k);
    out_ += ':';
    after_key_ = true;
    return *this;
  }
  JsonWriter& value(double v) {
    comma();
    if (!std::isfinite(v)) {
      out_ += "null";
      return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
  }
  JsonWriter& value(std::int64_t v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(bool v) {
    comma();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& value(std::string_view v) {
    comma();
    string(v);
    return *this;
  }
  JsonWriter& value(const std::vector<double>& v) {
    begin_array();
    for (const double x : v) value(x);
    return end_array();
  }
  const std::string& str() const { return out_; }

 private:
  JsonWriter& open(char c) {
    comma();
    out_ += c;
    first_.push_back(true);
    return *this;
  }
  JsonWriter& close(char c) {
    out_ += c;
    first_.pop_back();
    return *this;
  }
  void comma() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
  }
  void string(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

/// SimMetrics in the oracle's field layout: the continuous fields, the
/// discrete migration count, then the per-core hot times.
void write_metrics(JsonWriter& w, const tac3d::sim::SimMetrics& m) {
  w.begin_object()
      .key("duration").value(m.duration)
      .key("any_hot_time").value(m.any_hot_time)
      .key("peak_temp").value(m.peak_temp)
      .key("chip_energy").value(m.chip_energy)
      .key("pump_energy").value(m.pump_energy)
      .key("offered_work").value(m.offered_work)
      .key("lost_work").value(m.lost_work)
      .key("avg_flow_fraction").value(m.avg_flow_fraction)
      .key("migrations").value(static_cast<std::int64_t>(m.migrations))
      .key("core_hot_time").value(m.core_hot_time)
      .end_object();
}

}  // namespace

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string to_json(const RunRecord& rec, const std::string& workload,
                    std::uint64_t seed, bool traced) {
  JsonWriter w;
  w.begin_object()
      .key("workload").value(workload)
      .key("seed").value(static_cast<std::int64_t>(seed))
      .key("traced").value(traced)
      .key("env").begin_object()
      .key("nproc").value(static_cast<std::int64_t>(host_nproc()))
      .key("l2_bytes").value(static_cast<std::int64_t>(host_l2_bytes()))
      .key("native_arch").value(native_arch_build())
      .end_object()
      .key("attempted").value(rec.attempted)
      .key("failed").value(rec.failed)
      .key("expected_outputs").value(rec.expected_outputs)
      .key("peak_rss_mb").value(peak_rss_mb())
      .key("ttfr_limit_ms").value(rec.ttfr_limit_ms);
  w.key("requests").begin_array();
  for (const RunRecord::Request& r : rec.requests) {
    w.begin_array().value(r.ttfr_ms).value(r.done_ms).value(r.ok).end_array();
  }
  w.end_array();
  w.key("samples").begin_object();
  for (const auto& [name, v] : rec.samples) w.key(name).value(v);
  w.end_object();
  w.key("layer_values").begin_object();
  for (const auto& [name, v] : rec.layer_values) w.key(name).value(v);
  w.end_object();
  w.key("layer_samples").begin_object();
  for (const auto& [name, v] : rec.layer_samples) w.key(name).value(v);
  w.end_object();
  w.key("outputs").begin_array();
  for (const RunRecord::Output& o : rec.outputs) {
    w.begin_array().value(o.key);
    write_metrics(w, o.metrics);
    w.end_array();
  }
  w.end_array();
  w.key("spans").begin_array();
  for (const std::string& n : trace::span_names()) w.value(n);
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

std::string reference_json(const std::string& workload,
                           const std::vector<RunRecord::Output>& outputs) {
  JsonWriter w;
  w.begin_object().key("workload").value(workload).key("scenarios");
  w.begin_object();
  for (const RunRecord::Output& o : outputs) {
    w.key(o.key);
    write_metrics(w, o.metrics);
  }
  w.end_object().end_object();
  return w.str() + "\n";
}

// --- tracing ------------------------------------------------------------

namespace trace {

namespace {

/// Events kept per thread for the Chrome trace; spans past the cap still
/// count towards self time.
constexpr std::size_t kEventCap = 50000;

struct Event {
  const char* name;
  char phase;
  double ts_us;
};

struct Open {
  const char* name;
  Clock::time_point t0;
  double child_s;
  bool recorded;
};

struct ThreadBuf {
  int tid = 0;
  std::vector<Event> events;
  std::vector<Open> stack;
  std::map<const char*, double> self_s;  ///< keyed by literal address
};

/// Process-wide recorder state. start() runs once per process, before
/// any span; buffers are appended only under the mutex.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuf>> bufs;
  Clock::time_point epoch = Clock::now();
  std::atomic<bool> on{false};
};

Registry& registry() {
  static Registry r;
  return r;
}

/// The calling thread's buffer, registered on first use. Buffers belong
/// to the registry, so they outlive the threads that filled them.
ThreadBuf& buffer() {
  thread_local ThreadBuf* tb = nullptr;
  if (tb == nullptr) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.bufs.push_back(std::make_unique<ThreadBuf>());
    tb = r.bufs.back().get();
    tb->tid = static_cast<int>(r.bufs.size());
  }
  return *tb;
}

bool on() { return registry().on.load(std::memory_order_acquire); }

double us_since_epoch(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - registry().epoch)
      .count();
}

}  // namespace

void start() {
  registry().epoch = Clock::now();
  registry().on.store(true, std::memory_order_release);
}

void stop() { registry().on.store(false, std::memory_order_release); }

Span::Span(const char* name) {
  if (!on()) return;
  name_ = name;
  ThreadBuf& tb = buffer();
  const Clock::time_point t0 = Clock::now();
  const bool recorded = tb.stack.empty()
                            ? tb.events.size() < kEventCap
                            : tb.stack.back().recorded;
  if (recorded) tb.events.push_back({name, 'B', us_since_epoch(t0)});
  tb.stack.push_back({name, t0, 0.0, recorded});
}

double Span::close() {
  if (name_ == nullptr) return 0.0;
  name_ = nullptr;
  ThreadBuf& tb = buffer();
  const Clock::time_point t1 = Clock::now();
  const Open open = tb.stack.back();
  tb.stack.pop_back();
  const double dur = std::chrono::duration<double>(t1 - open.t0).count();
  if (open.recorded) tb.events.push_back({open.name, 'E', us_since_epoch(t1)});
  tb.self_s[open.name] += dur - open.child_s;
  if (!tb.stack.empty()) tb.stack.back().child_s += dur;
  return dur;
}

std::map<std::string, double> self_seconds_by_layer() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::map<std::string, double> out;
  for (const auto& tb : r.bufs) {
    for (const auto& [name, s] : tb->self_s) {
      const std::string_view n(name);
      out[std::string(n.substr(0, n.find('/')))] += s;
    }
  }
  return out;
}

std::vector<std::string> span_names() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::set<std::string> names;
  for (const auto& tb : r.bufs) {
    for (const auto& entry : tb->self_s) names.insert(entry.first);
  }
  return {names.begin(), names.end()};
}

void write_chrome_trace(const std::string& path) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[64];
  for (const auto& tb : r.bufs) {
    for (const Event& e : tb->events) {
      out << (first ? "\n" : ",\n");
      first = false;
      std::snprintf(buf, sizeof(buf), "%.3f", e.ts_us);
      out << "{\"name\":\"" << e.name << "\",\"ph\":\"" << e.phase
          << "\",\"ts\":" << buf << ",\"pid\":1,\"tid\":" << tb->tid << "}";
    }
  }
  out << "\n]}\n";
}

}  // namespace trace

// --- host and process facts ---------------------------------------------

int host_nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? static_cast<int>(n) : 1;
}

long host_l2_bytes() {
  const long l2 = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
  return l2 > 0 ? l2 : 0;
}

bool native_arch_build() { return PERFBENCH_NATIVE_ARCH != 0; }

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

void set_affinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) allowed_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (!allowed_.empty()) set_affinity(allowed_);
}

void CpuRotation::pin(std::size_t i) {
  if (allowed_.size() > 1) set_affinity({allowed_[i % allowed_.size()]});
}

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
