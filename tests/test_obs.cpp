// The telemetry subsystem must be trustworthy before it is useful:
// histogram quantiles have to match the order statistics they replace
// (including the small-sample interpolation fix), merges have to be
// deterministic regardless of thread arrival order, the trace writer
// has to emit well-formed Chrome trace JSON with properly nested spans,
// and — most importantly — turning telemetry on must not change a
// single bit of any simulation result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "power/trace.hpp"
#include "service/service.hpp"
#include "sim/sweep.hpp"

namespace tac3d {
namespace {

using obs::Histogram;

// --- Histogram: record / quantile ------------------------------------------

TEST(ObsHistogram, EmptyIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(ObsHistogram, SmallSampleQuantilesAreInterpolatedOrderStatistics) {
  Histogram h;
  for (int v = 1; v <= 10; ++v) h.record(static_cast<double>(v));
  ASSERT_TRUE(h.exact());
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.sum(), 55.0);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 10.0);
  // R-7 / numpy "linear": pos = p * (n - 1).
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 3.25);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
  // Out-of-range p clamps instead of reading out of bounds.
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(2.0), 10.0);
}

TEST(ObsHistogram, SmallSampleP99DoesNotCollapseToMax) {
  // The nearest-rank bias the benches used to have: on tiny samples
  // p99 would just return the max. The interpolated rule sits between
  // the two top order statistics instead.
  Histogram h;
  for (const double v : {10.0, 20.0, 30.0, 40.0, 100.0}) h.record(v);
  const double p99 = h.quantile(0.99);
  EXPECT_GT(p99, 40.0);
  EXPECT_LT(p99, 100.0);
  EXPECT_NEAR(p99, 40.0 + 0.96 * 60.0, 1e-9);  // pos = .99*4 = 3.96
}

TEST(ObsHistogram, BucketIndexFloorInvariant) {
  EXPECT_EQ(Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(Histogram::bucket_index(-5.0), 0);
  EXPECT_EQ(Histogram::bucket_index(std::nan("")), 0);
  EXPECT_EQ(Histogram::bucket_floor(0), 0.0);
  // Every positive value lands in the bucket whose [floor, next-floor)
  // range contains it (except at the overflow/underflow clamps).
  for (double v = 1e-9; v < 1e9; v *= 1.7) {
    const int idx = Histogram::bucket_index(v);
    ASSERT_GE(idx, 1);
    ASSERT_LT(idx, Histogram::kBuckets);
    EXPECT_GE(v, Histogram::bucket_floor(idx) * (1.0 - 1e-12)) << v;
    if (idx + 1 < Histogram::kBuckets) {
      EXPECT_LT(v, Histogram::bucket_floor(idx + 1) * (1.0 + 1e-12)) << v;
    }
  }
}

TEST(ObsHistogram, SpilledQuantilesStayBoundedAndMonotone) {
  Histogram h;
  std::vector<double> raw;
  std::uint64_t state = 12345;
  for (int i = 0; i < 4000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double u = static_cast<double>(state >> 11) / 9007199254740992.0;
    const double v = std::exp2(10.0 * u);  // spread over ~10 octaves
    raw.push_back(v);
    h.record(v);
  }
  ASSERT_FALSE(h.exact());
  EXPECT_EQ(h.count(), raw.size());
  std::sort(raw.begin(), raw.end());
  double prev = 0.0;
  for (const double p : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double q = h.quantile(p);
    EXPECT_GE(q, h.min());
    EXPECT_LE(q, h.max());
    EXPECT_GE(q, prev) << "quantiles must be monotone in p";
    prev = q;
  }
  // Half-octave buckets: the bucketed median is within one bucket
  // boundary ratio (sqrt 2) of the exact one.
  const double exact_median = raw[raw.size() / 2];
  const double q50 = h.quantile(0.5);
  EXPECT_GT(q50, exact_median / std::sqrt(2.0) * 0.99);
  EXPECT_LT(q50, exact_median * std::sqrt(2.0) * 1.01);
}

// --- Histogram: merge -------------------------------------------------------

void fill(Histogram& h, int n, double scale) {
  for (int i = 1; i <= n; ++i) h.record(scale * i);
}

void expect_same_histogram(const Histogram& a, const Histogram& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.exact(), b.exact());
  for (int i = 0; i < Histogram::kBuckets; ++i)
    ASSERT_EQ(a.bucket_count(i), b.bucket_count(i)) << "bucket " << i;
  for (const double p : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0})
    EXPECT_EQ(a.quantile(p), b.quantile(p)) << "p=" << p;
}

TEST(ObsHistogram, MergeIsOrderIndependent) {
  Histogram a, b, c;
  fill(a, 300, 1.0);
  fill(b, 300, 0.01);   // a+b exceeds kExactCap: collective spill
  fill(c, 50, 1000.0);
  Histogram fwd = a;
  fwd.merge(b);
  fwd.merge(c);
  Histogram rev = c;
  rev.merge(b);
  rev.merge(a);
  ASSERT_FALSE(fwd.exact());
  expect_same_histogram(fwd, rev);
  EXPECT_EQ(fwd.count(), 650u);
}

TEST(ObsHistogram, MergeKeepsExactSetWhileUnderCap) {
  Histogram a, b;
  fill(a, 100, 1.0);
  fill(b, 100, 2.0);
  Histogram m = a;
  m.merge(b);
  ASSERT_TRUE(m.exact());
  EXPECT_EQ(m.count(), 200u);
  // Quantiles over the union, not either part: a holds 1..100, b holds
  // 2,4,...,200.
  EXPECT_DOUBLE_EQ(m.quantile(1.0), 200.0);
  EXPECT_DOUBLE_EQ(m.quantile(0.0), 1.0);
}

TEST(ObsHistogram, CrossThreadMergeIsDeterministic) {
  // Four threads record disjoint deterministic streams into their own
  // histograms; any merge order must produce the identical result —
  // that is what makes a sharded registry snapshot reproducible.
  constexpr int kThreads = 4;
  std::vector<Histogram> parts(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&parts, t] {
      for (int i = 1; i <= 400; ++i) {
        parts[static_cast<std::size_t>(t)].record(
            static_cast<double>(i) * std::exp2(t));
      }
    });
  }
  for (auto& w : workers) w.join();

  const std::vector<std::vector<int>> orders = {
      {0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}};
  std::vector<Histogram> merged;
  for (const auto& order : orders) {
    Histogram m;
    for (const int t : order) m.merge(parts[static_cast<std::size_t>(t)]);
    merged.push_back(m);
  }
  expect_same_histogram(merged[0], merged[1]);
  expect_same_histogram(merged[0], merged[2]);
  EXPECT_EQ(merged[0].count(), 1600u);
}

TEST(ObsHistogram, WireRoundTripPreservesBucketResolution) {
  Histogram h;
  fill(h, 700, 0.37);  // spilled: bucket resolution is the wire truth
  const Histogram back = Histogram::from_parts(
      h.count(), h.sum(), h.min(), h.max(), h.sparse_buckets());
  expect_same_histogram(h, back);
}

// --- Registry ----------------------------------------------------------------

TEST(ObsRegistry, CounterGaugeHistogramSnapshotDelta) {
  obs::set_metrics_enabled(true);
  static obs::Counter counter("test/obs_counter");
  static obs::Gauge gauge("test/obs_gauge");
  static obs::HistogramMetric hist("test/obs_hist");

  const obs::Snapshot before = obs::snapshot();
  counter.add(5);
  counter.add();
  gauge.set(42.0);
  hist.record(3.0);
  hist.record(5.0);
  const obs::Snapshot delta = obs::snapshot().since(before);

  ASSERT_TRUE(delta.counters.count("test/obs_counter"));
  EXPECT_EQ(delta.counters.at("test/obs_counter"), 6u);
  ASSERT_TRUE(delta.gauges.count("test/obs_gauge"));
  EXPECT_EQ(delta.gauges.at("test/obs_gauge"), 42.0);
  ASSERT_TRUE(delta.histograms.count("test/obs_hist"));
  EXPECT_EQ(delta.histograms.at("test/obs_hist").count(), 2u);
  EXPECT_EQ(delta.histograms.at("test/obs_hist").sum(), 8.0);
}

TEST(ObsRegistry, DisabledPublicationIsANoOp) {
  static obs::Counter counter("test/obs_disabled_counter");
  obs::set_metrics_enabled(true);
  const obs::Snapshot before = obs::snapshot();
  obs::set_metrics_enabled(false);
  counter.add(100);
  obs::set_metrics_enabled(true);
  const obs::Snapshot delta = obs::snapshot().since(before);
  ASSERT_TRUE(delta.counters.count("test/obs_disabled_counter"));
  EXPECT_EQ(delta.counters.at("test/obs_disabled_counter"), 0u);
}

TEST(ObsRegistry, ConcurrentAddsFromExitedThreadsAllCount) {
  obs::set_metrics_enabled(true);
  static obs::Counter counter("test/obs_thread_counter");
  const obs::Snapshot before = obs::snapshot();
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < 1000; ++i) counter.add();
    });
  }
  for (auto& w : workers) w.join();
  const obs::Snapshot delta = obs::snapshot().since(before);
  EXPECT_EQ(delta.counters.at("test/obs_thread_counter"), 4000u);
}

// --- Trace -------------------------------------------------------------------

sim::Scenario lane_scenario(std::uint64_t seed) {
  sim::Scenario s;
  s.tiers = 2;
  s.policy = sim::PolicyKind::kLcFuzzy;
  s.workload = power::WorkloadKind::kWebServer;
  s.seed = seed;
  s.trace_seconds = 12;
  s.grid = thermal::GridOptions{8, 8};
  return s;
}

/// A constant-trace closed loop on the direct solver settles onto an
/// exact fixed point, so the limit-cycle detector locks within a few
/// control intervals and the rest of the run fast-forwards — putting
/// the session/replay span on the traced timeline.
sim::Scenario replay_scenario() {
  auto tr = std::make_shared<power::UtilizationTrace>("const", 32, 30);
  for (int th = 0; th < 32; ++th) {
    for (int t = 0; t < 30; ++t) tr->set(th, t, 0.45 + 0.01 * (th % 4));
  }
  sim::Scenario s;
  s.tiers = 2;
  s.policy = sim::PolicyKind::kLcLb;
  s.trace = std::move(tr);
  s.trace_seconds = 30;
  s.grid = thermal::GridOptions{8, 8};
  s.sim.solver = sparse::SolverKind::kBandedLu;
  return s;
}

struct ParsedEvent {
  std::string name;
  char phase = '?';
  int tid = 0;
};

/// Minimal parser for the writer's one-event-per-line JSON.
std::vector<ParsedEvent> parse_trace(const std::string& text) {
  std::vector<ParsedEvent> events;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto name_at = line.find("\"name\":\"");
    if (name_at == std::string::npos) continue;
    ParsedEvent ev;
    const auto name_from = name_at + 8;
    ev.name = line.substr(name_from, line.find('"', name_from) - name_from);
    const auto ph_at = line.find("\"ph\":\"");
    const auto tid_at = line.find("\"tid\":");
    if (ph_at == std::string::npos || tid_at == std::string::npos) continue;
    ev.phase = line[ph_at + 6];
    ev.tid = std::atoi(line.c_str() + tid_at + 6);
    events.push_back(std::move(ev));
  }
  return events;
}

TEST(ObsTrace, DisabledSpanIsInert) {
  ASSERT_FALSE(obs::trace_enabled());
  obs::TraceSpan span("test/never_emitted");
  obs::trace_end();  // no-op while not tracing
}

TEST(ObsTrace, BatchedSweepTraceIsWellFormedAndNested) {
  // CI points TAC3D_TRACE at the artifact path and then validates it
  // again with scripts/check_trace.py; standalone runs use a local
  // file. (The env-var auto-start already began tracing in that case;
  // trace_begin below just resets the buffers to this test's window.)
  const char* env_path = std::getenv("TAC3D_TRACE");
  const std::string path =
      env_path && *env_path ? env_path : "test_obs_trace.json";

  obs::trace_begin(path);
  {
    // 2-lane batched sweep: same pattern, two seeds.
    sim::SweepOptions batched;
    batched.jobs = 1;
    batched.batch_width = 2;
    const sim::SweepReport report =
        sim::run_sweep({lane_scenario(1), lane_scenario(2)}, batched);
    ASSERT_TRUE(report.all_ok());
    EXPECT_EQ(report.at(0).batch_lanes, 2);
    // One scalar scenario so the per-step solver phases (refresh /
    // Krylov) show on the timeline next to the batched tail stages,
    // plus a limit-cycle-locking scenario for the replay span.
    sim::SweepOptions scalar;
    scalar.jobs = 1;
    scalar.batch_width = 1;
    const sim::SweepReport rest =
        sim::run_sweep({lane_scenario(3), replay_scenario()}, scalar);
    ASSERT_TRUE(rest.all_ok());
    EXPECT_GT(rest.at(1).replay_steps, 0u)
        << "the constant-trace scenario should have locked and replayed";
  }
  obs::trace_end();
  ASSERT_FALSE(obs::trace_enabled());

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "trace file missing: " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  // Chrome trace-event envelope.
  EXPECT_EQ(text.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  EXPECT_NE(text.find("]}"), std::string::npos);

  const std::vector<ParsedEvent> events = parse_trace(text);
  ASSERT_FALSE(events.empty());

  // Per-thread B/E stack discipline: every end matches the innermost
  // open begin, and nothing stays open.
  std::map<int, std::vector<std::string>> stacks;
  std::set<std::string> names;
  for (const ParsedEvent& ev : events) {
    ASSERT_TRUE(ev.phase == 'B' || ev.phase == 'E') << ev.name;
    names.insert(ev.name);
    auto& stack = stacks[ev.tid];
    if (ev.phase == 'B') {
      stack.push_back(ev.name);
    } else {
      ASSERT_FALSE(stack.empty()) << "E without B: " << ev.name;
      EXPECT_EQ(stack.back(), ev.name) << "mis-nested span";
      stack.pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "tid " << tid << " left spans open";
  }

  // The sweep/bank/solver/batched-tail phases must all be on the
  // timeline (the acceptance floor is >= 6 distinct phase spans).
  for (const char* required :
       {"sweep/job", "bank/prepare", "solver/refresh", "solver/krylov",
        "batch/solve", "tail/control", "tail/power", "tail/sensors",
        "tail/metrics", "session/replay"}) {
    EXPECT_TRUE(names.count(required)) << "missing span: " << required;
  }
  EXPECT_GE(names.size(), 6u);

  if (!env_path || !*env_path) std::remove(path.c_str());
}

// --- Publication -------------------------------------------------------------

TEST(ObsRegistry, ServicePublishesTheSessionCountersOfRunSweep) {
  // Both runners publish every finished session through
  // sim::publish_session, so the same scenarios must move sweep/steps
  // and the solver/, predictor/ and replay/ counters equally.
  const std::vector<sim::Scenario> scenarios = {
      lane_scenario(1), lane_scenario(2), lane_scenario(3), replay_scenario()};
  const auto session_counters = [](const obs::Snapshot& before) {
    auto counters = obs::snapshot().since(before).counters;
    std::erase_if(counters, [](const auto& c) {
      return c.first != "sweep/steps" && !c.first.starts_with("solver/") &&
             !c.first.starts_with("predictor/") &&
             !c.first.starts_with("replay/");
    });
    return counters;
  };
  obs::set_metrics_enabled(true);
  sim::SweepOptions opts;
  opts.jobs = 1;
  opts.batch_width = 1;
  obs::Snapshot before = obs::snapshot();
  ASSERT_TRUE(sim::run_sweep(scenarios, opts).all_ok());
  const auto from_sweep = session_counters(before);
  ASSERT_GT(from_sweep.at("solver/solves"), 0u);
  ASSERT_GT(from_sweep.at("replay/steps_replayed"), 0u);

  service::SweepService service;
  std::promise<void> done;
  before = obs::snapshot();
  const auto on_event = [&](const service::protocol::Message& ev) {
    if (std::holds_alternative<service::protocol::SweepCompleteMsg>(ev)) {
      done.set_value();
    }
  };
  ASSERT_TRUE(service.submit(scenarios, 1, on_event).has_value());
  done.get_future().wait();
  EXPECT_EQ(session_counters(before), from_sweep);
}

// --- Neutrality --------------------------------------------------------------

TEST(ObsNeutrality, TelemetryOnOffSweepsAreBitwiseIdentical) {
  const std::vector<sim::Scenario> scenarios = {lane_scenario(1),
                                                lane_scenario(2)};
  sim::SweepOptions opts;
  opts.jobs = 1;
  opts.batch_width = 2;

  obs::set_metrics_enabled(false);
  const sim::SweepReport off = sim::run_sweep(scenarios, opts);

  obs::set_metrics_enabled(true);
  const std::string trace_path = "test_obs_neutrality_trace.json";
  obs::trace_begin(trace_path);
  const sim::SweepReport on = sim::run_sweep(scenarios, opts);
  obs::trace_end();
  std::remove(trace_path.c_str());

  ASSERT_TRUE(off.all_ok());
  ASSERT_TRUE(on.all_ok());
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    const sim::SimMetrics& a = off.at(i).metrics;
    const sim::SimMetrics& b = on.at(i).metrics;
    EXPECT_EQ(a.duration, b.duration) << i;
    EXPECT_EQ(a.peak_temp, b.peak_temp) << i;
    EXPECT_EQ(a.any_hot_time, b.any_hot_time) << i;
    EXPECT_EQ(a.chip_energy, b.chip_energy) << i;
    EXPECT_EQ(a.pump_energy, b.pump_energy) << i;
    EXPECT_EQ(a.offered_work, b.offered_work) << i;
    EXPECT_EQ(a.lost_work, b.lost_work) << i;
    EXPECT_EQ(a.migrations, b.migrations) << i;
    EXPECT_EQ(a.avg_flow_fraction, b.avg_flow_fraction) << i;
    EXPECT_EQ(a.core_hot_time, b.core_hot_time) << i;
  }
}

}  // namespace
}  // namespace tac3d
