// paper_sweep: the paper's Fig. 6/7 matrix (seven stack x policy
// configurations x the four average-case workloads plus max-util, 180 s
// traces, 16x16 grid) swept on two pinned workers through a bank that
// set-up has warmed, with default SweepOptions (auto batch width).
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "obs/metrics.hpp"
#include "sim/bank.hpp"
#include "sim/sweep.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace tac3d;

constexpr int kSweepJobs = 2;
/// Every run sweeps the matrix over these trace seeds: enough that
/// batching leaves >= 8 lockstep jobs per worker, so a sweep measures
/// throughput, not its longest job. The run seed shuffles the scenario
/// order, which decides how scenarios share lockstep batches; a traced
/// run keeps the build order, so its exact counters are the same for
/// every seed.
const std::vector<std::uint64_t> kTraceSeeds = {1, 2, 3};
constexpr int kSetupReps = 9;
/// Fixed TTFR limit of a scenario of the sweep: its result within 30 s
/// of submitting the sweep.
constexpr double kSweepTtfrLimitMs = 30000.0;

std::vector<sim::Scenario> paper_matrix(std::vector<std::uint64_t> seeds) {
  return sim::ScenarioMatrix::paper_fig67()
      .workloads({power::WorkloadKind::kWebServer,
                  power::WorkloadKind::kDatabase,
                  power::WorkloadKind::kMultimedia,
                  power::WorkloadKind::kMixed, power::WorkloadKind::kMaxUtil})
      .seeds(std::move(seeds))
      .build();
}

/// The workload ready to sweep: its scenarios and a bank that has
/// prepared every one of them.
struct Prepared {
  std::vector<sim::Scenario> scenarios;
  std::shared_ptr<sim::ScenarioBank> bank;
  double seconds = 0.0;          ///< matrix build + prepare
  double prepare_seconds = 0.0;  ///< the prepare pass alone
  sim::BankCounters counters;    ///< of the prepare pass
};

/// \p shuffle_seed, when given, shuffles the scenario order.
Prepared set_up(std::optional<std::uint64_t> shuffle_seed) {
  trace::Span span("sweep/setup");
  Prepared p;
  const Clock::time_point t0 = Clock::now();
  {
    trace::Span build("sweep/matrix_build");
    p.scenarios = paper_matrix(kTraceSeeds);
    if (shuffle_seed) {
      Rng rng(*shuffle_seed);
      shuffle(p.scenarios, rng);
    }
  }
  p.bank = std::make_shared<sim::ScenarioBank>();
  const Clock::time_point t1 = Clock::now();
  for (const sim::Scenario& s : p.scenarios) {
    trace::Span prepare("bank/prepare");
    (void)p.bank->prepare(s);
  }
  p.prepare_seconds = seconds_since(t1);
  p.seconds = seconds_since(t0);
  p.counters = p.bank->counters();
  return p;
}

double hit_ratio(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t n = hits + misses;
  return n > 0 ? static_cast<double>(hits) / static_cast<double>(n) : 0.0;
}

double counter(const obs::Snapshot& snap, const char* name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
}

/// One timed sweep on the warm bank. Each scenario is a request due at
/// submission whose one result is its on_result delivery.
/// \p overhead_sample (optional) receives the seconds per scenario.
sim::SweepReport timed_sweep(const Prepared& p, RunRecord& rec,
                             const char* overhead_sample) {
  sim::SweepOptions opts;
  opts.jobs = kSweepJobs;
  opts.bank = p.bank;
  const Clock::time_point t0 = Clock::now();
  std::vector<double> result_ms(p.scenarios.size(), -1.0);
  // on_result calls are serialized by run_sweep; result_ms is read only
  // after run_sweep has joined its workers.
  opts.on_result = [&](const sim::SweepResult& r) {
    result_ms.at(r.index) = seconds_since(t0) * 1e3;
  };
  trace::Span span("sweep/run_sweep");
  sim::SweepReport report = sim::run_sweep(p.scenarios, opts);
  const double wall = seconds_since(t0);
  span.close();

  rec.attempted += static_cast<std::int64_t>(p.scenarios.size());
  rec.expected_outputs += static_cast<std::int64_t>(p.scenarios.size());
  std::int64_t steps = 0, ok = 0;
  for (const sim::SweepResult& r : report.results()) {
    const double ms = result_ms[r.index];
    rec.requests.push_back({ms, ms, r.ok()});
    if (!r.ok()) {
      ++rec.failed;
      continue;
    }
    ++ok;
    steps += std::llround(r.metrics.duration / r.scenario.sim.control_dt);
    rec.add_output(scenario_key(r.scenario), r.metrics);
  }
  // Only scenarios that produced a result count as throughput.
  rec.samples["scenarios_per_s"].push_back(static_cast<double>(ok) / wall);
  rec.samples["steps_per_s"].push_back(static_cast<double>(steps) / wall);
  if (overhead_sample != nullptr) {
    rec.layer_samples[overhead_sample].push_back(
        wall / static_cast<double>(p.scenarios.size()));
  }
  return report;
}

/// Fewest scenarios any worker of the sweep ran.
double min_scenarios_per_worker(const sim::SweepReport& report) {
  std::vector<int> per_worker(static_cast<std::size_t>(report.jobs_used()), 0);
  for (const sim::SweepResult& r : report.results()) {
    if (r.worker >= 0 && r.worker < report.jobs_used()) {
      ++per_worker[static_cast<std::size_t>(r.worker)];
    }
  }
  return per_worker.empty()
             ? 0.0
             : *std::min_element(per_worker.begin(), per_worker.end());
}

/// Per-layer record of one traced sweep.
void record_sweep_layers(const sim::SweepReport& report,
                         const obs::Snapshot& delta, RunRecord& rec) {
  auto& ls = rec.layer_samples;
  double busy = 0.0;
  double steps = 0.0;
  int batched = 0;
  for (const sim::SweepResult& r : report.results()) {
    steps += std::round(r.metrics.duration / r.scenario.sim.control_dt);
    ls["sweep.setup_ms"].push_back(r.setup_seconds * 1e3);
    ls["sweep.scenario_ms"].push_back(r.wall_seconds * 1e3);
    busy += r.wall_seconds;
    if (r.batch_lanes > 0) {
      ++batched;
      ls["batch.lanes"].push_back(r.batch_lanes);
    }
  }
  for (const double u : report.job_utilization()) {
    ls["sweep.job_utilization"].push_back(u);
  }
  ls["sweep.solve_s"].push_back(report.solve_seconds_total());
  ls["sweep.tail_s"].push_back(report.tail_seconds_total());
  ls["sweep.effective_cores"].push_back(busy / report.wall_seconds());

  auto& lv = rec.layer_values;
  lv["sweep.scenarios_per_worker"] = min_scenarios_per_worker(report);
  lv["batch.lane_fraction"] =
      static_cast<double>(batched) / static_cast<double>(report.size());
  lv["batch.compaction_events"] =
      static_cast<double>(report.batch_compaction_events());
  lv["sparse.solves"] = counter(delta, "solver/solves");
  lv["sparse.iterations"] = counter(delta, "solver/iterations");
  lv["sparse.refactors"] = counter(delta, "solver/refactors");
  lv["sparse.partial_refactors"] = counter(delta, "solver/partial_refactors");
  lv["sparse.factor_cache_hits"] = counter(delta, "solver/factor_cache_hits");
  lv["sparse.retries"] = counter(delta, "solver/retries");
  lv["thermal.trajectory_hits"] = counter(delta, "predictor/trajectory_hits");
  lv["replay.cycles"] = static_cast<double>(report.replay_cycles_total());
  lv["replay.solves_skipped"] =
      static_cast<double>(report.replay_solves_skipped_total());
  lv["replay.steps_replayed_fraction"] =
      steps > 0.0 ? static_cast<double>(report.replay_steps_total()) / steps
                  : 0.0;
}

}  // namespace

std::vector<sim::Scenario> paper_sweep_pool() {
  return paper_matrix(kTraceSeeds);
}

RunRecord run_paper_sweep(const RunOptions& opt) {
  RunRecord rec;
  rec.ttfr_limit_ms = kSweepTtfrLimitMs;

  const std::optional<std::uint64_t> order =
      opt.traced ? std::nullopt : std::optional<std::uint64_t>(opt.seed);
  Prepared prepared;
  for (int i = 0; i < kSetupReps; ++i) {
    prepared = set_up(order);
    rec.samples["setup_s"].push_back(prepared.seconds);
    rec.layer_samples["bank.prepare_cold_s"].push_back(
        prepared.prepare_seconds);
  }
  const sim::BankCounters& c = prepared.counters;
  rec.layer_values["bank.trace_hit_ratio"] =
      hit_ratio(c.trace_hits, c.trace_misses);
  rec.layer_values["bank.model_hit_ratio"] =
      hit_ratio(c.model_hits, c.model_misses);
  rec.layer_values["bank.steady_hit_ratio"] =
      hit_ratio(c.steady_hits, c.steady_misses);

  // Untraced pass (the whole budget unless traced).
  const double untraced_budget = opt.traced ? opt.seconds / 2 : opt.seconds;
  repeat_for(untraced_budget, [&] {
    timed_sweep(prepared, rec, opt.traced ? "trace.overhead.base" : nullptr);
  });
  if (!opt.traced) return rec;

  // Traced pass: one traced set-up, then sweeps on its bank.
  trace::start();
  const Clock::time_point t1 = Clock::now();
  prepared = set_up(order);
  bool first = true;
  repeat_for(opt.seconds / 2 - seconds_since(t1), [&] {
    const obs::Snapshot before = obs::snapshot();
    const sim::SweepReport report =
        timed_sweep(prepared, rec, "trace.overhead.traced");
    if (first) record_sweep_layers(report, obs::snapshot().since(before), rec);
    first = false;
  });
  const double traced_wall = seconds_since(t1);
  trace::stop();
  for (const auto& [layer, s] : trace::self_seconds_by_layer()) {
    rec.layer_values["self." + layer] = s / traced_wall;
  }
  return rec;
}

}  // namespace perfbench
