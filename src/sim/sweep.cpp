#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/bank.hpp"
#include "sim/batch.hpp"
#include "sparse/batched.hpp"
#include "thermal/transient.hpp"

namespace tac3d::sim {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Fallback lane count of batched lockstep jobs when the cache topology
/// is unknown (SweepOptions::batch_width == 0 and no L2 size reported):
/// wide enough to amortize the pattern traversal and fill SIMD lanes,
/// small enough that the interleaved working set stays cache-resident on
/// common parts. Measured on the paper matrix with a 2 MiB L2,
/// throughput plateaus at 4-6 lanes and dips at 8.
constexpr int kFallbackBatchWidth = 6;

/// Auto lane count of a batch group (SweepOptions::batch_width == 0):
/// the widest fused-kernel dispatch width whose per-lane slice of the
/// interleaved working set fits in ~2/3 of the L2 cache. One batched
/// step streams, per lane, a column of the interleaved matrix values and
/// ILU factors (~6.3 nonzeros/row each on the paper's structured grids —
/// 7-point conduction stencil thinned by boundaries, plus the advection
/// band) and of ~9 Krylov/step n-vectors; once the sum across lanes
/// spills L2 every traversal re-fetches from L3/DRAM and wider stops
/// paying (the measured 8-lane dip). The width is rounded down to a
/// dispatch width the batched kernels instantiate ({1..8} direct, 16
/// cache-blocked), so the auto choice can exceed 8 only on parts whose
/// L2 genuinely holds 16 lanes.
int auto_batch_width(const Scenario& s) {
  const double layers_per_tier = 3.5;  // bulk + interface (+ cavity)
  const double n = static_cast<double>(s.grid.rows) * s.grid.cols *
                   (layers_per_tier * s.tiers + 1.0);
  const double lane_bytes = (6.3 * n + 9.0 * n) * 8.0;
  long l2 = -1;
#if defined(_SC_LEVEL2_CACHE_SIZE)
  l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
  if (l2 <= 0) return kFallbackBatchWidth;
  const double budget = 2.0 / 3.0 * static_cast<double>(l2);
  const int fit = static_cast<int>(budget / lane_bytes);
  if (fit >= sparse::kMaxBatchLanes) return sparse::kMaxBatchLanes;
  if (fit > 8) return 8;
  return std::max(fit, 1);
}

/// One unit of worker-pool work: a single scenario (scalar path) or the
/// lanes of one batched lockstep group chunk.
struct SweepJob {
  std::vector<std::size_t> slots;  ///< indices into the results array
  double cost = 0.0;  ///< summed estimated_scenario_cost (LPT key)
};

/// Can this scenario join a batched lockstep group? (Direct solvers
/// don't batch — no initial guess, per-lane factorization.)
bool batchable(const Scenario& s) {
  return s.sim.solver == sparse::SolverKind::kBicgstabIlu0;
}

/// Grouping key of batched lockstep jobs: the bank's model key (stack/
/// grid -> sparsity pattern and floorplan) plus the control interval
/// (the operator's C/dt values). Policies, workloads, seeds and
/// tolerances may differ per lane — but continuously flow-modulating
/// (fuzzy) scenarios group separately from the rest: a batch iterates
/// until its slowest lane converges, so coupling ~0-iteration warm-
/// started lanes to 6-8-iteration fuzzy lanes would make the cheap
/// lanes pay the expensive lanes' Krylov work. Splitting by iteration
/// class keeps batches homogeneous (mixed batches remain fully
/// supported — BatchSession doesn't care — this is purely a scheduling
/// heuristic).
std::string batch_group_key(const Scenario& s) {
  return scenario_model_key(s) + "|dt=" +
         std::to_string(std::bit_cast<std::uint64_t>(s.sim.control_dt)) +
         "|fz=" + (s.policy == PolicyKind::kLcFuzzy ? "1" : "0");
}

}  // namespace

int resolve_jobs(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("TAC3D_JOBS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return static_cast<int>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

double estimated_scenario_cost(const Scenario& s,
                               double prepared_setup_factor) {
  const double layers_per_tier = 3.5;  // bulk + interface (+ cavity)
  const double cells = static_cast<double>(s.grid.rows) * s.grid.cols *
                       (layers_per_tier * s.tiers + 1.0);
  const double dt = s.sim.control_dt > 0.0 ? s.sim.control_dt : 0.25;
  const double duration =
      s.sim.duration > 0.0 ? s.sim.duration
                           : static_cast<double>(s.trace_seconds);
  const double flow_weight =
      s.policy == PolicyKind::kLcFuzzy ? 2.0 : 1.0;
  // The leakage-consistent steady init costs on the order of hundreds of
  // transient steps per fixed-point iteration.
  const double steps_equivalent_per_init = 300.0;
  const double setup = prepared_setup_factor * cells *
                       steps_equivalent_per_init *
                       std::max(1, s.sim.init_iterations);
  return cells * (duration / dt) * flow_weight + setup;
}

std::vector<double> prepare_sweep_scenarios(std::span<Scenario> scenarios,
                                            const ScenarioBank* bank) {
  std::vector<double> cost(scenarios.size(), 0.0);
  std::unordered_set<std::string> seen_steady;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    Scenario& s = scenarios[i];
    if (s.label.empty()) s.label = scenario_label(s);
    // Only the first scenario of each steady-tier key pays construction;
    // later equal-keyed ones are clone-and-reset, so the scheduler must
    // not overrate them.
    double setup_factor = 1.0;
    if (bank != nullptr) {
      const std::string key = scenario_steady_key(s);
      if (!seen_steady.insert(key).second || bank->has_steady(key)) {
        setup_factor = kSteadyHitSetupFactor;
      }
    }
    cost[i] = estimated_scenario_cost(s, setup_factor);
  }
  return cost;
}

void publish_session(const SimulationSession& s,
                     const sparse::SolverStats& st) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter steps("sweep/steps");
  static obs::Counter solves("solver/solves");
  static obs::Counter iterations("solver/iterations");
  static obs::Counter refactors("solver/refactors");
  static obs::Counter partials("solver/partial_refactors");
  static obs::Counter deferred("solver/deferred_updates");
  static obs::Counter fcache("solver/factor_cache_hits");
  static obs::Counter retries("solver/retries");
  static obs::Counter pred("predictor/hits");
  static obs::Counter traj("predictor/trajectory_hits");
  static obs::Counter replay_cycles("replay/cycles");
  static obs::Counter replay_steps("replay/steps_replayed");
  static obs::Counter replay_skipped("replay/solves_skipped");
  steps.add(static_cast<std::uint64_t>(s.steps_done()));
  replay_cycles.add(s.replay_cycles());
  replay_steps.add(s.replay_steps());
  replay_skipped.add(s.replay_solves_skipped());
  solves.add(st.solves);
  iterations.add(st.iterations);
  refactors.add(st.refactors);
  partials.add(st.partial_refactors);
  deferred.add(st.deferred_updates);
  fcache.add(st.factor_cache_hits);
  retries.add(st.retries);
  const thermal::TransientSolver& t = s.thermal_solver();
  pred.add(t.predictor_hits());
  traj.add(t.trajectory_hits());
}

SweepReport::SweepReport(std::vector<SweepResult> results, int jobs_used,
                         double wall_seconds)
    : results_(std::move(results)),
      jobs_used_(jobs_used),
      wall_seconds_(wall_seconds) {}

const SweepResult* SweepReport::find(const std::string& label) const {
  for (const SweepResult& r : results_) {
    if (r.scenario.label == label) return &r;
  }
  return nullptr;
}

bool SweepReport::all_ok() const {
  return std::all_of(results_.begin(), results_.end(),
                     [](const SweepResult& r) { return r.ok(); });
}

std::vector<std::string> SweepReport::errors() const {
  std::vector<std::string> out;
  for (const SweepResult& r : results_) {
    if (!r.ok()) out.push_back(r.scenario.label + ": " + r.error);
  }
  return out;
}

SweepReport& SweepReport::sort_by(
    const std::function<double(const SweepResult&)>& key, bool ascending) {
  std::stable_sort(results_.begin(), results_.end(),
                   [&](const SweepResult& a, const SweepResult& b) {
                     return ascending ? key(a) < key(b) : key(a) > key(b);
                   });
  return *this;
}

double SweepReport::setup_seconds_total() const {
  double sum = 0.0;
  for (const SweepResult& r : results_) sum += r.setup_seconds;
  return sum;
}

double SweepReport::stepping_seconds_total() const {
  double sum = 0.0;
  for (const SweepResult& r : results_) sum += r.stepping_seconds;
  return sum;
}

double SweepReport::setup_fraction() const {
  const double setup = setup_seconds_total();
  const double busy = setup + stepping_seconds_total();
  return busy > 0.0 ? setup / busy : 0.0;
}

double SweepReport::solve_seconds_total() const {
  double sum = 0.0;
  for (const SweepResult& r : results_) sum += r.solve_seconds;
  return sum;
}

double SweepReport::tail_seconds_total() const {
  double sum = 0.0;
  for (const SweepResult& r : results_) sum += r.tail_seconds;
  return sum;
}

std::uint64_t SweepReport::replay_cycles_total() const {
  std::uint64_t sum = 0;
  for (const SweepResult& r : results_) sum += r.replay_cycles;
  return sum;
}

std::uint64_t SweepReport::replay_steps_total() const {
  std::uint64_t sum = 0;
  for (const SweepResult& r : results_) sum += r.replay_steps;
  return sum;
}

std::uint64_t SweepReport::replay_solves_skipped_total() const {
  std::uint64_t sum = 0;
  for (const SweepResult& r : results_) sum += r.replay_solves_skipped;
  return sum;
}

double SweepReport::tail_fraction() const {
  const double tail = tail_seconds_total();
  const double instrumented = tail + solve_seconds_total();
  return instrumented > 0.0 ? tail / instrumented : 0.0;
}

std::vector<double> SweepReport::job_busy_seconds() const {
  std::vector<double> busy(static_cast<std::size_t>(std::max(1, jobs_used_)),
                           0.0);
  for (const SweepResult& r : results_) {
    if (r.worker >= 0 && r.worker < static_cast<int>(busy.size())) {
      busy[static_cast<std::size_t>(r.worker)] += r.wall_seconds;
    }
  }
  return busy;
}

std::vector<double> SweepReport::job_utilization() const {
  std::vector<double> util = job_busy_seconds();
  if (wall_seconds_ > 0.0) {
    for (double& u : util) u /= wall_seconds_;
  }
  return util;
}

SweepReport& SweepReport::sort_by_index() {
  std::stable_sort(results_.begin(), results_.end(),
                   [](const SweepResult& a, const SweepResult& b) {
                     return a.index < b.index;
                   });
  return *this;
}

TextTable SweepReport::table() const {
  TextTable t;
  t.set_header({"Scenario", "peak T [C]", "hot any", "hot avg/core",
                "chip E [J]", "pump E [J]", "system E [J]", "perf loss",
                "wall [s]"});
  for (const SweepResult& r : results_) {
    if (!r.ok()) {
      t.add_row({r.scenario.label, "ERROR: " + r.error});
      continue;
    }
    const SimMetrics& m = r.metrics;
    t.add_row({r.scenario.label, fmt(kelvin_to_celsius(m.peak_temp), 1),
               fmt_pct(m.hotspot_frac_any()),
               fmt_pct(m.hotspot_frac_avg_core()), fmt(m.chip_energy, 0),
               fmt(m.pump_energy, 0), fmt(m.system_energy(), 0),
               fmt_pct(m.perf_degradation(), 3), fmt(r.wall_seconds, 2)});
  }
  return t;
}

SweepReport run_sweep(const std::vector<Scenario>& scenarios,
                      const SweepOptions& opts) {
  const auto sweep_start = std::chrono::steady_clock::now();
  std::shared_ptr<ScenarioBank> bank;
  if (opts.use_bank) {
    bank = opts.bank ? opts.bank : std::make_shared<ScenarioBank>();
  }
  std::vector<Scenario> specs = scenarios;
  const std::vector<double> cost = prepare_sweep_scenarios(specs, bank.get());
  std::vector<SweepResult> results(specs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    results[i].index = i;
    results[i].scenario = std::move(specs[i]);
  }

  // Partition the sweep into jobs: with the bank on and batching
  // enabled, scenarios sharing a batch group key (pattern, dt, solver
  // kind) are chunked into lockstep BatchSession jobs of up to the
  // group's lane cap — the explicit SweepOptions::batch_width, or the
  // cache-fit auto width of the group's model (auto_batch_width);
  // everything else runs scalar, one job per scenario. Chunks honor
  // input order within a group.
  const bool batching = bank != nullptr && opts.batch_width != 1;
  const int explicit_width =
      std::min(opts.batch_width, sparse::kMaxBatchLanes);
  int batch_width_used = 0;
  std::vector<SweepJob> sweep_jobs;
  {
    std::vector<std::string> group_order;
    std::unordered_map<std::string, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Scenario& s = results[i].scenario;
      if (batching && batchable(s)) {
        const std::string key = batch_group_key(s);
        auto [it, fresh] = groups.try_emplace(key);
        if (fresh) group_order.push_back(key);
        it->second.push_back(i);
      } else {
        sweep_jobs.push_back({{i}, cost[i]});
      }
    }
    for (const std::string& key : group_order) {
      const std::vector<std::size_t>& members = groups[key];
      const int batch_width =
          explicit_width > 0
              ? explicit_width
              : auto_batch_width(results[members.front()].scenario);
      if (members.size() > 1 && batch_width > 1) {
        batch_width_used = std::max(batch_width_used, batch_width);
      }
      // Balanced chunking: a group of 8 at width 6 becomes 4+4, not 6+2
      // — equal-width batches amortize the shared traversals evenly
      // instead of leaving a runt batch.
      const std::size_t chunks =
          (members.size() + static_cast<std::size_t>(batch_width) - 1) /
          static_cast<std::size_t>(batch_width);
      std::size_t at = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t take =
            (members.size() - at + (chunks - c) - 1) / (chunks - c);
        SweepJob job;
        for (std::size_t m = at; m < at + take; ++m) {
          job.slots.push_back(members[m]);
          job.cost += cost[members[m]];
        }
        at += take;
        sweep_jobs.push_back(std::move(job));
      }
    }
  }

  const int jobs = std::max(
      1, std::min<int>(resolve_jobs(opts.jobs),
                       static_cast<int>(sweep_jobs.size())));

  // Work order: first-slot order when serial (progressive on_result
  // output close to the order the caller wrote); longest-estimated-first
  // when parallel, so one expensive job picked up last cannot serialize
  // the tail of the sweep. Results stay in input order either way.
  std::vector<std::size_t> order(sweep_jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (jobs > 1) {
                       return sweep_jobs[a].cost > sweep_jobs[b].cost;
                     }
                     return sweep_jobs[a].slots.front() <
                            sweep_jobs[b].slots.front();
                   });

  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> compaction_total{0};
  std::mutex report_mutex;

  auto publish_result = [](const SweepResult& r) {
    if (!obs::metrics_enabled()) return;
    static obs::Counter scenarios("sweep/scenarios");
    static obs::Counter failures("sweep/scenarios_failed");
    static obs::HistogramMetric setup_s("sweep/setup_seconds");
    static obs::HistogramMetric stepping_s("sweep/stepping_seconds");
    static obs::HistogramMetric solve_s("sweep/solve_seconds");
    static obs::HistogramMetric tail_s("sweep/tail_seconds");
    scenarios.add();
    if (!r.ok()) failures.add();
    setup_s.record(r.setup_seconds);
    stepping_s.record(r.stepping_seconds);
    solve_s.record(r.solve_seconds);
    tail_s.record(r.tail_seconds);
  };

  // Materialize (bank: compile), time the construction and the stepping
  // separately, and run to the end. The owner keeps the session's
  // referenced objects alive for its whole scope.
  auto run_one = [&](SweepResult& r, ScenarioInstance owner,
                     std::chrono::steady_clock::time_point t0) {
    SimulationSession session = owner.session();
    r.setup_seconds = seconds_since(t0);
    const auto t1 = std::chrono::steady_clock::now();
    session.run_to_end();
    r.metrics = session.metrics();
    r.stepping_seconds = seconds_since(t1);
    r.solve_seconds = session.solve_seconds();
    r.tail_seconds = session.tail_seconds();
    r.replay_cycles = session.replay_cycles();
    r.replay_steps = session.replay_steps();
    r.replay_solves_skipped = session.replay_solves_skipped();
    publish_session(session, session.solver_stats());
  };

  auto deliver = [&](const SweepResult& r) {
    publish_result(r);
    if (opts.on_result) {
      const std::lock_guard<std::mutex> lock(report_mutex);
      opts.on_result(r);
    }
  };

  // One scenario on the scalar path (bank or from-scratch).
  auto run_scalar = [&](SweepResult& r, int worker_id) {
    obs::TraceSpan job_span("sweep/job");
    r.worker = worker_id;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      run_one(r,
              bank != nullptr ? bank->prepare(r.scenario)
                              : instantiate(r.scenario),
              t0);
    } catch (const std::exception& e) {
      r.error = e.what();
    } catch (...) {
      r.error = "unknown error";
    }
    r.wall_seconds = r.ok() ? r.setup_seconds + r.stepping_seconds
                            : seconds_since(t0);
    deliver(r);
  };

  // One batched lockstep job: prepare every lane through the bank
  // (per-lane setup timing, per-lane error isolation), run the
  // BatchSession to completion, split the shared stepping wall across
  // lanes by their step counts.
  auto run_batch = [&](const SweepJob& job, int worker_id) {
    obs::TraceSpan job_span("sweep/job");
    std::vector<ScenarioInstance> prep;
    std::vector<std::size_t> lane_slots;
    prep.reserve(job.slots.size());
    for (const std::size_t slot : job.slots) {
      SweepResult& r = results[slot];
      r.worker = worker_id;
      const auto t0 = std::chrono::steady_clock::now();
      try {
        prep.push_back(bank->prepare(r.scenario));
        lane_slots.push_back(slot);
        r.setup_seconds = seconds_since(t0);
      } catch (const std::exception& e) {
        r.error = e.what();
      } catch (...) {
        r.error = "unknown error";
      }
      if (!r.ok()) {
        r.wall_seconds = seconds_since(t0);
        deliver(r);
      }
    }
    if (lane_slots.empty()) return;

    const int lanes = static_cast<int>(lane_slots.size());
    const auto t1 = std::chrono::steady_clock::now();
    try {
      BatchSession batch(std::move(prep));
      batch.run_to_end();
      compaction_total.fetch_add(batch.compaction_events(),
                                 std::memory_order_relaxed);
      if (obs::metrics_enabled()) {
        static obs::Counter compactions("batch/compaction_events");
        compactions.add(batch.compaction_events());
        for (int l = 0; l < lanes; ++l) {
          if (batch.has_session(l)) {
            publish_session(batch.session(l), batch.solver_stats(l));
          }
        }
      }
      const double stepping = seconds_since(t1);
      const double solve = batch.solve_seconds();
      const double tail = batch.tail_seconds();
      double total_steps = 0.0;
      for (int l = 0; l < lanes; ++l) total_steps += batch.lane_steps(l);
      for (int l = 0; l < lanes; ++l) {
        SweepResult& r = results[lane_slots[static_cast<std::size_t>(l)]];
        r.batch_lanes = lanes;
        const double share = total_steps > 0.0
                                 ? batch.lane_steps(l) / total_steps
                                 : 1.0 / lanes;
        r.stepping_seconds = stepping * share;
        r.solve_seconds = solve * share;
        r.tail_seconds = tail * share;
        r.wall_seconds = r.setup_seconds + r.stepping_seconds;
        if (batch.lane_ok(l)) {
          r.metrics = batch.metrics(l);
        } else {
          r.error = batch.lane_error(l);
        }
        deliver(r);
      }
    } catch (const std::exception& e) {
      // Lane-level failures are isolated inside BatchSession; reaching
      // here means the batch itself could not run (e.g. a driver
      // invariant) — fail every lane rather than the whole sweep.
      for (const std::size_t slot : lane_slots) {
        SweepResult& r = results[slot];
        r.error = e.what();
        r.wall_seconds = r.setup_seconds + seconds_since(t1);
        deliver(r);
      }
    }
  };

  auto worker = [&](int worker_id) {
    for (;;) {
      const std::size_t slot = next.fetch_add(1);
      if (slot >= order.size()) return;
      SweepJob& job = sweep_jobs[order[slot]];
      if (job.slots.size() == 1) {
        run_scalar(results[job.slots.front()], worker_id);
      } else {
        run_batch(job, worker_id);
      }
    }
  };

  if (jobs == 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (int j = 0; j < jobs; ++j) pool.emplace_back(worker, j);
    for (std::thread& t : pool) t.join();
  }

  SweepReport report(std::move(results), jobs, seconds_since(sweep_start));
  report.set_bank(std::move(bank));
  report.set_batch_telemetry(batch_width_used,
                             compaction_total.load(std::memory_order_relaxed));
  return report;
}

}  // namespace tac3d::sim
