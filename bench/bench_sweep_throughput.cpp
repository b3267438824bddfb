// Sweep-runner throughput: the paper's seven Fig. 6/7 configurations
// executed as a batch. Four legs isolate where the time goes:
//
//   serial nocache   bank off — every scenario pays full construction,
//                    symbolic analysis included (the reference path)
//   serial compile   fresh ScenarioBank — first touch of every key,
//                    misses included
//   serial cached    the same bank, warm — the steady-state regime of
//                    repeated design-space sweeps: construction-free
//   parallel cached  warm bank on the worker pool
//
// (All four pin batch_width = 1 so they keep measuring the scalar
// stepping path the baselines were recorded on.)
//
// A fifth/sixth leg measures batched lockstep stepping on a seed-
// extended paper matrix (bigger same-pattern groups, the regime batching
// targets): warm-bank serial scalar vs warm-bank serial batched, one
// core stepping several same-pattern scenarios per matrix traversal
// (auto batch width, currently 6 lanes). Headline: batched_per_sec and
// the batched/serial ratio.
//
// Emits BENCH_sweep.json (scenarios/sec, setup-vs-stepping split,
// bank counters, batched leg) so design-space-
// exploration throughput is tracked from PR 2 onward, and cross-checks
// that neither cache tier nor lane batching perturbs a single bit of
// the metrics.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "obs/metrics.hpp"
#include "sim/bank.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace tac3d;

std::vector<sim::Scenario> bench_scenarios() {
  return sim::ScenarioMatrix::paper_fig67()
      .workloads({power::WorkloadKind::kMaxUtil})
      .trace_seconds(30)
      .grid(thermal::GridOptions{12, 12})
      .build();
}

/// The batched leg's workload: the paper matrix swept over seeds, the
/// design-space-exploration shape (policies x stacks x seeds) whose
/// same-pattern groups are wide enough to fill 8 lanes.
std::vector<sim::Scenario> batch_scenarios() {
  return sim::ScenarioMatrix::paper_fig67()
      .workloads({power::WorkloadKind::kMaxUtil})
      .seeds({1, 2, 3, 4, 5, 6, 7, 8})
      .trace_seconds(30)
      .grid(thermal::GridOptions{12, 12})
      .build();
}

/// The fuzzy-group leg: one 8-seed group of continuously flow-modulating
/// (LC_FUZZY) scenarios — the staggered-convergence regime. Fuzzy lanes
/// run real 4-8-iteration Krylov solves whose lanes converge at
/// different iterations, so this is where mid-solve lane compaction
/// (narrowing the fused kernels as lanes finish) earns its keep; the
/// mixed matrix above is dominated by ~0-iteration warm-started steps.
std::vector<sim::Scenario> fuzzy_scenarios() {
  return sim::ScenarioMatrix{}
      .tiers({2})
      .policies({sim::PolicyKind::kLcFuzzy})
      .workloads({power::WorkloadKind::kMaxUtil})
      .seeds({1, 2, 3, 4, 5, 6, 7, 8})
      .trace_seconds(30)
      .grid(thermal::GridOptions{12, 12})
      .build();
}

bool same_metrics(const sim::SweepReport& a, const sim::SweepReport& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const sim::SimMetrics& ma = a.at(i).metrics;
    const sim::SimMetrics& mb = b.at(i).metrics;
    if (ma.peak_temp != mb.peak_temp || ma.chip_energy != mb.chip_energy ||
        ma.pump_energy != mb.pump_energy ||
        ma.any_hot_time != mb.any_hot_time ||
        ma.migrations != mb.migrations) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  bench::banner(
      "SWEEP - scenario batch throughput (BENCH_sweep.json)",
      "Figs. 6/7 regime: the full stack x policy matrix evaluated as one "
      "batch; the ScenarioBank compiles each configuration once (trace / "
      "model / steady tiers) and hands out clone-and-reset sessions");

  const auto scenarios = bench_scenarios();

  auto run = [&](int jobs, bool use_bank,
                 std::shared_ptr<sim::ScenarioBank> bank) {
    sim::SweepOptions opts;
    opts.jobs = jobs;
    opts.use_bank = use_bank;
    opts.bank = std::move(bank);
    // These legacy legs track the scalar stepping path; the batched legs
    // below measure lockstep batching separately.
    opts.batch_width = 1;
    return sim::run_sweep(scenarios, opts);
  };

  // The parallel leg measures real concurrency, so it never asks for
  // more workers than physical cores: TAC3D_JOBS beyond the core count
  // only timeshares a core between workers (that was the "parallel
  // slower than serial" regression — 2 pinned jobs on a 1-core host).
  const unsigned hw_raw = std::thread::hardware_concurrency();
  const int hw_cores = hw_raw > 0 ? static_cast<int>(hw_raw) : 1;
  const int parallel_jobs = std::min(sim::resolve_jobs(0), hw_cores);

  const auto bank = std::make_shared<sim::ScenarioBank>();
  const sim::SweepReport cold = run(1, false, nullptr);
  const sim::SweepReport compile = run(1, true, bank);  // first touch
  const sim::SweepReport cached = run(1, true, bank);   // warm bank

  // Telemetry A/B on the same warm bank: the registry is compiled in
  // unconditionally, so the honest overhead measurement is publication
  // enabled vs disabled within one binary. check_bench_regression.py
  // gates telemetry_overhead_ratio >= 0.97.
  obs::set_metrics_enabled(false);
  const sim::SweepReport telem_off = run(1, true, bank);
  obs::set_metrics_enabled(true);
  const obs::Snapshot snap_before = obs::snapshot();
  const sim::SweepReport telem_on = run(1, true, bank);
  const obs::Snapshot phases = obs::snapshot().since(snap_before);

  // On a single-core host the parallel leg cannot measure concurrency —
  // two workers would just timeshare the core and the leg reads as a
  // regression. Skip it there: reuse the warm serial report for its
  // slots and flag the skip in the JSON so the gate knows the numbers
  // are placeholders.
  const bool run_parallel = hw_cores > 1;
  // JSON value of parallel-leg columns when the leg is skipped:
  // JsonObject emits non-finite doubles as null.
  const double skipped_marker = std::numeric_limits<double>::quiet_NaN();
  const sim::SweepReport parallel =
      run_parallel ? run(parallel_jobs, true, bank) : cached;

  // Batched lockstep legs: same warm-bank serial regime, scalar vs
  // batched, on the seed-extended matrix (one core stepping several
  // same-pattern scenarios per matrix traversal at the auto width).
  const auto bscenarios = batch_scenarios();
  auto run_batchset = [&](int width) {
    sim::SweepOptions opts;
    opts.jobs = 1;
    opts.bank = bank;
    opts.batch_width = width;
    return sim::run_sweep(bscenarios, opts);
  };
  run_batchset(1);  // warm the bank's seed-extended entries
  const sim::SweepReport bserial = run_batchset(1);
  const sim::SweepReport bbatched = run_batchset(0);  // auto width

  // Fuzzy-group legs: one same-pattern group of staggered-convergence
  // lanes, scalar vs batched (where lane compaction pays).
  const auto fscenarios = fuzzy_scenarios();
  auto run_fuzzyset = [&](int width) {
    sim::SweepOptions opts;
    opts.jobs = 1;
    opts.bank = bank;
    opts.batch_width = width;
    return sim::run_sweep(fscenarios, opts);
  };
  run_fuzzyset(1);  // warm the bank's fuzzy entries
  const sim::SweepReport fserial = run_fuzzyset(1);
  const sim::SweepReport fbatched = run_fuzzyset(0);  // auto width

  // Limit-cycle replay leg: one long-horizon exactly-periodic closed
  // loop (kPeriodic workload, 12 s period, banded solver) stepped to
  // completion with replay on vs off. Once the warm-up transient decays
  // the loop bitwise-recurs; the replay path locks onto that and
  // fast-forwards whole cycles from its journal with zero linear
  // solves, so the on/off steps-per-second ratio is the headline number
  // of this ceiling lever. Parity is asserted bitwise like every other
  // leg: identical metrics AND identical final temperature vectors.
  sim::Scenario periodic;
  periodic.label = "2-tier LC_LB periodic long-horizon";
  periodic.tiers = 2;
  periodic.policy = sim::PolicyKind::kLcLb;
  periodic.workload = power::WorkloadKind::kPeriodic;
  periodic.seed = 7;
  periodic.trace_seconds = 2400;
  periodic.grid = thermal::GridOptions{8, 8};
  // Replay arms only for the direct solver, whose solve is a pure
  // function of the current state (sim/replay.hpp).
  periodic.sim.solver = sparse::SolverKind::kBandedLu;

  struct ReplayLeg {
    double seconds = 0.0;
    int steps = 0;
    sim::SimMetrics metrics;
    std::vector<double> temps;
    std::uint64_t cycles = 0, steps_replayed = 0, solves_skipped = 0;
  };
  const auto run_replay_leg = [&](bool replay_enabled) {
    sim::Scenario s = periodic;
    s.sim.limit_cycle_replay = replay_enabled;
    sim::ScenarioInstance inst = sim::instantiate(s);
    sim::SimulationSession session = inst.session();
    ReplayLeg leg;
    const bench::Stopwatch sw;
    leg.steps = session.run_to_end();
    leg.seconds = sw.seconds();
    leg.metrics = session.metrics();
    leg.temps.assign(session.temperatures().begin(),
                     session.temperatures().end());
    leg.cycles = session.replay_cycles();
    leg.steps_replayed = session.replay_steps();
    leg.solves_skipped = session.replay_solves_skipped();
    return leg;
  };
  const ReplayLeg replay_off_leg = run_replay_leg(false);
  const ReplayLeg replay_on_leg = run_replay_leg(true);
  const bool replay_bitwise =
      replay_on_leg.steps == replay_off_leg.steps &&
      replay_on_leg.temps == replay_off_leg.temps &&
      replay_on_leg.metrics.peak_temp == replay_off_leg.metrics.peak_temp &&
      replay_on_leg.metrics.chip_energy ==
          replay_off_leg.metrics.chip_energy &&
      replay_on_leg.metrics.pump_energy ==
          replay_off_leg.metrics.pump_energy &&
      replay_on_leg.metrics.any_hot_time ==
          replay_off_leg.metrics.any_hot_time &&
      replay_on_leg.metrics.offered_work ==
          replay_off_leg.metrics.offered_work &&
      replay_on_leg.metrics.lost_work == replay_off_leg.metrics.lost_work &&
      replay_on_leg.metrics.avg_flow_fraction ==
          replay_off_leg.metrics.avg_flow_fraction &&
      replay_on_leg.metrics.migrations == replay_off_leg.metrics.migrations;
  const double replay_off_sps =
      replay_off_leg.steps / replay_off_leg.seconds;
  const double replay_on_sps = replay_on_leg.steps / replay_on_leg.seconds;
  const double replay_speedup = replay_on_sps / replay_off_sps;

  for (const auto* r : {&cold, &compile, &cached, &parallel, &telem_off,
                        &telem_on, &bserial, &bbatched, &fserial,
                        &fbatched}) {
    if (!r->all_ok()) {
      for (const auto& e : r->errors()) std::cerr << "ERROR: " << e << '\n';
      return 1;
    }
  }
  const bool bitwise_ok = same_metrics(cold, compile) &&
                          same_metrics(cold, cached) &&
                          same_metrics(cold, parallel) &&
                          same_metrics(cold, telem_off) &&
                          same_metrics(cold, telem_on) &&
                          same_metrics(bserial, bbatched) &&
                          same_metrics(fserial, fbatched) && replay_bitwise;

  const double telem_off_per_sec = telem_off.size() / telem_off.wall_seconds();
  const double telem_on_per_sec = telem_on.size() / telem_on.wall_seconds();
  const double telem_ratio = telem_on_per_sec / telem_off_per_sec;

  int batched_lanes_max = 0;
  int batched_count = 0;
  for (const auto& r : bbatched.results()) {
    if (r.batch_lanes > 1) {
      ++batched_count;
      batched_lanes_max = std::max(batched_lanes_max, r.batch_lanes);
    }
  }
  const double batched_per_sec = bbatched.size() / bbatched.wall_seconds();
  const double batched_baseline_per_sec =
      bserial.size() / bserial.wall_seconds();
  const double batched_ratio = batched_per_sec / batched_baseline_per_sec;

  const double fuzzy_serial_per_sec = fserial.size() / fserial.wall_seconds();
  const double fuzzy_group_per_sec =
      fbatched.size() / fbatched.wall_seconds();
  const double fuzzy_ratio = fuzzy_group_per_sec / fuzzy_serial_per_sec;

  TextTable t;
  t.set_header({"Configuration", "jobs", "wall [s]", "scenarios/s",
                "setup [s]", "stepping [s]", "setup frac", "tail frac"});
  const auto add = [&](const char* label, const sim::SweepReport& r) {
    t.add_row({label, fmt(r.jobs_used(), 0), fmt(r.wall_seconds(), 2),
               fmt(r.size() / r.wall_seconds(), 2),
               fmt(r.setup_seconds_total(), 2),
               fmt(r.stepping_seconds_total(), 2),
               fmt_pct(r.setup_fraction()), fmt_pct(r.tail_fraction())});
  };
  add("serial, no caches", cold);
  add("serial, bank compile (cold)", compile);
  add("serial, bank warm", cached);
  add("serial, warm, telemetry off", telem_off);
  add("serial, warm, telemetry on", telem_on);
  add(run_parallel ? "parallel, bank warm"
                   : "parallel, bank warm (skipped: 1 core)",
      parallel);
  add("serial scalar, warm (seeded matrix)", bserial);
  add("serial batched, warm (seeded matrix)", bbatched);
  add("serial scalar, warm (fuzzy group)", fserial);
  add("serial batched, warm (fuzzy group)", fbatched);
  std::cout << t << '\n';

  bench::result_line("Telemetry overhead ratio (on/off, warm serial)",
                     telem_ratio, "x");
  // Phase breakdown straight from the registry snapshot delta of the
  // telemetry-on leg: where the sweep's wall time went, as published by
  // the sessions themselves.
  {
    std::cout << "  Registry phase breakdown (telemetry-on leg):";
    for (const char* name :
         {"sweep/setup_seconds", "sweep/stepping_seconds",
          "sweep/solve_seconds", "sweep/tail_seconds"}) {
      const auto it = phases.histograms.find(name);
      if (it == phases.histograms.end()) continue;
      std::cout << " " << name << "=" << fmt(it->second.sum(), 2) << "s";
    }
    std::cout << '\n';
  }
  bench::result_line("Batched scenarios/s", batched_per_sec, "scn/s");
  bench::result_line("Batched vs serial (warm, same matrix)", batched_ratio,
                     "x");
  std::cout << "  Batched lanes: " << batched_count << " of "
            << bbatched.size() << " scenarios in lockstep batches up to "
            << batched_lanes_max << " wide (chunk width "
            << bbatched.batch_width_used() << ", "
            << bbatched.batch_compaction_events()
            << " mid-solve compactions)\n";
  bench::result_line("Fuzzy-group batched scenarios/s", fuzzy_group_per_sec,
                     "scn/s");
  bench::result_line("Fuzzy-group batched vs serial", fuzzy_ratio, "x");
  std::cout << "  Fuzzy-group mid-solve compactions: "
            << fbatched.batch_compaction_events() << " (chunk width "
            << fbatched.batch_width_used() << ")\n";
  bench::result_line("Replay-off steps/s (periodic long-horizon)",
                     replay_off_sps, "steps/s");
  bench::result_line("Replay-on steps/s", replay_on_sps, "steps/s");
  bench::result_line("Replay speedup (on/off)", replay_speedup, "x");
  std::cout << "  Replay: " << replay_on_leg.steps_replayed << " of "
            << replay_on_leg.steps << " steps fast-forwarded over "
            << replay_on_leg.cycles << " replay bursts, "
            << replay_on_leg.solves_skipped << " linear solves skipped\n";

  const sim::BankCounters counters = bank->counters();
  bench::result_line("Bank steady-tier entries",
                     static_cast<double>(bank->steady_entries()), "");
  bench::result_line("Bank steady hits",
                     static_cast<double>(counters.steady_hits), "");
  bench::result_line("Bank steady misses",
                     static_cast<double>(counters.steady_misses), "");

  // Per-job utilization of the parallel run: busy/wall per worker. Low
  // utilization means pool startup or imbalance; ~1.0 on every worker
  // with no speedup means the workers are timesharing cores (the
  // "TAC3D_JOBS > hardware cores" footgun — resolve_jobs honors the pin
  // verbatim by design, which is why this bench clamps its parallel leg
  // to physical cores itself, above).
  const std::vector<double> util = parallel.job_utilization();
  double util_min = 1.0, util_sum = 0.0;
  std::cout << "  Parallel per-job utilization:";
  for (std::size_t j = 0; j < util.size(); ++j) {
    std::cout << " j" << j << "=" << fmt(util[j], 2);
    util_min = std::min(util_min, util[j]);
    util_sum += util[j];
  }
  const double util_avg = util.empty() ? 0.0 : util_sum / util.size();
  std::cout << "\n  Metrics bitwise identical across all runs: "
            << (bitwise_ok ? "yes" : "NO — BUG") << "\n\n";

  // The telemetry-on leg's registry delta as a machine-readable phase
  // breakdown (seconds by phase plus the headline counters), so
  // dashboards can track where sweep time goes without re-deriving it
  // from per-leg wall clocks.
  bench::JsonObject phase_json;
  {
    const auto phase_sum = [&](const char* name) {
      const auto it = phases.histograms.find(name);
      return it == phases.histograms.end() ? 0.0 : it->second.sum();
    };
    const auto phase_count = [&](const char* name) {
      const auto it = phases.counters.find(name);
      return it == phases.counters.end()
                 ? std::int64_t{0}
                 : static_cast<std::int64_t>(it->second);
    };
    phase_json.set("setup_seconds", phase_sum("sweep/setup_seconds"))
        .set("stepping_seconds", phase_sum("sweep/stepping_seconds"))
        .set("solve_seconds", phase_sum("sweep/solve_seconds"))
        .set("tail_seconds", phase_sum("sweep/tail_seconds"))
        .set("steps", phase_count("sweep/steps"))
        .set("solver_solves", phase_count("solver/solves"))
        .set("solver_iterations", phase_count("solver/iterations"))
        .set("predictor_hits", phase_count("predictor/hits"));
  }

  bench::JsonObject root;
  root.set("bench", "bench_sweep_throughput")
      .set("scenarios", static_cast<int>(scenarios.size()))
      .set("trace_seconds", 30)
      .set("grid", "12x12 compact")
      .set("serial_nocache_scenarios_per_sec",
           cold.size() / cold.wall_seconds())
      .set("serial_compile_scenarios_per_sec",
           compile.size() / compile.wall_seconds())
      .set("serial_cached_scenarios_per_sec",
           cached.size() / cached.wall_seconds())
      // When the parallel leg is skipped (single-core host) its columns
      // are emitted as null — JsonObject renders non-finite doubles as
      // null — so downstream tooling sees "not measured", never a stale
      // copy of the serial numbers.
      .set("parallel_cached_scenarios_per_sec",
           run_parallel ? parallel.size() / parallel.wall_seconds()
                        : skipped_marker)
      .set("serial_nocache_setup_seconds", cold.setup_seconds_total())
      .set("serial_nocache_stepping_seconds", cold.stepping_seconds_total())
      .set("serial_nocache_setup_fraction", cold.setup_fraction())
      .set("serial_compile_setup_seconds", compile.setup_seconds_total())
      .set("serial_compile_setup_fraction", compile.setup_fraction())
      .set("serial_cached_setup_seconds", cached.setup_seconds_total())
      .set("serial_cached_stepping_seconds", cached.stepping_seconds_total())
      .set("serial_cached_setup_fraction", cached.setup_fraction())
      .set("parallel_cached_setup_fraction",
           run_parallel ? parallel.setup_fraction() : skipped_marker)
      .set("telemetry_off_per_sec", telem_off_per_sec)
      .set("telemetry_on_per_sec", telem_on_per_sec)
      .set("telemetry_overhead_ratio", telem_ratio)
      .set("registry_phases", phase_json)
      .set("batchset_scenarios", static_cast<int>(bscenarios.size()))
      .set("batched_serial_baseline_per_sec", batched_baseline_per_sec)
      .set("batched_per_sec", batched_per_sec)
      .set("batched_vs_serial_ratio", batched_ratio)
      .set("batched_serial_tail_fraction", bserial.tail_fraction())
      .set("batched_tail_fraction", bbatched.tail_fraction())
      .set("batched_lanes_max", batched_lanes_max)
      .set("batched_scenario_count", batched_count)
      .set("batched_width_used", bbatched.batch_width_used())
      .set("batched_compaction_events",
           static_cast<std::int64_t>(bbatched.batch_compaction_events()))
      .set("batched_fuzzy_serial_per_sec", fuzzy_serial_per_sec)
      .set("batched_fuzzy_group_per_sec", fuzzy_group_per_sec)
      .set("batched_fuzzy_vs_serial_ratio", fuzzy_ratio)
      .set("batched_fuzzy_serial_tail_fraction", fserial.tail_fraction())
      .set("batched_fuzzy_tail_fraction", fbatched.tail_fraction())
      .set("batched_fuzzy_compaction_events",
           static_cast<std::int64_t>(fbatched.batch_compaction_events()))
      .set("bank_trace_hits", static_cast<std::int64_t>(counters.trace_hits))
      .set("bank_trace_misses",
           static_cast<std::int64_t>(counters.trace_misses))
      .set("bank_model_hits", static_cast<std::int64_t>(counters.model_hits))
      .set("bank_model_misses",
           static_cast<std::int64_t>(counters.model_misses))
      .set("bank_steady_hits",
           static_cast<std::int64_t>(counters.steady_hits))
      .set("bank_steady_misses",
           static_cast<std::int64_t>(counters.steady_misses))
      .set("parallel_jobs", parallel.jobs_used())
      .set("parallel_leg", run_parallel ? "run" : "skipped_single_core")
      .set("hardware_cores", hw_cores)
      .set("parallel_job_utilization_min",
           run_parallel ? util_min : skipped_marker)
      .set("parallel_job_utilization_avg",
           run_parallel ? util_avg : skipped_marker)
      .set("replay_trace_seconds", periodic.trace_seconds)
      .set("replay_total_steps", replay_on_leg.steps)
      .set("replay_off_steps_per_sec", replay_off_sps)
      .set("replay_on_steps_per_sec", replay_on_sps)
      .set("replay_speedup", replay_speedup)
      .set("replay_cycles",
           static_cast<std::int64_t>(replay_on_leg.cycles))
      .set("replay_steps_replayed",
           static_cast<std::int64_t>(replay_on_leg.steps_replayed))
      .set("replay_solves_skipped",
           static_cast<std::int64_t>(replay_on_leg.solves_skipped))
      .set("bitwise_identical", bitwise_ok ? "yes" : "no");
  bench::write_json("BENCH_sweep.json", root);

  const std::size_t matrix_legs = run_parallel ? 6 : 5;  // parallel may skip
  bench::sweep_footer(
      scenarios.size() * matrix_legs + bscenarios.size() * 3 +
          fscenarios.size() * 3,
      parallel.jobs_used(),
      cold.wall_seconds() + compile.wall_seconds() + cached.wall_seconds() +
          telem_off.wall_seconds() + telem_on.wall_seconds() +
          (run_parallel ? parallel.wall_seconds() : 0.0) +
          bserial.wall_seconds() + bbatched.wall_seconds() +
          fserial.wall_seconds() + fbatched.wall_seconds());
  return bitwise_ok ? 0 : 1;
}
