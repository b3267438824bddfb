#pragma once
/// \file sweep.hpp
/// \brief Parallel scenario sweep runner: execute a batch of Scenario
/// descriptions on a worker pool and aggregate the metrics into a
/// sortable result table.
///
/// By default scenarios are compiled through a shared ScenarioBank
/// (sim/bank.hpp): traces, assembled models with their symbolic
/// analysis and initial steady states are cached under explicit
/// equivalence keys and handed out as
/// clone-and-reset sessions, so scenarios that share a stack/trace skip
/// re-construction. The sharing is bitwise-neutral — every session steps
/// arithmetic identical to independent materialization — so a sweep
/// stays bitwise-deterministic: for identical seeds the results are
/// identical whether it runs on one worker or many, bank on or off.
/// Results are returned in input order regardless of completion order.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "sim/experiment.hpp"

namespace tac3d::sim {

class ScenarioBank;

/// Number of sweep workers to use for \p requested:
///   requested > 0            -> requested;
///   requested <= 0           -> the TAC3D_JOBS environment variable if it
///                               parses to a positive integer;
///   otherwise                -> std::thread::hardware_concurrency()
///                               (at least 1).
/// Both explicit requests and TAC3D_JOBS are honored verbatim (CI pins
/// the count for cross-machine comparability). Scenarios are CPU-bound,
/// so asking for more workers than cores only timeshares them —
/// SweepReport::job_utilization() makes that visible (every worker ~1.0
/// busy yet no speedup).
int resolve_jobs(int requested);

/// Rough relative cost of a scenario for longest-processing-time-first
/// scheduling: thermal cells x control steps, weighted up for policies
/// that modulate the coolant flow, plus a construction term for the
/// leakage-consistent steady init. \p prepared_setup_factor discounts
/// that term (see kSteadyHitSetupFactor) for scenarios whose
/// steady-tier key a ScenarioBank already holds. Only the ordering
/// matters, not the absolute scale. Shared by run_sweep's LPT dispatch
/// and the sweep service's per-job task ordering (service/service.hpp).
double estimated_scenario_cost(const Scenario& s,
                               double prepared_setup_factor = 1.0);

/// Setup-term discount of estimated_scenario_cost for scenarios that
/// will hit a bank's steady tier (clone-and-reset instead of a
/// fixed-point solve).
inline constexpr double kSteadyHitSetupFactor = 0.05;

/// The per-scenario preamble of run_sweep and the sweep service
/// (service/service.hpp): fill empty labels with scenario_label() and
/// return each scenario's estimated_scenario_cost, the LPT dispatch key.
/// With a \p bank, a scenario whose steady-tier key the bank already
/// holds, or an earlier scenario of the list shares, is costed as
/// clone-and-reset (kSteadyHitSetupFactor).
std::vector<double> prepare_sweep_scenarios(std::span<Scenario> scenarios,
                                            const ScenarioBank* bank);

/// The registry publication point of one finished session: add its step
/// count, limit-cycle replay counters, solver counters \p st and
/// warm-start predictor outcomes to the sweep/steps, replay/*, solver/*
/// and predictor/* counters. \p st holds the counters of the solver that
/// stepped the session: its own, or its lane of a batched solver.
/// run_sweep and the sweep service call it once per finished scenario,
/// never from the per-step loop. No-op while metrics are disabled.
void publish_session(const SimulationSession& s,
                     const sparse::SolverStats& st);

/// Outcome of one scenario of a sweep.
struct SweepResult {
  std::size_t index = 0;  ///< position in the input scenario list
  Scenario scenario;
  SimMetrics metrics;  ///< valid when ok()
  /// Construction time [s]: bank prepare (or instantiate()) plus
  /// SimulationSession setup — trace, model, policy, initial steady.
  double setup_seconds = 0.0;
  /// Stepping time [s]: run_to_end plus metrics extraction.
  double stepping_seconds = 0.0;
  double wall_seconds = 0.0;  ///< setup_seconds + stepping_seconds
  /// Split of the stepping time between the thermal solves and the
  /// per-step control tail (sensors, policy, power/leakage, metrics) as
  /// instrumented by the session / batch session. Batched lanes split
  /// the batch totals by step counts, like stepping_seconds. Their sum
  /// is slightly below stepping_seconds (loop overhead in between).
  double solve_seconds = 0.0;
  double tail_seconds = 0.0;
  int worker = -1;            ///< pool worker that ran it (0-based)
  /// Lanes of the batched lockstep job this scenario rode in (see
  /// SweepOptions::batch_width); 0 = ran on the scalar path. Batched
  /// stepping wall time is attributed to lanes by their step counts.
  int batch_lanes = 0;
  /// Limit-cycle replay telemetry of the session (sim/replay.hpp):
  /// verified cycles locked, control steps fast-forwarded from the
  /// journal, and linear solves those steps skipped. Replay engages only
  /// for the direct banded solver, whose solve is a pure function of the
  /// current state, so all 0 for BiCGSTAB+ILU(0) scenarios (batched
  /// lanes included), aperiodic traces, loops that never bitwise-lock,
  /// or SimulationConfig::limit_cycle_replay off.
  std::uint64_t replay_cycles = 0;
  std::uint64_t replay_steps = 0;
  std::uint64_t replay_solves_skipped = 0;
  std::string error;          ///< exception text; empty on success

  bool ok() const { return error.empty(); }
  const std::string& label() const { return scenario.label; }
};

/// Options of run_sweep().
struct SweepOptions {
  /// Worker threads; <= 0 defers to TAC3D_JOBS / hardware concurrency
  /// (see resolve_jobs). Never more workers than scenarios.
  int jobs = 0;
  /// Invoked after each scenario completes (from worker threads, but
  /// serialized — no locking needed inside). Useful for progress output.
  std::function<void(const SweepResult&)> on_result;
  /// No effect; deleted once perfbench's reference path stops setting
  /// it. (Symbolic analysis is shared by the bank's model tier, and
  /// with use_bank off nothing is shared.)
  bool share_structures = true;
  /// Compile scenarios through a ScenarioBank (sim/bank.hpp): cache
  /// synthesized traces, assembled models with their symbolic analysis
  /// and initial steady states under equivalence keys and start
  /// clone-and-reset sessions instead of materializing every scenario
  /// from scratch. Bitwise-neutral — results are identical with the bank
  /// on or off. Off is the reference path: every scenario is
  /// instantiate()d and shares nothing.
  bool use_bank = true;
  /// Bank to compile through when use_bank is set; null = run_sweep
  /// creates a fresh one. Handing
  /// the same bank to several sweeps keeps its artifacts warm across
  /// them — repeated sweeps over a shared design space then pay setup
  /// only on first touch.
  std::shared_ptr<ScenarioBank> bank;
  /// Batched lockstep stepping (requires the bank): BiCGSTAB+ILU(0)
  /// scenarios that share a model/pattern key and control interval are
  /// grouped into BatchSession jobs of up to this many lanes, so one
  /// worker advances all of them per matrix traversal
  /// (sim/batch.hpp; per-lane results are bitwise identical to the
  /// scalar path). 0 = auto width: per batch group, the widest fused-
  /// kernel dispatch width whose interleaved per-lane working set
  /// (matrix values, factors, Krylov vectors) fits in ~2/3 of the L2
  /// cache — 6 on the paper stack with a 2 MiB L2 (see
  /// SweepReport::batch_width_used). 1 = batching off; values above
  /// sparse::kMaxBatchLanes are clamped. Singleton groups, direct-solver
  /// scenarios and bank-off sweeps take the scalar path unchanged.
  int batch_width = 0;
};

/// Results of a sweep, in input order, with sort/report helpers.
class SweepReport {
 public:
  SweepReport() = default;
  SweepReport(std::vector<SweepResult> results, int jobs_used,
              double wall_seconds);

  const std::vector<SweepResult>& results() const { return results_; }
  std::size_t size() const { return results_.size(); }
  bool empty() const { return results_.empty(); }
  const SweepResult& at(std::size_t i) const { return results_.at(i); }

  /// First result whose scenario label matches, or nullptr.
  const SweepResult* find(const std::string& label) const;

  /// All scenarios completed without throwing?
  bool all_ok() const;

  /// Error summaries of the failed scenarios ("label: what").
  std::vector<std::string> errors() const;

  /// Stable-sort the results by \p key (ascending by default).
  SweepReport& sort_by(const std::function<double(const SweepResult&)>& key,
                       bool ascending = true);

  /// Restore input order.
  SweepReport& sort_by_index();

  /// Standard result table: label, peak temperature, hot-spot fractions,
  /// energy split, performance loss, wall time.
  TextTable table() const;

  int jobs_used() const { return jobs_used_; }
  double wall_seconds() const { return wall_seconds_; }

  /// Sum of per-scenario construction time [s] (see
  /// SweepResult::setup_seconds).
  double setup_seconds_total() const;

  /// Sum of per-scenario stepping time [s].
  double stepping_seconds_total() const;

  /// Sum of per-scenario thermal-solve / control-tail time [s] (see
  /// SweepResult::solve_seconds / tail_seconds).
  double solve_seconds_total() const;
  double tail_seconds_total() const;

  /// Sums of the per-scenario limit-cycle replay counters (see
  /// SweepResult::replay_steps and friends).
  std::uint64_t replay_cycles_total() const;
  std::uint64_t replay_steps_total() const;
  std::uint64_t replay_solves_skipped_total() const;

  /// Fraction of per-scenario busy time spent on construction:
  /// setup / (setup + stepping), 0 for an empty report. The headline
  /// amortization metric — a warm bank drives it toward 0.
  double setup_fraction() const;

  /// Fraction of instrumented stepping time spent in the control tail:
  /// tail / (tail + solve), 0 for an empty report. Machine-independent
  /// like setup_fraction.
  double tail_fraction() const;

  /// Per-worker busy time [s] (sum of scenario walls, jobs_used entries);
  /// busy/wall close to 1 for every worker means the pool was neither
  /// starved nor imbalanced.
  std::vector<double> job_busy_seconds() const;

  /// Per-worker utilization busy/wall in [0, 1].
  std::vector<double> job_utilization() const;

  /// The ScenarioBank the sweep compiled through (null when the bank was
  /// off); exposes per-tier hit/miss counters for benches and telemetry,
  /// and can be handed to the next sweep to keep its artifacts warm.
  const std::shared_ptr<ScenarioBank>& bank() const { return bank_; }
  void set_bank(std::shared_ptr<ScenarioBank> bank) {
    bank_ = std::move(bank);
  }

  /// Widest lane count the sweep's batched lockstep jobs were chunked to
  /// (the auto-selected width when SweepOptions::batch_width == 0);
  /// 0 when no batched job ran.
  int batch_width_used() const { return batch_width_used_; }
  /// Total mid-solve lane-compaction events across the sweep's batched
  /// jobs (see sparse::BatchedBicgstabSolver::compaction_events).
  std::uint64_t batch_compaction_events() const {
    return batch_compaction_events_;
  }
  void set_batch_telemetry(int width_used, std::uint64_t compaction_events) {
    batch_width_used_ = width_used;
    batch_compaction_events_ = compaction_events;
  }

 private:
  std::vector<SweepResult> results_;
  int jobs_used_ = 1;
  double wall_seconds_ = 0.0;
  std::shared_ptr<ScenarioBank> bank_;
  int batch_width_used_ = 0;
  std::uint64_t batch_compaction_events_ = 0;
};

/// Run every scenario (worker pool of resolve_jobs(opts.jobs) threads)
/// and collect the results in input order. A scenario that throws is
/// reported via SweepResult::error; the sweep itself always completes.
SweepReport run_sweep(const std::vector<Scenario>& scenarios,
                      const SweepOptions& opts = {});

}  // namespace tac3d::sim
