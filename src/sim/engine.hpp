#pragma once
/// \file engine.hpp
/// \brief Closed-loop co-simulation: workload trace -> scheduler (LB) ->
/// policy (DVFS + flow rate) -> power model -> transient thermal model,
/// stepped at the control interval.
///
/// The loop is exposed at two altitudes: SimulationSession drives it one
/// control interval at a time (callers can inspect mid-run state, pause,
/// and resume), while simulate() remains the one-shot convenience wrapper
/// that runs a session to completion.

#include <atomic>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "arch/mpsoc.hpp"
#include "control/policy.hpp"
#include "microchannel/pump.hpp"
#include "power/trace.hpp"
#include "sim/metrics.hpp"
#include "sim/replay.hpp"
#include "sim/scheduler.hpp"
#include "sparse/solver.hpp"

namespace tac3d::thermal {
class TransientSolver;
}

namespace tac3d::sim {

struct ScenarioInstance;

/// The model state a session starts from: the leakage-consistent steady
/// temperature field plus the element powers that produced it. Its one
/// producer is compute_initial_state(), and it is cacheable across
/// sessions: two scenarios whose stack, grid, cooling, initial flow and
/// t=0 workload demand agree start from bitwise-identical state, so a
/// ScenarioBank (sim/bank.hpp) can hand the vectors out instead of
/// re-solving.
struct InitialThermalState {
  std::vector<double> temperatures;    ///< one value per thermal cell [K]
  std::vector<double> element_powers;  ///< one value per floorplan element [W]
};

/// The set-up artifacts a ScenarioBank (sim/bank.hpp) shares between the
/// sessions of one stack. Only ScenarioBank::prepare fills one, and it
/// reaches a session only through ScenarioInstance::session(). Both
/// members are optional (null = the session computes it), and each is
/// the result of the very computation it replaces, so sharing is bitwise
/// neutral. Both are shared-owned, so the instance holding them does not
/// depend on its bank staying alive.
struct SharedSetup {
  /// Symbolic analysis of the model's conductance pattern, which the
  /// backward-Euler operator shares: serves the steady solve and the
  /// transient solver whatever the control_dt or solver kind.
  std::shared_ptr<const sparse::SymbolicStructure> structure;
  /// compute_initial_state() of an equal scenario: applied instead of
  /// solving the leakage-consistent fixed point (sizes are validated).
  std::shared_ptr<const InitialThermalState> initial;
};

/// Knobs of a simulation run.
struct SimulationConfig {
  double control_dt = 0.25;   ///< control & thermal step [s]
  double duration = 0.0;      ///< 0 = full trace length (see control_steps)
  microchannel::PumpModel pump = microchannel::PumpModel::table1(16);
  /// Fixed-point iterations when computing the leakage-consistent
  /// initial steady state.
  int init_iterations = 4;
  /// Linear solver strategy for the transient thermal steps.
  sparse::SolverKind solver = sparse::SolverKind::kBicgstabIlu0;
  /// Relative residual tolerance of the per-step linear solves
  /// (iterative kinds; the direct solver is exact), relative to ||b||.
  /// On the liquid-cooled stacks ||b|| is about 240 (2 tiers) and 340
  /// (4 tiers), so 1e-8 admits an absolute residual of about 3e-6, some
  /// three orders below the O(dt) backward-Euler error at the control
  /// interval, while dropping most of the Krylov iterations the
  /// historical 1e-12 spent. On the air-cooled stacks the heat-sink
  /// node's entry C_sink/dt * T_sink (about 1.8e5) carries all of
  /// ||b||^2, so the same 1e-8 admits about 1.8e-3, 550-770x looser,
  /// and peak temperatures move by up to 0.09 K (0.9 K where a DVFS trip
  /// flips) at 1e-9. Changing the value or the norm moves every
  /// air-cooled result. The simulation stays bitwise deterministic for a
  /// fixed value.
  double solver_tolerance = 1e-8;
  /// Limit-cycle fast-forward (sim/replay.hpp): when the attached trace
  /// is exactly periodic and the closed-loop state bitwise-recurs at the
  /// workload period, run_until/run_to_end replay journaled cycles with
  /// zero linear solves instead of re-stepping them. Engages only with
  /// the direct banded solver, whose solve is a pure function of the
  /// operator values and the right-hand side; the iterative solver
  /// carries history between steps and never arms. Bitwise neutral by
  /// construction — replay engages only on exact state recurrence and
  /// re-adds the identical journaled values in the identical order; set
  /// false to force step-everything (the parity baseline).
  bool limit_cycle_replay = true;
};

/// Control intervals a run of \p cfg takes over a trace of
/// \p trace_seconds: duration / control_dt rounded half away from zero,
/// where a duration of 0 means the whole trace (trace_seconds - 1 s).
/// Unchecked, so request validation can bound it without throwing: a
/// session takes at least one step and throws InvalidArgument when
/// control_dt is not positive or the count is not finite or does not
/// fit in int.
double control_steps(const SimulationConfig& cfg, int trace_seconds);

/// The initial state every SimulationSession starts from: apply the
/// maximum pump level (liquid stacks), balance the trace's t=0 demand
/// onto the cores at the maximum V/f level, and run the
/// leakage-consistent steady fixed point. Leaves \p soc with the
/// returned powers/flows applied. Deterministic in its inputs, so the
/// result can be cached and shared across sessions (the steady tier of
/// sim/bank.hpp). A non-null \p structure supplies the symbolic analysis
/// of the steady solve (see SharedSetup::structure).
InitialThermalState compute_initial_state(
    arch::Mpsoc3D& soc, const power::UtilizationTrace& trace,
    const SimulationConfig& cfg,
    std::shared_ptr<const sparse::SymbolicStructure> structure = nullptr);

/// A resumable closed-loop simulation.
///
/// Construction applies the leakage-consistent initial steady state of
/// compute_initial_state() (the paper: "we initialize the simulations
/// with steady state temperature values"); each step() advances one
/// control interval: load balancing, policy decision, execution/power
/// model, thermal step, metrics accumulation. The referenced MPSoC,
/// trace and policy must outlive the session.
class SimulationSession {
 public:
  SimulationSession(arch::Mpsoc3D& soc, const power::UtilizationTrace& trace,
                    control::ThermalPolicy& policy,
                    const SimulationConfig& cfg = {});
  ~SimulationSession();
  SimulationSession(SimulationSession&&) noexcept;

  /// Advance one control interval. No-op once done(). step() is exactly
  ///   tail_begin() + (sense_current() unless sensed_fresh())
  ///   + tail_decide() + tail_apply() + tail_power()
  ///   + thermal_solver().step() + sense_current() + finish_metrics().
  void step();

  /// Control-tail stages, in the order step() runs them. BatchSession
  /// runs them lane by lane around its batched thermal solve, and a
  /// caller can time each one; a caller driving them must keep step()'s
  /// order.
  /// tail_begin(): workload demand sampling + load balancing (false =
  /// already done()).
  bool tail_begin();
  /// Gather the per-core temperature sensors from the current field and
  /// mark them fresh. step() senses the post-solve field for the metrics;
  /// the field does not change again before the next interval, so that
  /// gather doubles as the next interval's policy input (sensed_fresh()
  /// says it is still valid).
  void sense_current();
  bool sensed_fresh() const { return sensed_fresh_; }
  /// Policy decision from the sensed temperatures and balanced demands.
  void tail_decide();
  /// Apply the decision: pump level, execution model, and the
  /// interval's per-core work addends (finish_metrics() adds them).
  void tail_apply();
  /// Power update: dynamic + leakage from the current field, committed
  /// into the model's power RHS.
  void tail_power();
  /// Metrics accumulation: the interval's IntervalAddends (work from
  /// tail_apply(), the sensed temperatures, the energies) go through
  /// add_interval(); commits the interval (advances steps_done()).
  void finish_metrics();

  /// Wall-clock seconds step() spent in the control tail and in the
  /// thermal solve, accumulated over the run. Only step() itself is
  /// instrumented; callers driving the stages (BatchSession) time their
  /// own.
  double tail_seconds() const { return tail_seconds_; }
  double solve_seconds() const { return solve_seconds_; }

  /// The transient thermal solver this session steps (the lane handle a
  /// BatchedTransientSolver drives between tail_power() and the
  /// post-solve sense_current()).
  thermal::TransientSolver& thermal_solver() { return *thermal_; }
  const thermal::TransientSolver& thermal_solver() const { return *thermal_; }

  /// Step until simulated time reaches \p t_sim (or the run ends).
  /// \return number of steps taken (replayed cycles count per step).
  int run_until(double t_sim);

  /// Step to the end of the run. \return number of steps taken.
  /// A non-null \p stop is loaded (relaxed) once per loop turn, after
  /// the replay fast-forward and before the next step(): once it reads
  /// true the call returns early, !done(), at a control-interval
  /// boundary. Calling run_to_end again resumes the run with the same
  /// calls in the same order, so a stopped and resumed run is bitwise
  /// the uninterrupted one, on whichever thread it resumes.
  int run_to_end(const std::atomic<bool>* stop = nullptr);

  /// Limit-cycle fast-forward (sim/replay.hpp): when the session is
  /// locked on a verified cycle and sits at a verified boundary, replay
  /// as many whole cycles as fit before \p t_limit (and the run end),
  /// each with zero linear solves, re-verifying the trace window per
  /// cycle. Returns the number of steps fast-forwarded (0 when replay
  /// is not engaged — callers then step normally). run_until/run_to_end
  /// call this internally; BatchSession's scalar-fallback lockstep calls
  /// it per lane, since those lanes step on their own solvers and banded
  /// lanes can replay.
  int replay_fast_forward(
      double t_limit = std::numeric_limits<double>::infinity());

  /// Replay telemetry: verified limit-cycle locks, steps reconstructed
  /// from the journal, and linear solves those steps skipped.
  std::uint64_t replay_cycles() const { return replay_.cycles_detected(); }
  std::uint64_t replay_steps() const { return replay_.steps_replayed(); }
  std::uint64_t replay_solves_skipped() const {
    return replay_.solves_skipped();
  }

  /// All control intervals executed?
  bool done() const { return steps_done_ >= total_steps_; }

  /// Simulated time [s].
  double time() const { return steps_done_ * cfg_.control_dt; }

  int steps_done() const { return steps_done_; }
  int total_steps() const { return total_steps_; }

  /// Metrics accumulated so far (complete once done()). Mid-run the
  /// averages reflect the elapsed portion of the run.
  SimMetrics metrics() const;

  /// Current temperature field [K] (one value per thermal cell).
  std::span<const double> temperatures() const;

  /// Current maximum temperature of core \p core [K].
  double core_temp(int core) const;

  /// Hottest core temperature right now [K].
  double max_core_temp() const;

  /// Active pump level (-1 for air-cooled stacks).
  int pump_level() const { return pump_level_; }

  /// Refresh/solve counters of the transient thermal solver (how often
  /// the policy loop's flow changes forced a refactor, Krylov iteration
  /// totals, ...). A session stepped as a batched lane solves in the
  /// batch's solver instead: see BatchSession::solver_stats().
  const sparse::SolverStats& solver_stats() const;

  /// Flow updates the thermal operator absorbed as indexed rewrites.
  std::uint64_t flow_updates() const;

  const SimulationConfig& config() const { return cfg_; }
  const arch::Mpsoc3D& soc() const { return soc_; }

 private:
  friend struct ScenarioInstance;
  /// A session that starts from a bank's shared set-up (the public
  /// constructor passes an empty one).
  SimulationSession(arch::Mpsoc3D& soc, const power::UtilizationTrace& trace,
                    control::ThermalPolicy& policy,
                    const SimulationConfig& cfg, const SharedSetup& shared);

  arch::Mpsoc3D& soc_;
  const power::UtilizationTrace& trace_;
  control::ThermalPolicy& policy_;
  SimulationConfig cfg_;
  bool liquid_;
  int n_cores_;
  int total_steps_;
  int steps_done_ = 0;
  Scheduler scheduler_;
  std::vector<double> thread_demand_;
  std::vector<double> core_demand_;
  std::vector<arch::CoreState> cores_;
  std::unique_ptr<thermal::TransientSolver> thermal_;
  SimMetrics m_;
  /// Per-core offered and lost work of the interval in progress.
  std::vector<double> offered_;
  std::vector<double> lost_;
  int pump_level_ = -1;
  double flow_fraction_acc_ = 0.0;
  // Persistent control-tail state (the per-step loop is allocation-free).
  control::PolicyInputs in_;
  control::PolicyActions act_;
  bool sensed_fresh_ = false;
  double tail_seconds_ = 0.0;
  double solve_seconds_ = 0.0;
  // Limit-cycle replay (sim/replay.hpp): detection state machine.
  LimitCycleReplay replay_;
  /// FNV-1a fingerprint of all auxiliary closed-loop state (everything
  /// beyond the temperature field that feeds future arithmetic).
  std::uint64_t replay_fingerprint() const;
  /// Journal recording of \p a + boundary detection, called by
  /// finish_metrics() after each committed interval while replay is
  /// armed.
  void replay_post_step(const IntervalAddends& a);
};

/// Run \p trace through \p policy on \p soc and collect metrics.
/// Thin wrapper over SimulationSession: construct, run to the end,
/// return the metrics.
SimMetrics simulate(arch::Mpsoc3D& soc, const power::UtilizationTrace& trace,
                    control::ThermalPolicy& policy,
                    const SimulationConfig& cfg = {});

}  // namespace tac3d::sim
