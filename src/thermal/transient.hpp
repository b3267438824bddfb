#pragma once
/// \file transient.hpp
/// \brief Backward-Euler transient integration of an RcModel.
///
/// Each step solves (C/dt + G) T_{n+1} = (C/dt) T_n + P against a
/// ThermalOperator (see operator.hpp) that keeps the constant
/// conduction/capacitance part frozen and applies flow changes as
/// indexed value rewrites. The bound solver refreshes its factorization
/// under the staleness-aware refresh rule of sparse/refresh.hpp instead
/// of rebuilding on every flow change.
///
/// Iterative solvers start each solve from the best of three warm
/// starts, residual-guarded: the plain warm start T_n, the trajectory
/// extrapolation 2 T_n - T_{n-1}, and, on a flow change, a flow-
/// transition cache keyed by the exact cavity flow state that replays
/// the temperature jump its last visit produced. The pump moves among
/// discrete levels, so a flow change either revisits a cached level or
/// is a first visit, which the trajectory and plain warm starts cover.
///
/// All storage — the operator, the RHS, the warm-start slots and the
/// solver's own workspace — is allocated at construction; step()
/// performs zero heap allocations (asserted by test_transient_alloc).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sparse/refresh.hpp"
#include "sparse/solver.hpp"
#include "thermal/operator.hpp"
#include "thermal/rc_model.hpp"

namespace tac3d::thermal {

/// Fixed-step backward-Euler integrator bound to one RcModel.
class TransientSolver {
 public:
  /// Construction-time knobs beyond the time step.
  struct Options {
    /// Linear solver strategy.
    sparse::SolverKind kind = sparse::SolverKind::kBicgstabIlu0;
    /// Optional symbolic analysis of the model's conductance pattern,
    /// which the operator shares (see sparse/symbolic.hpp): the solvers
    /// of models with the same grid then skip the RCM/ILU analysis.
    /// Null = each solver analyzes what it needs. Bitwise neutral.
    std::shared_ptr<const sparse::SymbolicStructure> structure = nullptr;
    /// Relative residual tolerance of the per-step linear solves
    /// (iterative kinds only; the direct solver is exact). Must lie in
    /// (0, 1) for every kind, else construction throws InvalidArgument:
    /// a NaN, zero or negative tolerance can never be met. The default
    /// keeps the historical near-machine-precision contract; integrators
    /// whose accuracy budget is the backward-Euler truncation error can
    /// relax it — SimulationSession does (see
    /// SimulationConfig::solver_tolerance).
    double rel_tolerance = 1e-12;
  };

  /// \param model the RC network (power/flows mutated externally)
  /// \param dt time step [s]
  TransientSolver(RcModel& model, double dt, const Options& opts);

  /// Convenience overload with the default options.
  TransientSolver(RcModel& model, double dt,
                  sparse::SolverKind kind =
                      sparse::SolverKind::kBicgstabIlu0);

  double dt() const { return dt_; }

  /// Replace the temperature state (e.g. with a steady-state solution).
  void set_state(std::vector<double> temps);

  /// Initialize the state to the steady-state field for the current
  /// power and flows.
  void initialize_steady();

  /// Current temperature field [K].
  std::span<const double> temperatures() const { return state_; }

  /// Advance one time step with the model's current power and flows.
  /// Performs no heap allocations.
  void step();

  /// What begin_step_prepare() found: did the flow state change, which
  /// matrix rows were rewritten (spans into operator scratch, valid
  /// until the next flow update), and which warm-start candidates exist
  /// whose guard residuals begin_step_commit() expects.
  struct StepPrep {
    bool flow_changed = false;
    sparse::ValueUpdate update;
    /// predicted_candidate() is primed (exact transition-cache match:
    /// x0 = T_n + the cached jump) — its squared residual gates it.
    bool want_predicted = false;
    /// trajectory_candidate() is primed (x0 = 2 T_n - T_{n-1}).
    bool want_trajectory = false;
  };

  /// Lockstep phase API, used by BatchedTransientSolver, which evaluates
  /// the warm-start guard residuals itself as shared multi-lane matrix
  /// traversals. step() runs the same phases in this order:
  ///   begin_step_prepare() — flow sync, RHS build, warm-start
  ///     candidates; step_rhs() is then b;
  ///   the refresh notification of the rewritten rows to the solver;
  ///   the guard residuals ||rhs - A c||² of the requested candidates
  ///     (and of the plain warm start), lazily, on the solver's sliced
  ///     mirror, which the notification has just refilled;
  ///   begin_step_commit() — primes step_solution() with the chosen
  ///     initial guess;
  ///   the linear solve A x = b into step_solution();
  ///   end_step() — transition-slot bookkeeping, time advance.
  /// The order is valid because the guards read no factors and the
  /// refresh reads no guard value. The commit decisions are pure
  /// comparisons of the guard values, and every guard traversal gives
  /// bitwise the CSR row loop's value, so eager external evaluation
  /// selects exactly the state the lazy serial evaluation in step()
  /// would. None of the phases allocates.
  StepPrep begin_step_prepare();
  std::span<const double> predicted_candidate() const { return predicted_; }
  std::span<const double> trajectory_candidate() const { return traj_guess_; }
  /// \p rr_* are squared guard residuals ||rhs - A candidate||²;
  /// \p rr_plain the plain warm start's (current temperatures);
  /// \p bb = ||rhs||². Values whose candidate was not requested are
  /// ignored; rr_plain is only read when a requested candidate is not
  /// already at the solve tolerance.
  void begin_step_commit(double rr_predicted, double rr_trajectory,
                         double rr_plain, double bb);

  /// The backward-Euler RHS built by the last begin_step_prepare().
  std::span<const double> step_rhs() const { return rhs_; }

  /// Between begin_step_commit() and end_step(): the initial guess on
  /// entry, the solution on exit (aliases temperatures()).
  std::span<double> step_solution() { return state_; }

  /// Commit the solve the caller wrote into step_solution().
  void end_step();

  /// Advance ceil(duration/dt) steps.
  void advance(double duration);

  /// Elapsed simulated time [s].
  double time() const { return time_; }

  /// Advance time() by \p n steps without stepping: the same repeated
  /// `time_ += dt` a real step performs, so the clock stays bitwise
  /// identical when limit-cycle replay (sim/replay.hpp) fast-forwards
  /// whole cycles without solving. time() is informational — it never
  /// feeds the stepping arithmetic — but keeping it exact keeps every
  /// observable of a replayed run equal to the step-everything run.
  void advance_time_steps(int n) {
    for (int i = 0; i < n; ++i) time_ += dt_;
  }

  /// The backward-Euler operator this solver steps (flow-update
  /// telemetry: dirty fractions, update counts).
  const ThermalOperator& system_operator() const { return op_; }

  /// Shared symbolic analysis of the operator's pattern (null unless
  /// Options::structure supplied one); batched drivers reuse its ILU(0)
  /// level schedule.
  const sparse::SymbolicStructure* structure() const {
    return structure_.get();
  }

  /// Refresh/solve counters of the bound linear solver.
  const sparse::SolverStats& solver_stats() const {
    return solver_->stats();
  }

  /// Relative residual tolerance of the per-step linear solves.
  double rel_tolerance() const { return rel_tolerance_; }

  /// Flow-change steps whose warm start came from an exact transition-
  /// cache match.
  std::uint64_t predictor_hits() const { return predictor_hits_; }

  /// Always 0: every flow-transition prediction is an exact cache
  /// match, counted by predictor_hits(). Kept while the benchmark's
  /// predictor hit ratio (perfbench) still adds these two in.
  std::uint64_t predictor_interpolations() const { return 0; }
  std::uint64_t predictor_fluid_jumps() const { return 0; }

  /// Steps whose warm start came from the trajectory extrapolation
  /// (guard accepted it over the plain warm start).
  std::uint64_t trajectory_hits() const { return trajectory_hits_; }

 private:
  /// Flow-transition cache size: one slot per pump level of
  /// microchannel::PumpModel::table1(), so a controller cycling every
  /// level keeps all of its transitions.
  static constexpr int kWarmStartSlots = 16;

  struct WarmStartSlot {
    bool used = false;
    std::vector<double> flows;  ///< exact cavity-flow key ...
    std::vector<std::uint64_t> profiles;  ///< ... plus profile versions
    /// T_{n+1} - T_n of the cached step: capacity reserved at
    /// construction, written on first use, so a fixed-flow run never
    /// touches its pages.
    std::vector<double> jump;
  };

  /// Slot whose key matches the model's current flows, else the next
  /// round-robin victim (marked unused). Requires slots.
  WarmStartSlot* find_slot();

  RcModel& model_;
  double dt_;
  ThermalOperator op_;
  std::shared_ptr<const sparse::SymbolicStructure> structure_;
  std::vector<double> c_over_dt_;  ///< C_i / dt, precomputed
  std::unique_ptr<sparse::LinearSolver> solver_;
  std::vector<double> state_;
  std::vector<double> rhs_;
  // Warm starts, allocated only for solvers that use an initial guess
  // (the transition slots only for models with cavities).
  std::vector<WarmStartSlot> slots_;
  int next_slot_ = 0;
  std::vector<double> predicted_;  ///< scratch: T_n + the cached jump
  /// T_{n-1}, which begin_step_prepare() extrapolates from and then
  /// rolls forward to T_n, the base of the jump end_step() caches.
  std::vector<double> prev_state_;
  std::vector<double> traj_guess_;  ///< scratch: 2 T_n - T_{n-1}
  bool traj_valid_ = false;         ///< prev_state_ holds a real T_{n-1}
  std::vector<double> residual_;    ///< scratch for the guard residuals
  WarmStartSlot* pending_slot_ = nullptr;  ///< prepare -> end_step
  StepPrep pending_;  ///< candidates awaiting begin_step_commit
  std::uint64_t predictor_hits_ = 0;
  std::uint64_t trajectory_hits_ = 0;
  double rel_tolerance_ = 1e-12;
  double time_ = 0.0;
};

}  // namespace tac3d::thermal
