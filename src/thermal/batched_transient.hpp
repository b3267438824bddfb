#pragma once
/// \file batched_transient.hpp
/// \brief Lockstep backward-Euler stepping of K TransientSolver lanes
/// that share one sparsity pattern.
///
/// A design-space sweep advances many closed-loop scenarios whose
/// thermal systems differ only in matrix values (same stack/grid; flows
/// and powers diverge per lane). BatchedTransientSolver gathers the K
/// lanes' operators into a lane-interleaved sparse::BatchedCsr and
/// advances all of them per matrix traversal with
/// sparse::BatchedBicgstabSolver, while every per-lane decision — flow
/// sync, RHS build, warm-start/predictor selection — runs through the
/// very same TransientSolver::begin_step_prepare / begin_step_commit /
/// end_step code, and each
/// lane's refresh decisions through the same sparse::LazyRefresh as the
/// serial solver, so each lane's trajectory is bitwise identical to
/// stepping it alone.
///
/// Direct solvers don't batch (no initial guess, factorization per
/// lane): the lanes solve with BiCGSTAB+ILU(0); callers fall back to
/// scalar stepping for kBandedLu (see sim::BatchSession).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sparse/batched.hpp"
#include "thermal/transient.hpp"

namespace tac3d::thermal {

/// Lockstep driver over K pattern-sharing TransientSolvers.
class BatchedTransientSolver {
 public:
  /// Every lane's operator must share lane 0's sparsity pattern
  /// (verified). Lane tolerances are taken from each solver's
  /// rel_tolerance(). The lanes must outlive this driver.
  explicit BatchedTransientSolver(const std::vector<TransientSolver*>& lanes);

  int lanes() const { return static_cast<int>(lanes_.size()); }

  /// Do these two solvers step matrices with the same sparsity pattern
  /// (the batching precondition)?
  static bool compatible(const TransientSolver& a, const TransientSolver& b);

  /// Advance every lane with active[l] != 0 by its own dt, in lockstep:
  /// per-lane begin_step_prepare, one batched value refresh and guard
  /// evaluation, per-lane begin_step_commit, one batched Krylov solve,
  /// per-lane end_step. failed[l] is set (and end_step skipped — the lane's
  /// state is unspecified, like a scalar step that threw) for lanes
  /// whose linear solve did not converge or whose per-lane phase threw
  /// (the exception text is kept in lane_error; lanes are isolated, the
  /// rest of the batch finishes the step).
  void step_all(std::span<const std::uint8_t> active,
                std::span<std::uint8_t> failed);

  /// Exception text of the last step_all failure of \p lane (empty when
  /// the failure was plain non-convergence, or the lane is fine).
  const std::string& lane_error(int lane) const {
    return lane_errors_[static_cast<std::size_t>(lane)];
  }

  /// Refresh/solve counters of lane \p lane's batched solver (the
  /// counterpart of TransientSolver::solver_stats(), which in a batched
  /// lane tracks its unused private solver).
  const sparse::SolverStats& lane_stats(int lane) const {
    return solver_.lane_stats(lane);
  }

  /// Mid-solve lane-compaction events of the underlying batched Krylov
  /// solver (sparse::BatchedBicgstabSolver::compaction_events): how many
  /// times a solve re-dispatched its fused kernels at a narrower width
  /// after lanes converged. Sweep-footer telemetry.
  std::uint64_t compaction_events() const {
    return solver_.compaction_events();
  }

 private:
  std::vector<TransientSolver*> lanes_;
  sparse::BatchedCsr a_;
  sparse::BatchedBicgstabSolver solver_;
  std::vector<double> b_;  ///< interleaved RHS
  std::vector<double> x_;  ///< interleaved guess/solution
  // Warm-start guard batching: candidate buffers, residual scratch and
  // per-lane squared norms, so the guard SpMVs every lane would spend
  // serially run as 1-3 shared traversals (see step_all).
  std::vector<double> pred_x_, traj_x_, guard_r_;
  std::vector<double> rr_plain_, rr_pred_, rr_traj_, bb_, bb_scratch_;
  std::vector<std::uint8_t> stepped_, want_pred_, want_traj_, solve_failed_;
  std::vector<std::string> lane_errors_;
};

}  // namespace tac3d::thermal
