#pragma once
/// \file refresh.hpp
/// \brief Staleness-aware refresh contract between in-place matrix value
/// updates and the solvers bound to them.
///
/// A flow-rate change rewrites a small, known subset of the system
/// matrix's values (see thermal::ThermalOperator). Rebuilding the
/// factorization or preconditioner on every such change is what made
/// flow-modulated stepping ~85x slower than fixed-flow stepping, so the
/// solvers instead receive a ValueUpdate describing what changed and
/// decide per strategy:
///
///  - BiCGSTAB+ILU(0) keeps the stale factors (a preconditioner only
///    steers convergence; the solve tolerance still guarantees the
///    answer) and refactors only when the iteration count degrades past
///    kMaxIterationGrowth or the distinct-dirty-row fraction exceeds
///    kMaxDirtyFraction. LazyRefresh below is that decision, shared by
///    the scalar and batched solvers.
///  - BandedLu re-eliminates only from the first dirty permuted row
///    (exact: LU rows above the first changed row are unaffected).

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace tac3d::sparse {

/// Description of an in-place value update on an unchanged sparsity
/// pattern: which rows changed and how much of the matrix that is.
struct ValueUpdate {
  /// Rows whose stored values changed (unsorted, no duplicates). An
  /// empty span with dirty_fraction > 0 means "unknown rows" and forces
  /// a full refresh.
  std::span<const std::int32_t> rows{};
  /// Changed entries / nnz for this update.
  double dirty_fraction = 0.0;
};

/// The refresh rule's thresholds.
///
/// An iterative solver refactors once the fraction of distinct rows
/// dirtied since the last refactor exceeds kMaxDirtyFraction. A flow
/// update dirties only the fluid rows, 29-31% of the rows on the
/// liquid-cooled stacks, so flow updates alone never reach the bound.
/// The direct banded solver is always refreshed exactly and ignores it.
inline constexpr double kMaxDirtyFraction = 0.5;
/// An iterative solver also refactors when a solve takes more than
///   kMaxIterationGrowth * iterations-after-last-refactor
///     + kIterationSlack
/// iterations while stale.
inline constexpr double kMaxIterationGrowth = 3.0;
inline constexpr std::int32_t kIterationSlack = 8;
/// Banded-LU factor-slot cache size: the solver keeps up to this many
/// complete factorizations keyed by the flow-dependent matrix values,
/// so revisiting a flow state (pump levels cycle through a small
/// discrete set) switches factors in O(dirty) instead of
/// re-eliminating the band. 16 covers PumpModel::table1()'s default
/// level count. Each slot reserves its band at bind time but is written
/// only when a new flow state first needs it, so the resident cost is
/// one band at fixed flow and one more per slot filled, up to
/// kFactorSlots bands.
inline constexpr std::int32_t kFactorSlots = 16;

/// Counters a LinearSolver keeps about its refresh/solve behavior.
struct SolverStats {
  std::uint64_t solves = 0;
  std::uint64_t iterations = 0;   ///< cumulative Krylov iterations (0 = direct)
  std::uint64_t refactors = 0;    ///< full factorization/preconditioner rebuilds
  std::uint64_t partial_refactors = 0;  ///< band-tail refreshes
  std::uint64_t deferred_updates = 0;   ///< updates absorbed without refactor
  std::uint64_t factor_cache_hits = 0;  ///< updates served by a cached factor slot
  std::uint64_t retries = 0;  ///< solves redone after a stale-factor failure
  std::int32_t last_iterations = 0;
};

/// Lazy-refresh state of one set of ILU(0) factors: the distinct rows
/// dirtied since the factors were last rebuilt, and the iteration count
/// of the first clean solve after that rebuild. It decides when the
/// deferred rebuild must fire; the owner rebuilds the factors itself and
/// reports back through refactored(). The scalar BiCGSTAB+ILU(0) solver
/// keeps one, BatchedBicgstabSolver one per lane, so a batched lane
/// refreshes exactly when its serial twin would. Counters go to the
/// owner's SolverStats.
class LazyRefresh {
 public:
  /// \p rows is the matrix dimension (sizes the dirty-row set; the only
  /// allocation).
  explicit LazyRefresh(std::int32_t rows)
      : row_dirty_(static_cast<std::size_t>(rows), 0) {}

  /// Record an in-place value update. Returns true when the factors
  /// must be rebuilt now: unknown rows, or the dirty-row fraction
  /// passing kMaxDirtyFraction. Only an update it defers counts as
  /// deferred.
  bool update(const ValueUpdate& u, SolverStats& stats) {
    if (u.rows.empty() && u.dirty_fraction == 0.0) return false;
    if (u.rows.empty()) return true;
    for (const std::int32_t r : u.rows) {
      if (!row_dirty_[static_cast<std::size_t>(r)]) {
        row_dirty_[static_cast<std::size_t>(r)] = 1;
        ++dirty_rows_;
      }
    }
    if (static_cast<double>(dirty_rows_) /
            static_cast<double>(row_dirty_.size()) >
        kMaxDirtyFraction) {
      return true;
    }
    ++stats.deferred_updates;
    return false;
  }

  /// The owner rebuilt the factors from the current values.
  void refactored(SolverStats& stats) {
    ++stats.refactors;
    if (dirty_rows_ > 0) {
      std::fill(row_dirty_.begin(), row_dirty_.end(), std::uint8_t{0});
      dirty_rows_ = 0;
    }
    fresh_iterations_ = -1;  // re-baseline on the next clean solve
  }

  /// Are the factors older than the values? A solve that fails on stale
  /// factors is worth one retry after a rebuild.
  bool stale() const { return dirty_rows_ > 0; }

  /// Record a converged solve of \p iterations. Returns true when the
  /// iteration-degradation trigger fires: the factors are stale and the
  /// solve took more than kMaxIterationGrowth times the fresh baseline
  /// plus kIterationSlack, so the next stale solve should start from
  /// rebuilt factors.
  bool solved(std::int32_t iterations, SolverStats& stats) {
    ++stats.solves;
    stats.iterations += static_cast<std::uint64_t>(iterations);
    stats.last_iterations = iterations;
    if (!stale()) {
      if (fresh_iterations_ < 0) fresh_iterations_ = iterations;
      return false;
    }
    const double limit =
        kMaxIterationGrowth * std::max(std::int32_t{1}, fresh_iterations_) +
        kIterationSlack;
    return static_cast<double>(iterations) > limit;
  }

 private:
  std::vector<std::uint8_t> row_dirty_;  ///< distinct rows dirty since refactor
  std::int32_t dirty_rows_ = 0;
  std::int32_t fresh_iterations_ = -1;  ///< iterations right after a refactor
};

}  // namespace tac3d::sparse
