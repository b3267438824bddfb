#pragma once
/// \file solver.hpp
/// \brief Facade over the direct and iterative solvers so the thermal
/// module can switch strategies via configuration.
///
/// Solvers allocate everything they need at bind time (construction):
/// factorization storage, preconditioner factors and Krylov scratch
/// vectors. update_values() and solve() then run without touching the
/// heap, which keeps the transient thermal stepping loop allocation-
/// free. An optional shared SymbolicStructure (see symbolic.hpp)
/// lets solvers bound to matrices with the same sparsity pattern skip
/// the symbolic analysis.
///
/// Value updates arrive as a ValueUpdate (which rows changed, how dirty
/// the matrix is), and each strategy refreshes lazily or partially under
/// the one refresh rule of refresh.hpp; a ValueUpdate with no rows and a
/// nonzero dirty fraction means "unknown rows" and refreshes fully. A solve uses the values of the last notification,
/// not the live matrix (BiCGSTAB+ILU(0) runs its SpMVs on a sliced-ELL
/// mirror that the notifications refill), so every value change must be
/// notified before the next solve().

#include <memory>
#include <span>

#include "sparse/csr.hpp"
#include "sparse/refresh.hpp"
#include "sparse/sliced.hpp"
#include "sparse/symbolic.hpp"

namespace tac3d::sparse {

/// Solver strategy.
enum class SolverKind {
  kBandedLu,      ///< RCM + banded direct LU, cached factorization
  kBicgstabIlu0,  ///< BiCGSTAB with ILU(0)
};

/// A linear solver bound to one matrix; update_values() refreshes the
/// factorization/preconditioner after in-place value changes on the same
/// sparsity pattern.
class LinearSolver {
 public:
  virtual ~LinearSolver() = default;

  /// The bound matrix's values changed only in \p update.rows (all rows
  /// when they are unknown). The solver refreshes under the refresh rule
  /// of refresh.hpp — lazily (iterative: keep stale factors until they
  /// hurt), partially (banded tail re-elimination) or fully. Never
  /// allocates: factors and preconditioners update in place.
  virtual void update_values(const CsrMatrix& a,
                             const ValueUpdate& update) = 0;

  /// Solve A x = b; \p x may carry a warm-start guess for iterative
  /// solvers (ignored by direct ones). Never allocates.
  virtual void solve(std::span<const double> b, std::span<double> x) = 0;

  /// Does solve() exploit the initial content of x? (False for direct
  /// solvers — callers can skip computing a warm-start guess.)
  virtual bool uses_initial_guess() const { return false; }

  /// Relative residual tolerance ||r||/||b|| for iterative strategies
  /// (no-op for direct solvers, which are exact). Default 1e-12 — far
  /// below any physical scale, so callers whose accuracy budget is set
  /// elsewhere (e.g. a time integrator's truncation error) can trade
  /// unneeded digits for iterations.
  virtual void set_tolerance(double rel_tolerance) { (void)rel_tolerance; }

  /// The sliced-ELL copy of the bound matrix's values that solve() runs
  /// its SpMVs on, as of the last notification; null for solvers without
  /// one (direct solvers). Its kernels (sliced.hpp) give bitwise the CSR
  /// row loops' values, so callers can evaluate residuals on it.
  virtual const SlicedMatrix* mirror() const { return nullptr; }

  /// Refresh/solve counters (all zero for strategies that don't track).
  const SolverStats& stats() const { return stats_; }

  /// Human-readable solver name for logs and benches.
  virtual const char* name() const = 0;

 protected:
  SolverStats stats_;
};

/// Create a solver of the requested kind bound to \p a. A non-null
/// \p structure (typically a ScenarioBank model tier's, shared by every
/// session of that stack)
/// supplies the precomputed symbolic analysis of \p a's pattern.
std::unique_ptr<LinearSolver> make_solver(
    SolverKind kind, const CsrMatrix& a,
    std::shared_ptr<const SymbolicStructure> structure = nullptr);

}  // namespace tac3d::sparse
