#pragma once
/// \file iterative.hpp
/// \brief The Krylov solver: ILU(0)-preconditioned BiCGSTAB for the
/// advection-coupled, non-symmetric RC systems.
///
/// The solver exists in two forms: the workspace overload runs fully
/// allocation-free against a caller-owned KrylovWorkspace (the transient
/// thermal loop binds one per solver at construction), and the plain
/// overload allocates a scratch workspace internally for one-off solves.
///
/// BiCGSTAB forms s = r - alpha v in a plain vector pass and sums ||s||²
/// inside the forward sweep of the M^{-1}s it needs next
/// (Ilu0Preconditioner::apply_sum_squares), so that serial add chain
/// overlaps the sweep instead of running alone; the sum keeps its
/// natural row order, so every iterate is bitwise unchanged. An exit at
/// the ||s|| check discards the speculative M^{-1}s. The workspace
/// vectors are 64-byte aligned (aligned.hpp), like the sliced values and
/// the ILU(0) factors the iteration streams beside them.

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/aligned.hpp"
#include "sparse/csr.hpp"
#include "sparse/preconditioner.hpp"
#include "sparse/sliced.hpp"

namespace tac3d::sparse {

/// Result of an iterative solve.
struct IterativeResult {
  bool converged = false;
  std::int32_t iterations = 0;
  /// Final recurrence residual ||r||_2 (BiCGSTAB: ||s|| on its
  /// mid-iteration exit, as in the batched path). It equals ||b - A x||_2
  /// up to rounding; only an initial guess that already converges is
  /// measured by a fresh b - A x.
  double residual_norm = 0.0;
};

/// Options of the Krylov solver.
struct IterativeOptions {
  double rel_tolerance = 1e-10;    ///< on ||r||_2 / ||b||_2
  std::int32_t max_iterations = 2000;
};

/// Preallocated scratch vectors for bicgstab(). resize() is a no-op
/// when the size already matches, so a workspace bound once keeps the
/// solver hot path free of heap allocations.
class KrylovWorkspace {
 public:
  /// Size every buffer for an n-dimensional system.
  void resize(std::size_t n);

  std::size_t size() const { return n_; }

  AlignedVector<double> r, r0, p, v, s, t, ph, sh;

 private:
  std::size_t n_ = 0;
};

/// ILU(0)-preconditioned BiCGSTAB for general square systems, on the
/// sliced-ELL copy of A (sliced.hpp: bitwise the CSR products, without
/// their per-row add chains). \p x holds the initial guess on entry and
/// the solution on exit. The workspace overload performs no heap
/// allocations once \p ws is sized.
IterativeResult bicgstab(const SlicedMatrix& a, std::span<const double> b,
                         std::span<double> x, const Ilu0Preconditioner& m,
                         const IterativeOptions& opts, KrylovWorkspace& ws);
IterativeResult bicgstab(const SlicedMatrix& a, std::span<const double> b,
                         std::span<double> x, const Ilu0Preconditioner& m,
                         const IterativeOptions& opts = {});

}  // namespace tac3d::sparse
