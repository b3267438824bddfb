#pragma once
/// \file preconditioner.hpp
/// \brief The ILU(0) preconditioner of the Krylov solver.
///
/// All storage is allocated at construction and refreshed in place via
/// refactor() when the bound matrix's values change on the same sparsity
/// pattern — the solver hot path never allocates.

#include <memory>
#include <span>

#include "sparse/aligned.hpp"
#include "sparse/csr.hpp"
#include "sparse/ilu_schedule.hpp"

namespace tac3d::sparse {

struct SymbolicStructure;

/// Zero-fill incomplete LU factorization; the factors live on the
/// sparsity pattern of A. Stable for the diagonally dominant RC systems.
/// The triangular solves walk the pattern's level schedule
/// (ilu_schedule.hpp): bitwise the natural-order substitution, without
/// its row-after-row dependency chain. The factors are stored once,
/// chunk-major in a 64-byte-aligned array, and the applies solve each
/// full chunk with the AVX-512 kernel when the library has it.
class Ilu0Preconditioner {
 public:
  /// \p structure optionally supplies the precomputed level schedule
  /// (see symbolic.hpp); without it the pattern is analyzed here.
  explicit Ilu0Preconditioner(const CsrMatrix& a,
                              const SymbolicStructure* structure = nullptr);

  /// Recompute factors in place for new values on the same pattern
  /// (no allocation).
  void refactor(const CsrMatrix& a);

  /// z = M^{-1} r.
  void apply(std::span<const double> r, std::span<double> z) const;

  /// apply(), also returning dot(r, r) summed in natural row order from
  /// inside the forward sweep (BiCGSTAB's ||s||², off the critical
  /// path). r must not alias z.
  double apply_sum_squares(std::span<const double> r,
                           std::span<double> z) const;

  /// The current factor values (IluSchedule::chunk_slot order), for
  /// tests that compare factorizations byte for byte.
  std::span<const double> factor_values() const { return lu_; }

  /// The level schedule the solves walk.
  const IluSchedule& schedule() const { return *schedule_; }

 private:
  std::shared_ptr<const IluSchedule> schedule_;
  AlignedVector<double> lu_;  ///< combined factors, chunk-major
};

}  // namespace tac3d::sparse
