#pragma once
/// \file symbolic.hpp
/// \brief Symbolic analysis of a sparsity pattern, shareable between
/// solvers bound to matrices with that pattern.
///
/// A design-space sweep instantiates one RC model per scenario, but
/// scenarios with the same stack geometry produce bit-identical CSR
/// patterns. The expensive symbolic work — RCM ordering, banded-LU band
/// extents, the ILU(0) level schedule with its diagonal index map, the
/// sliced-ELL layout of the Krylov SpMVs — depends only on the pattern,
/// so it can be computed once and handed out as a shared immutable
/// SymbolicStructure to every solver on that pattern (a ScenarioBank's
/// model tier does, see sim/bank.hpp). Symbolic analysis is a pure
/// function of the pattern, so a solver built from a shared structure is
/// bitwise identical to one that analyzed the matrix itself.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/ilu_schedule.hpp"
#include "sparse/sliced.hpp"

namespace tac3d::sparse {

/// Immutable pattern-level analysis shared between solvers.
struct SymbolicStructure {
  std::int32_t rows = 0;
  /// RCM permutation, perm[new] = old (see rcm_ordering); empty when the
  /// analysis skipped the ordering (no banded LU can bind it then).
  std::vector<std::int32_t> rcm_perm;
  /// Inverse permutation, inv[old] = new.
  std::vector<std::int32_t> rcm_inv_perm;
  /// Band extents of the RCM-permuted pattern (banded LU storage).
  std::int32_t band_lower = 0;
  std::int32_t band_upper = 0;
  /// Level schedule of the ILU(0) triangular solves and the scalar
  /// factors' chunk layout, shared by the scalar and batched
  /// preconditioners of every solver on this pattern (null when a
  /// diagonal entry is missing: no ILU(0) exists).
  std::shared_ptr<const IluSchedule> ilu_schedule;
  /// Slice offsets and padded columns of the sliced-ELL copy the
  /// BiCGSTAB solvers on this pattern traverse (sliced.hpp).
  std::shared_ptr<const SlicedPattern> sliced;
  /// Pattern copy, so a solver handed this structure can verify that it
  /// describes the matrix it binds.
  std::vector<std::int32_t> row_ptr;
  std::vector<std::int32_t> col_idx;

  /// True if \p a has exactly this sparsity pattern.
  bool matches(const CsrMatrix& a) const;
  bool matches(std::span<const std::int32_t> row_ptr,
               std::span<const std::int32_t> col_idx) const;
};

/// Run the symbolic analysis of \p a. Without \p ordering it skips the
/// RCM ordering and band extents, which only the banded LU reads.
std::shared_ptr<const SymbolicStructure> analyze_structure(
    const CsrMatrix& a, bool ordering = true);

}  // namespace tac3d::sparse
