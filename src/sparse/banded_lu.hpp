#pragma once
/// \file banded_lu.hpp
/// \brief Direct banded LU factorization (no pivoting) after RCM
/// reordering.
///
/// The backward-Euler matrices of the RC thermal model are strictly
/// diagonally dominant, so LU without pivoting is numerically stable.
/// The band layout is fixed by the sparsity pattern at construction;
/// refactorizing after an in-place value update (e.g. a flow-rate change)
/// reuses the same storage and permutation.

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/csr.hpp"

namespace tac3d::sparse {

struct SymbolicStructure;

/// LU = P A P^T factorization in banded storage. Factoring throws
/// InvalidArgument on a zero or non-finite pivot.
class BandedLu {
 public:
  /// Analyze the pattern of \p a (using RCM unless \p perm is supplied)
  /// and factor its values. \p perm maps new index -> old index.
  explicit BandedLu(const CsrMatrix& a, std::vector<std::int32_t> perm = {});

  /// Reuse a precomputed symbolic analysis (RCM permutation and band
  /// extents, see symbolic.hpp) instead of recomputing it; a null
  /// \p structure falls back to the analyzing constructor.
  BandedLu(const CsrMatrix& a, const SymbolicStructure* structure);

  /// A factor slot for \p like's pattern: capacity for every buffer is
  /// reserved and nothing is written, so the band's pages stay untouched
  /// until a factored BandedLu of the same pattern is copy-assigned into
  /// it, which then allocates nothing. Holds no factor until then.
  static BandedLu reserved_like(const BandedLu& like);

  /// False for a reserved_like() slot that nothing was assigned to yet.
  bool factored() const { return !data_.empty(); }

  /// Refactor with new values; \p a must have the same sparsity pattern
  /// as the matrix used at construction.
  void factor(const CsrMatrix& a);

  /// Partial refactor after an in-place value update that touched only
  /// \p dirty_rows (original, unpermuted indices): band rows above the
  /// first dirty permuted row keep their LU values (elimination of row i
  /// reads only rows k < i), so only the tail [first_dirty, n) is
  /// reloaded and re-eliminated. Bitwise identical to a full factor().
  void factor_rows(const CsrMatrix& a,
                   std::span<const std::int32_t> dirty_rows);

  /// Smallest permuted index over \p rows (n if empty) — the row a
  /// partial refactor restarts from.
  std::int32_t first_permuted_row(std::span<const std::int32_t> rows) const;

  /// Solve A x = b. \p x and \p b may alias.
  void solve(std::span<const double> b, std::span<double> x) const;

  std::int32_t size() const { return n_; }
  std::int32_t lower_bandwidth() const { return kl_; }
  std::int32_t upper_bandwidth() const { return ku_; }

 private:
  BandedLu() = default;
  double& band(std::int32_t i, std::int32_t j) {
    return data_[static_cast<std::size_t>(i) * stride_ + (j - i + kl_)];
  }
  double band(std::int32_t i, std::int32_t j) const {
    return data_[static_cast<std::size_t>(i) * stride_ + (j - i + kl_)];
  }
  void load(const CsrMatrix& a, std::int32_t first_row);
  void eliminate(std::int32_t first_row);

  std::int32_t n_ = 0;
  std::int32_t kl_ = 0;
  std::int32_t ku_ = 0;
  std::size_t stride_ = 0;
  std::vector<std::int32_t> perm_;      ///< new -> old
  std::vector<std::int32_t> inv_perm_;  ///< old -> new
  std::vector<double> data_;            ///< row-major band, LU in place
  mutable std::vector<double> work_;
};

}  // namespace tac3d::sparse
