#include "sparse/banded_lu.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "sparse/rcm.hpp"
#include "sparse/symbolic.hpp"

namespace tac3d::sparse {

namespace {

/// The RCM permutation \p structure supplies (empty: none supplied, the
/// constructor orders the matrix itself).
std::vector<std::int32_t> supplied_perm(const SymbolicStructure* structure) {
  if (structure == nullptr) return {};
  require(!structure->rcm_perm.empty(),
          "BandedLu: structure carries no RCM ordering");
  return structure->rcm_perm;
}

}  // namespace

BandedLu::BandedLu(const CsrMatrix& a, const SymbolicStructure* structure)
    : BandedLu(a, supplied_perm(structure)) {
  // The band extents recomputed by the delegated constructor necessarily
  // match the cached ones (same pattern, same permutation); verify the
  // pattern match in debug spirit without paying for a second analysis.
  if (structure != nullptr) {
    require(structure->rows == a.rows() &&
                structure->band_lower == kl_ && structure->band_upper == ku_,
            "BandedLu: structure does not match the matrix");
  }
}

BandedLu::BandedLu(const CsrMatrix& a, std::vector<std::int32_t> perm) {
  require(a.rows() == a.cols(), "BandedLu: matrix must be square");
  n_ = a.rows();
  perm_ = perm.empty() ? rcm_ordering(a) : std::move(perm);
  require(static_cast<std::int32_t>(perm_.size()) == n_,
          "BandedLu: permutation size mismatch");
  inv_perm_.assign(static_cast<std::size_t>(n_), 0);
  for (std::int32_t i = 0; i < n_; ++i) inv_perm_[perm_[i]] = i;

  // Band extents of the permuted pattern; elimination without pivoting
  // creates fill only inside [i - kl, i + ku].
  kl_ = 0;
  ku_ = 0;
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  for (std::int32_t r = 0; r < n_; ++r) {
    const std::int32_t pr = inv_perm_[r];
    for (std::int32_t k = rp[r]; k < rp[r + 1]; ++k) {
      const std::int32_t pc = inv_perm_[ci[k]];
      kl_ = std::max(kl_, pr - pc);
      ku_ = std::max(ku_, pc - pr);
    }
  }
  stride_ = static_cast<std::size_t>(kl_) + static_cast<std::size_t>(ku_) + 1;
  data_.assign(static_cast<std::size_t>(n_) * stride_, 0.0);
  work_.assign(static_cast<std::size_t>(n_), 0.0);
  factor(a);
}

BandedLu BandedLu::reserved_like(const BandedLu& like) {
  BandedLu lu;
  lu.perm_.reserve(like.perm_.size());
  lu.inv_perm_.reserve(like.inv_perm_.size());
  lu.data_.reserve(like.data_.size());
  lu.work_.reserve(like.work_.size());
  return lu;
}

void BandedLu::load(const CsrMatrix& a, std::int32_t first_row) {
  std::fill(data_.begin() + static_cast<std::size_t>(first_row) * stride_,
            data_.end(), 0.0);
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto v = a.values();
  if (first_row == 0) {
    // Full load: walk the CSR rows in storage order (streams the value
    // array; the band writes are the scattered side).
    for (std::int32_t r = 0; r < n_; ++r) {
      const std::int32_t pr = inv_perm_[r];
      for (std::int32_t k = rp[r]; k < rp[r + 1]; ++k) {
        band(pr, inv_perm_[ci[k]]) = v[k];
      }
    }
    return;
  }
  // Partial load: walk permuted rows [first_row, n) so only the band
  // tail is touched (perm_ maps new -> old).
  for (std::int32_t pr = first_row; pr < n_; ++pr) {
    const std::int32_t r = perm_[pr];
    for (std::int32_t k = rp[r]; k < rp[r + 1]; ++k) {
      band(pr, inv_perm_[ci[k]]) = v[k];
    }
  }
}

void BandedLu::eliminate(std::int32_t first_row) {
  for (std::int32_t i = first_row; i < n_; ++i) {
    const std::int32_t k_lo = std::max(std::int32_t{0}, i - kl_);
    for (std::int32_t k = k_lo; k < i; ++k) {
      double& lik = band(i, k);
      if (lik == 0.0) continue;
      const double l = lik / band(k, k);
      lik = l;
      const std::int32_t j_hi = std::min(n_ - 1, k + ku_);
      for (std::int32_t j = k + 1; j <= j_hi; ++j) {
        band(i, j) -= l * band(k, j);
      }
    }
    // Row i is final: check its pivot here, the last row's included,
    // since solve() divides by every one of them.
    const double pivot = band(i, i);
    require(pivot != 0.0 && std::isfinite(pivot),
            "BandedLu: zero pivot (matrix singular or not diagonally "
            "dominant)");
  }
}

void BandedLu::factor(const CsrMatrix& a) {
  require(a.rows() == n_ && a.cols() == n_, "BandedLu::factor: size mismatch");
  load(a, 0);
  eliminate(0);
}

std::int32_t BandedLu::first_permuted_row(
    std::span<const std::int32_t> rows) const {
  std::int32_t first = n_;
  for (const std::int32_t r : rows) first = std::min(first, inv_perm_[r]);
  return first;
}

void BandedLu::factor_rows(const CsrMatrix& a,
                           std::span<const std::int32_t> dirty_rows) {
  require(a.rows() == n_ && a.cols() == n_,
          "BandedLu::factor_rows: size mismatch");
  const std::int32_t first = first_permuted_row(dirty_rows);
  if (first >= n_) return;  // nothing changed
  load(a, first);
  eliminate(first);
}

void BandedLu::solve(std::span<const double> b, std::span<double> x) const {
  require(static_cast<std::int32_t>(b.size()) == n_ &&
              static_cast<std::int32_t>(x.size()) == n_,
          "BandedLu::solve: size mismatch");
  std::vector<double>& y = work_;
  // Permute RHS: y = P b.
  for (std::int32_t i = 0; i < n_; ++i) y[i] = b[perm_[i]];
  // Both substitution sweeps walk one contiguous band-row segment against
  // a contiguous slice of y. Eight independent accumulators break the
  // add-latency chain (~2.6x on the paper stack vs a single accumulator);
  // the combine order is fixed so results stay deterministic run-to-run.
  const auto dot8 = [](const double* __restrict row,
                       const double* __restrict yv,
                       std::int32_t len) -> double {
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    double s4 = 0.0, s5 = 0.0, s6 = 0.0, s7 = 0.0;
    std::int32_t k = 0;
    for (; k + 8 <= len; k += 8) {
      s0 += row[k] * yv[k];
      s1 += row[k + 1] * yv[k + 1];
      s2 += row[k + 2] * yv[k + 2];
      s3 += row[k + 3] * yv[k + 3];
      s4 += row[k + 4] * yv[k + 4];
      s5 += row[k + 5] * yv[k + 5];
      s6 += row[k + 6] * yv[k + 6];
      s7 += row[k + 7] * yv[k + 7];
    }
    switch (len - k) {
      case 7: s6 += row[k + 6] * yv[k + 6]; [[fallthrough]];
      case 6: s5 += row[k + 5] * yv[k + 5]; [[fallthrough]];
      case 5: s4 += row[k + 4] * yv[k + 4]; [[fallthrough]];
      case 4: s3 += row[k + 3] * yv[k + 3]; [[fallthrough]];
      case 3: s2 += row[k + 2] * yv[k + 2]; [[fallthrough]];
      case 2: s1 += row[k + 1] * yv[k + 1]; [[fallthrough]];
      case 1: s0 += row[k] * yv[k]; break;
      default: break;
    }
    return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7));
  };
  // Forward substitution with unit-diagonal L.
  for (std::int32_t i = 0; i < n_; ++i) {
    const std::int32_t k_lo = std::max(std::int32_t{0}, i - kl_);
    const double* row =
        &data_[static_cast<std::size_t>(i) * stride_ +
               static_cast<std::size_t>(k_lo - i + kl_)];
    y[i] -= dot8(row, y.data() + k_lo, i - k_lo);
  }
  // Back substitution with U. Pointer arithmetic, not data_[]: with no
  // upper band (ku_ == 0) the last row's segment starts one past the end.
  for (std::int32_t i = n_ - 1; i >= 0; --i) {
    const std::int32_t j_hi = std::min(n_ - 1, i + ku_);
    const double* row = data_.data() +
                        static_cast<std::size_t>(i) * stride_ +
                        static_cast<std::size_t>(kl_) + 1;
    const double acc = y[i] - dot8(row, y.data() + i + 1, j_hi - i);
    y[i] = acc / band(i, i);
  }
  // Un-permute: x = P^T y.
  for (std::int32_t i = 0; i < n_; ++i) x[perm_[i]] = y[i];
}

}  // namespace tac3d::sparse
