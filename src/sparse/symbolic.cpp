#include "sparse/symbolic.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "sparse/rcm.hpp"

namespace tac3d::sparse {

bool SymbolicStructure::matches(const CsrMatrix& a) const {
  return a.cols() == rows && matches(a.row_ptr(), a.col_idx());
}

bool SymbolicStructure::matches(std::span<const std::int32_t> rp,
                                std::span<const std::int32_t> ci) const {
  return std::equal(row_ptr.begin(), row_ptr.end(), rp.begin(), rp.end()) &&
         std::equal(col_idx.begin(), col_idx.end(), ci.begin(), ci.end());
}

std::shared_ptr<const SymbolicStructure> analyze_structure(const CsrMatrix& a,
                                                           bool ordering) {
  require(a.rows() == a.cols(),
          "analyze_structure: matrix must be square");
  auto s = std::make_shared<SymbolicStructure>();
  const std::int32_t n = a.rows();
  s->rows = n;
  s->row_ptr.assign(a.row_ptr().begin(), a.row_ptr().end());
  s->col_idx.assign(a.col_idx().begin(), a.col_idx().end());
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();

  // RCM ordering and the band extents of the permuted pattern.
  if (ordering) {
    s->rcm_perm = rcm_ordering(a);
    s->rcm_inv_perm.assign(static_cast<std::size_t>(n), 0);
    for (std::int32_t i = 0; i < n; ++i) s->rcm_inv_perm[s->rcm_perm[i]] = i;
    for (std::int32_t r = 0; r < n; ++r) {
      const std::int32_t pr = s->rcm_inv_perm[r];
      for (std::int32_t k = rp[r]; k < rp[r + 1]; ++k) {
        const std::int32_t pc = s->rcm_inv_perm[ci[k]];
        s->band_lower = std::max(s->band_lower, pr - pc);
        s->band_upper = std::max(s->band_upper, pc - pr);
      }
    }
  }

  // The level schedule of the ILU(0) solves, when every row has its
  // diagonal entry (IluSchedule::diag then maps them).
  bool every_diagonal = true;
  for (std::int32_t r = 0; r < n && every_diagonal; ++r) {
    every_diagonal = std::find(ci.begin() + rp[r], ci.begin() + rp[r + 1],
                               r) != ci.begin() + rp[r + 1];
  }
  if (every_diagonal) s->ilu_schedule = build_ilu_schedule(rp, ci);
  s->sliced = build_sliced_pattern(rp, ci);
  return s;
}

}  // namespace tac3d::sparse
