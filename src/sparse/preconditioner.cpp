#include "sparse/preconditioner.hpp"

#include "common/error.hpp"
#include "sparse/symbolic.hpp"

namespace tac3d::sparse {

Ilu0Preconditioner::Ilu0Preconditioner(const CsrMatrix& a,
                                       const SymbolicStructure* structure) {
  require(a.rows() == a.cols(), "Ilu0Preconditioner: matrix must be square");
  if (structure != nullptr) {
    require(structure->matches(a),
            "Ilu0Preconditioner: structure does not match the matrix");
    require(structure->ilu_schedule != nullptr,
            "Ilu0Preconditioner: missing diagonal entry");
    schedule_ = structure->ilu_schedule;
  } else {
    schedule_ = build_ilu_schedule(a.row_ptr(), a.col_idx());
  }
  lu_.assign(static_cast<std::size_t>(a.nnz()), 0.0);
  refactor(a);
}

void Ilu0Preconditioner::refactor(const CsrMatrix& a) {
  ilu0_factor_lane(*schedule_, schedule_->chunk_slot, a.row_ptr(),
                   a.col_idx(), a.values().data(), lu_.data(), 1, 0);
}

void Ilu0Preconditioner::apply(std::span<const double> r,
                               std::span<double> z) const {
  const std::int32_t n = schedule_->rows;
  require(static_cast<std::int32_t>(r.size()) == n &&
              static_cast<std::int32_t>(z.size()) == n,
          "Ilu0Preconditioner: size mismatch");
  ilu0_apply_chunks(*schedule_, lu_.data(), r.data(), z.data(), false);
}

double Ilu0Preconditioner::apply_sum_squares(std::span<const double> r,
                                             std::span<double> z) const {
  const std::int32_t n = schedule_->rows;
  require(static_cast<std::int32_t>(r.size()) == n &&
              static_cast<std::int32_t>(z.size()) == n,
          "Ilu0Preconditioner: size mismatch");
  return ilu0_apply_chunks(*schedule_, lu_.data(), r.data(), z.data(), true);
}

}  // namespace tac3d::sparse
