#include "thermal/batched_transient.hpp"

#include <algorithm>
#include <exception>

#include "common/error.hpp"

namespace tac3d::thermal {

namespace {

/// Lane 0's operator matrix is the shared pattern everyone must match.
const sparse::CsrMatrix& pattern_of(
    const std::vector<TransientSolver*>& lanes) {
  require(!lanes.empty() && lanes.front() != nullptr,
          "BatchedTransientSolver: no lanes");
  return lanes.front()->system_operator().matrix();
}

/// Verify pattern compatibility and load every lane's current values —
/// run before the batched preconditioner binds, so each lane's initial
/// factors equal the ones its scalar twin built at construction.
const sparse::BatchedCsr& load_all_lanes(
    sparse::BatchedCsr& a, const std::vector<TransientSolver*>& lanes) {
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    require(lanes[l] != nullptr, "BatchedTransientSolver: null lane");
    require(BatchedTransientSolver::compatible(*lanes.front(), *lanes[l]),
            "BatchedTransientSolver: lanes must share the sparsity pattern");
    a.load_lane(static_cast<int>(l), lanes[l]->system_operator().matrix());
  }
  return a;
}

}  // namespace

bool BatchedTransientSolver::compatible(const TransientSolver& a,
                                        const TransientSolver& b) {
  const sparse::CsrMatrix& ma = a.system_operator().matrix();
  const sparse::CsrMatrix& mb = b.system_operator().matrix();
  return ma.rows() == mb.rows() && ma.nnz() == mb.nnz() &&
         std::equal(ma.row_ptr().begin(), ma.row_ptr().end(),
                    mb.row_ptr().begin()) &&
         std::equal(ma.col_idx().begin(), ma.col_idx().end(),
                    mb.col_idx().begin());
}

BatchedTransientSolver::BatchedTransientSolver(
    const std::vector<TransientSolver*>& lanes)
    : lanes_(lanes),
      a_(pattern_of(lanes), static_cast<int>(lanes.size())),
      solver_(load_all_lanes(a_, lanes), lanes.front()->structure()) {
  const int L = static_cast<int>(lanes.size());
  for (int l = 0; l < L; ++l) {
    solver_.set_tolerance(l, lanes_[static_cast<std::size_t>(l)]
                                 ->rel_tolerance());
  }
  const std::size_t total =
      static_cast<std::size_t>(a_.rows()) * static_cast<std::size_t>(L);
  b_.assign(total, 0.0);
  x_.assign(total, 0.0);
  pred_x_.assign(total, 0.0);
  traj_x_.assign(total, 0.0);
  guard_r_.assign(total, 0.0);
  const std::size_t ls = static_cast<std::size_t>(L);
  rr_plain_.assign(ls, 0.0);
  rr_pred_.assign(ls, 0.0);
  rr_traj_.assign(ls, 0.0);
  bb_.assign(ls, 0.0);
  bb_scratch_.assign(ls, 0.0);
  stepped_.assign(ls, 0);
  want_pred_.assign(ls, 0);
  want_traj_.assign(ls, 0);
  solve_failed_.assign(ls, 0);
  lane_errors_.resize(ls);
}

void BatchedTransientSolver::step_all(std::span<const std::uint8_t> active,
                                      std::span<std::uint8_t> failed) {
  const int L = lanes();
  require(active.size() == static_cast<std::size_t>(L) &&
              failed.size() == static_cast<std::size_t>(L),
          "BatchedTransientSolver::step_all: mask size mismatch");
  std::fill(failed.begin(), failed.end(), std::uint8_t{0});
  std::fill(stepped_.begin(), stepped_.end(), std::uint8_t{0});
  std::fill(want_pred_.begin(), want_pred_.end(), std::uint8_t{0});
  std::fill(want_traj_.begin(), want_traj_.end(), std::uint8_t{0});

  // Phase 1 per lane: flow sync, RHS build, warm-start candidate
  // construction (the shared TransientSolver code), plus the value sync
  // into the interleaved matrix.
  bool any_pred = false, any_traj = false;
  const double* b_src[sparse::kMaxBatchLanes] = {};
  const double* x_src[sparse::kMaxBatchLanes] = {};
  const double* pred_src[sparse::kMaxBatchLanes] = {};
  const double* traj_src[sparse::kMaxBatchLanes] = {};
  for (int l = 0; l < L; ++l) {
    if (!active[l]) continue;
    lane_errors_[static_cast<std::size_t>(l)].clear();
    TransientSolver* lane = lanes_[static_cast<std::size_t>(l)];
    TransientSolver::StepPrep prep;
    try {
      prep = lane->begin_step_prepare();
      if (prep.flow_changed) {
        // Sync only the rows the flow update rewrote (an empty row list
        // with nonzero dirt means "unknown rows" — reload the lane).
        if (!prep.update.rows.empty()) {
          a_.load_lane_rows(l, lane->system_operator().matrix(),
                            prep.update.rows);
        } else {
          a_.load_lane(l, lane->system_operator().matrix());
        }
        solver_.update_lane_values(l, a_, prep.update);
      }
    } catch (const std::exception& e) {
      // Lane-local failure (e.g. a flow update drove a preconditioner
      // pivot to zero): fail this lane, keep its batchmates stepping —
      // the scalar path would have thrown out of this scenario's step.
      lane_errors_[static_cast<std::size_t>(l)] = e.what();
      failed[l] = 1;
      continue;
    }
    if (prep.want_predicted) {
      pred_src[l] = lane->predicted_candidate().data();
      want_pred_[static_cast<std::size_t>(l)] = 1;
      any_pred = true;
    }
    if (prep.want_trajectory) {
      traj_src[l] = lane->trajectory_candidate().data();
      want_traj_[static_cast<std::size_t>(l)] = 1;
      any_traj = true;
    }
    b_src[l] = lane->step_rhs().data();
    x_src[l] = lane->step_solution().data();
    stepped_[static_cast<std::size_t>(l)] = 1;
  }
  const std::size_t n = static_cast<std::size_t>(a_.rows());
  sparse::pack_lanes(b_, L, b_src, n);
  sparse::pack_lanes(x_, L, x_src, n);
  if (any_pred) sparse::pack_lanes(pred_x_, L, pred_src, n);
  if (any_traj) sparse::pack_lanes(traj_x_, L, traj_src, n);

  // Phase 2: warm-start guard residuals as shared traversals — the
  // serial path spends up to three per lane; here each candidate class
  // costs one for the whole batch. Lanes without a candidate stream
  // stale buffer contents through the kernels; their norms are ignored.
  // The plain warm start's residual is only read by the commit when a
  // candidate is not already at the solve tolerance, so its traversal is
  // skipped entirely when every candidate is — the settled regime, where
  // a step's whole guard cost collapses to one shared traversal.
  if (any_pred) {
    sparse::batched_residual_norms(a_, pred_x_, b_, guard_r_, rr_pred_, bb_);
  }
  if (any_traj) {
    sparse::batched_residual_norms(a_, traj_x_, b_, guard_r_, rr_traj_,
                                   any_pred ? bb_scratch_ : bb_);
  }
  if (any_pred || any_traj) {
    bool need_plain = false;
    for (int l = 0; l < L && !need_plain; ++l) {
      const std::size_t s = static_cast<std::size_t>(l);
      if (!stepped_[s]) continue;
      const double tol = lanes_[s]->rel_tolerance();
      const double gate = bb_[s] * tol * tol;
      // A prediction at tolerance wins outright — the commit never
      // consults rr_plain or the trajectory for that lane (mirror of
      // the serial lazy evaluation).
      const bool pred_at_tol = want_pred_[s] && rr_pred_[s] <= gate;
      if (pred_at_tol) continue;
      if (want_pred_[s]) need_plain = true;
      if (want_traj_[s] && rr_traj_[s] > gate) need_plain = true;
    }
    if (need_plain) {
      sparse::batched_residual_norms(a_, x_, b_, guard_r_, rr_plain_,
                                     bb_scratch_);
    }
  }

  // Phase 3 per lane: commit the guard decisions (pure comparisons —
  // identical to the serial evaluation) and re-pack lanes whose warm
  // start changed.
  bool any_repack = false;
  const double* repack_src[sparse::kMaxBatchLanes] = {};
  for (int l = 0; l < L; ++l) {
    const std::size_t s = static_cast<std::size_t>(l);
    if (!stepped_[s]) continue;
    TransientSolver* lane = lanes_[s];
    try {
      lane->begin_step_commit(rr_pred_[s], rr_traj_[s], rr_plain_[s],
                              bb_[s]);
    } catch (const std::exception& e) {
      lane_errors_[s] = e.what();
      failed[l] = 1;
      stepped_[s] = 0;  // exclude from the solve
      continue;
    }
    if (want_pred_[s] || want_traj_[s]) {
      repack_src[l] = lane->step_solution().data();
      any_repack = true;
    }
  }
  if (any_repack) sparse::pack_lanes(x_, L, repack_src, n);

  // The solver owns its own failure mask (it clears it on entry, which
  // would wipe the phase-1/phase-3 lane failures recorded above) —
  // merge instead of aliasing.
  solver_.solve(a_, b_, x_, stepped_,
                std::span<std::uint8_t>(solve_failed_.data(),
                                        static_cast<std::size_t>(L)));
  for (int l = 0; l < L; ++l) {
    if (solve_failed_[static_cast<std::size_t>(l)]) failed[l] = 1;
  }

  double* out_dst[sparse::kMaxBatchLanes] = {};
  bool any_out = false;
  for (int l = 0; l < L; ++l) {
    if (!stepped_[static_cast<std::size_t>(l)] || failed[l]) continue;
    out_dst[l] = lanes_[static_cast<std::size_t>(l)]->step_solution().data();
    any_out = true;
  }
  if (any_out) sparse::unpack_lanes(x_, L, out_dst, n);
  for (int l = 0; l < L; ++l) {
    if (out_dst[l] == nullptr) continue;
    try {
      lanes_[static_cast<std::size_t>(l)]->end_step();
    } catch (const std::exception& e) {
      lane_errors_[static_cast<std::size_t>(l)] = e.what();
      failed[l] = 1;
    }
  }
}

}  // namespace tac3d::thermal
