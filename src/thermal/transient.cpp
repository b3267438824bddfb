#include "thermal/transient.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/trace.hpp"
#include "sparse/sliced.hpp"

namespace tac3d::thermal {

TransientSolver::TransientSolver(RcModel& model, double dt,
                                 const Options& opts)
    : model_(model),
      dt_(dt),
      op_(model, dt),
      structure_(opts.structure) {
  require(dt > 0.0, "TransientSolver: dt must be positive");
  const std::int32_t n = model_.node_count();
  state_.assign(n, std::max(model_.grid().spec().ambient,
                            model_.grid().spec().coolant_inlet));
  rhs_.assign(n, 0.0);
  c_over_dt_.assign(n, 0.0);
  const std::span<const double> c = model_.capacitance();
  for (std::int32_t i = 0; i < n; ++i) c_over_dt_[i] = c[i] / dt_;

  solver_ = sparse::make_solver(opts.kind, op_.matrix(), structure_);
  rel_tolerance_ = opts.rel_tolerance;
  solver_->set_tolerance(rel_tolerance_);

  if (opts.warm_start_slots > 0 && solver_->uses_initial_guess() &&
      model_.n_cavities() > 0) {
    slots_.resize(static_cast<std::size_t>(opts.warm_start_slots));
    for (WarmStartSlot& s : slots_) {
      s.flows.assign(static_cast<std::size_t>(model_.n_cavities()), 0.0);
      s.profiles.assign(static_cast<std::size_t>(model_.n_cavities()), 0);
      s.state_before.assign(static_cast<std::size_t>(n), 0.0);
      s.solution.assign(static_cast<std::size_t>(n), 0.0);
    }
    predicted_.assign(n, 0.0);
    prev_state_.assign(n, 0.0);
    if (opts.fluid_jump_predictor) {
      // Upstream-first sweep order: advection entries are stored along
      // the flow direction per cavity, so a Gauss-Seidel pass reads each
      // node's upstream neighbor after it has already been updated.
      for (int cav = 0; cav < model_.n_cavities(); ++cav) {
        for (const AdvectionEntry& e : model_.advection_entries(cav)) {
          fluid_rows_.push_back(e.node);
        }
      }
    }
  }
  if (opts.trajectory_warm_start && solver_->uses_initial_guess()) {
    traj_prev_.assign(n, 0.0);
    traj_guess_.assign(n, 0.0);
  }
  if (!slots_.empty() || !traj_prev_.empty()) {
    residual_.assign(n, 0.0);  // shared guard scratch
  }
}

TransientSolver::TransientSolver(RcModel& model, double dt,
                                 sparse::SolverKind kind)
    : TransientSolver(model, dt, Options{.kind = kind}) {}

void TransientSolver::set_state(std::vector<double> temps) {
  require(static_cast<std::int32_t>(temps.size()) == model_.node_count(),
          "TransientSolver::set_state: size mismatch");
  state_ = std::move(temps);
  traj_valid_ = false;  // externally replaced state breaks the history
}

void TransientSolver::initialize_steady() {
  set_state(
      model_.steady_state(sparse::SolverKind::kBicgstabIlu0, structure_));
}

TransientSolver::WarmStartSlot* TransientSolver::find_slot() {
  if (slots_.empty()) return nullptr;
  for (WarmStartSlot& s : slots_) {
    if (!s.used) continue;
    bool match = true;
    for (int cav = 0; cav < model_.n_cavities(); ++cav) {
      const std::size_t c = static_cast<std::size_t>(cav);
      if (s.flows[c] != model_.cavity_flow(cav) ||
          s.profiles[c] != model_.cavity_profile_version(cav)) {
        match = false;
        break;
      }
    }
    if (match) return &s;
  }
  WarmStartSlot& victim = slots_[static_cast<std::size_t>(next_slot_)];
  next_slot_ = (next_slot_ + 1) % static_cast<int>(slots_.size());
  victim.used = false;
  return &victim;
}

bool TransientSolver::interpolate_prediction() {
  const int n_cav = model_.n_cavities();
  for (std::size_t ia = 0; ia + 1 < slots_.size(); ++ia) {
    const WarmStartSlot& a = slots_[ia];
    if (!a.used) continue;
    for (std::size_t ib = ia + 1; ib < slots_.size(); ++ib) {
      const WarmStartSlot& b = slots_[ib];
      if (!b.used) continue;
      // Shared interpolation parameter: cur = a + theta * (b - a) for
      // every cavity, theta strictly inside (0, 1), profiles matching.
      double theta = -1.0;
      bool ok = true;
      for (int cav = 0; cav < n_cav && ok; ++cav) {
        const std::size_t c = static_cast<std::size_t>(cav);
        const std::uint64_t prof = model_.cavity_profile_version(cav);
        if (a.profiles[c] != prof || b.profiles[c] != prof) {
          ok = false;
          break;
        }
        const double cur = model_.cavity_flow(cav);
        const double span = b.flows[c] - a.flows[c];
        if (span == 0.0) {
          ok = cur == a.flows[c];
          continue;
        }
        const double t = (cur - a.flows[c]) / span;
        if (theta < 0.0) {
          if (t <= 0.0 || t >= 1.0) {
            ok = false;
          } else {
            theta = t;
          }
        } else {
          // All cavities must agree on the parameter (the one-knob
          // modulation family the policies actually drive).
          ok = std::abs(t - theta) <=
               1e-9 * std::max(1.0, std::abs(theta));
        }
      }
      if (!ok || theta < 0.0) continue;
      // x0 = T_n + jump_a + theta * (jump_b - jump_a), where jump_s is
      // the temperature jump the cached step at slot s produced.
      for (std::size_t i = 0; i < state_.size(); ++i) {
        const double jump_a = a.solution[i] - a.state_before[i];
        const double jump_b = b.solution[i] - b.state_before[i];
        predicted_[i] = state_[i] + (jump_a + theta * (jump_b - jump_a));
      }
      return true;
    }
  }
  return false;
}

void TransientSolver::fluid_jump_prediction() {
  // A flow change rewrites only the advection entries, so the solution
  // jump is concentrated in the coolant field: relax the fluid-row
  // subsystem of A x = rhs with the solid temperatures frozen at T_n.
  // Two Gauss-Seidel sweeps in upstream-first order propagate the new
  // flow rate down each channel (the advection stencil is strongly
  // one-directional), which lands the fluid block within a few percent
  // of its solve at O(fluid nnz) cost. The residual guard in
  // begin_step_commit keeps the prediction honest.
  std::copy(state_.begin(), state_.end(), predicted_.begin());
  const sparse::CsrMatrix& a = op_.matrix();
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto v = a.values();
  const auto relax_row = [&](const std::int32_t i) {
    double num = rhs_[i];
    double diag = 0.0;
    for (std::int32_t k = rp[i]; k < rp[i + 1]; ++k) {
      const std::int32_t j = ci[k];
      if (j == i) {
        diag = v[k];
      } else {
        num -= v[k] * predicted_[j];
      }
    }
    predicted_[i] = num / diag;
  };
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (const std::int32_t i : fluid_rows_) relax_row(i);
  }
  // Deliberately stop here: the sweeps solve the fluid block exactly
  // with the solid field frozen, which transfers the remaining residual
  // onto the wall rows. Extending the relaxation there (measured) cuts
  // the residual norm another ~1.4x but costs Krylov iterations — the
  // ILU(0)-preconditioned solve recovers faster from an exactly
  // satisfied fluid block than from a smaller but wall-smeared
  // residual, and anything past one wall pass stalls anyway (the solid
  // block is not diagonally dominant).
}

TransientSolver::StepPrep TransientSolver::begin_step_prepare() {
  StepPrep prep;
  prep.flow_changed = !op_.in_sync();
  if (prep.flow_changed) {
    prep.update = op_.update_flow();
  }
  // rhs = P + (C/dt) T_n, built in one fused pass.
  model_.rhs_plus_scaled_into(rhs_, c_over_dt_, state_);

  // Trajectory extrapolation x0 = T_n + (T_n - T_{n-1}): build the guess
  // while T_{n-1} is still around, then roll the history forward. The
  // closed loop drives power (and modulated flow) piecewise-linearly, so
  // consecutive deltas nearly repeat and the guess starts the Krylov
  // solve decades closer than the plain warm start.
  bool extrapolate = !traj_prev_.empty() && traj_valid_;
  if (extrapolate) {
    double dd = 0.0;
    for (std::size_t i = 0; i < state_.size(); ++i) {
      const double d = state_[i] - traj_prev_[i];
      traj_guess_[i] = state_[i] + d;
      dd += d * d;
    }
    // Settled trajectory (exact fixed point, e.g. constant power and
    // flow): the guess IS the plain warm start — skip the guard SpMVs.
    if (dd == 0.0) extrapolate = false;
  }
  if (!traj_prev_.empty()) {
    std::copy(state_.begin(), state_.end(), traj_prev_.begin());
    traj_valid_ = true;
  }
  prep.want_trajectory = extrapolate;

  pending_slot_ = nullptr;
  if (prep.flow_changed && !slots_.empty()) {
    WarmStartSlot* slot = find_slot();
    pending_slot_ = slot;
    std::copy(state_.begin(), state_.end(), prev_state_.begin());
    // Predict the post-flow-change solution as the current state plus a
    // jump derived from the transition cache: on an exact flow-state
    // match, the jump the cached step at these exact flows produced
    // (x0 = T_n + solution - state_before; on a sustained modulation
    // orbit this is the solution itself); on a miss, the linear
    // interpolation between two cached jumps whose flow states bracket
    // the new one (continuous fuzzy modulation rarely revisits exact
    // states, but walks between cached ones all the time).
    if (slot->used) {
      for (std::size_t i = 0; i < state_.size(); ++i) {
        predicted_[i] =
            state_[i] + (slot->solution[i] - slot->state_before[i]);
      }
      prep.want_predicted = true;
    } else if (interpolate_prediction()) {
      prep.want_predicted = true;
      prep.predicted_is_interpolation = true;
    } else if (!fluid_rows_.empty()) {
      // Genuinely new flow regime: neither cached prediction applies.
      fluid_jump_prediction();
      prep.want_predicted = true;
      prep.predicted_is_fluid_jump = true;
    }
  }
  pending_ = prep;
  return prep;
}

void TransientSolver::begin_step_commit(double rr_predicted,
                                        double rr_trajectory, double rr_plain,
                                        double bb) {
  // The guards compare squared residual norms; a candidate wins when it
  // is already at the solve tolerance or beats the plain warm start.
  // Callers that evaluate eagerly (the batched driver) pass every value;
  // the serial wrapper passes exactly what it computed — a value is only
  // read on paths where the serial evaluation computed it too, so the
  // decisions (and the chosen state) are identical either way.
  const double tol2 = rel_tolerance_ * rel_tolerance_;
  bool predictor_used = false;
  if (pending_.want_predicted) {
    const bool use_pred =
        rr_predicted <= bb * tol2 || rr_predicted < rr_plain;
    if (use_pred) {
      std::copy(predicted_.begin(), predicted_.end(), state_.begin());
      ++(pending_.predicted_is_interpolation
             ? predictor_interp_hits_
             : pending_.predicted_is_fluid_jump ? predictor_fluid_hits_
                                                : predictor_hits_);
      predictor_used = true;
    }
  }
  if (pending_.want_trajectory && !predictor_used) {
    const bool use_traj =
        rr_trajectory <= bb * tol2 || rr_trajectory < rr_plain;
    if (use_traj) {
      std::copy(traj_guess_.begin(), traj_guess_.end(), state_.begin());
      ++trajectory_hits_;
    }
  }
  pending_ = StepPrep{};
}

void TransientSolver::end_step() {
  if (pending_slot_ != nullptr) {
    WarmStartSlot* slot = pending_slot_;
    for (int cav = 0; cav < model_.n_cavities(); ++cav) {
      const std::size_t c = static_cast<std::size_t>(cav);
      slot->flows[c] = model_.cavity_flow(cav);
      slot->profiles[c] = model_.cavity_profile_version(cav);
    }
    std::copy(prev_state_.begin(), prev_state_.end(),
              slot->state_before.begin());
    std::copy(state_.begin(), state_.end(), slot->solution.begin());
    slot->used = true;
    pending_slot_ = nullptr;
  }
  time_ += dt_;
}

void TransientSolver::step() {
  const StepPrep prep = begin_step_prepare();
  // Notify the refresh first: it reads no guard value, and the guards
  // below read the mirror it refills (and no factors).
  if (prep.flow_changed) {
    obs::TraceSpan span("solver/refresh");
    solver_->update_values(op_.matrix(), prep.update);
  }
  // Guard evaluation, lazy: the plain warm start's residual is only
  // spent when a candidate is not already at the solve tolerance, and
  // the trajectory guard is skipped once the flow prediction wins.
  // begin_step_commit re-derives the same decisions from these values.
  double rr_pred = 0.0, rr_traj = 0.0, bb = 0.0;
  double rr_plain = -1.0;  // plain warm start ||b - A T_n||², lazily computed
  if (prep.want_predicted || prep.want_trajectory) {
    // Candidates exist only for solvers that use an initial guess, and
    // those run on a mirror.
    const sparse::SlicedMatrix& a = *solver_->mirror();
    const double tol2 = rel_tolerance_ * rel_tolerance_;
    double bb_plain = 0.0;
    bool traj_pending = prep.want_trajectory;
    if (prep.want_predicted) {
      rr_pred = sparse::residual_norms(a, predicted_, rhs_, residual_, &bb);
      if (rr_pred <= bb * tol2) {
        traj_pending = false;  // prediction accepted at tolerance
      } else {
        rr_plain = sparse::residual_norms(a, state_, rhs_, residual_,
                                          &bb_plain);
        if (rr_pred < rr_plain) traj_pending = false;  // prediction wins
      }
    }
    if (traj_pending) {
      rr_traj = sparse::residual_norms(a, traj_guess_, rhs_, residual_, &bb);
      if (rr_traj > bb * tol2 && rr_plain < 0.0) {
        rr_plain = sparse::residual_norms(a, state_, rhs_, residual_,
                                          &bb_plain);
      }
    }
  }
  begin_step_commit(rr_pred, rr_traj, rr_plain, bb);
  {
    obs::TraceSpan span("solver/krylov");
    solver_->solve(rhs_, state_);
  }
  end_step();
}

void TransientSolver::advance(double duration) {
  require(duration >= 0.0, "TransientSolver::advance: negative duration");
  const int steps = static_cast<int>(std::ceil(duration / dt_ - 1e-12));
  for (int s = 0; s < steps; ++s) step();
}

}  // namespace tac3d::thermal
