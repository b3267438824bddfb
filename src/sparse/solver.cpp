#include "sparse/solver.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/fnv.hpp"
#include "sparse/banded_lu.hpp"
#include "sparse/iterative.hpp"
#include "sparse/preconditioner.hpp"

namespace tac3d::sparse {

namespace {

/// Direct banded solver with a per-flow-state factor-slot cache.
///
/// Flow-modulated stepping revisits a small discrete set of pump levels;
/// each level corresponds to one set of advection values and therefore
/// one LU. Instead of re-eliminating the band on every flow change
/// (~full factor cost when the dirty rows permute near row 0), the
/// solver keeps up to kFactorSlots complete factorizations keyed by the
/// values of the tracked (ever-dirtied) rows. A revisited state is an
/// O(tracked-nnz) key probe plus an active-slot switch; only genuinely
/// new states pay for elimination.
/// Each slot's factor was produced by the same load/eliminate code from
/// bitwise-identical values, so a cache hit is bitwise-equal to a fresh
/// refactor.
///
/// Slot storage is reserved at bind time and written on first use: slot
/// 0 holds the bind-time factor, and a slot that never held one is
/// filled from the active slot when a miss first evicts it. A fixed-flow
/// session therefore holds one band.
class BandedLuSolver final : public LinearSolver {
 public:
  BandedLuSolver(const CsrMatrix& a,
                 std::shared_ptr<const SymbolicStructure> structure)
      : structure_(std::move(structure)), nnz_(a.nnz()) {
    tracked_mask_.assign(static_cast<std::size_t>(a.rows()), 0);
    tracked_rows_.reserve(static_cast<std::size_t>(a.rows()));
    cur_key_.reserve(static_cast<std::size_t>(nnz_));
    // Allocating the slots here, at bind time, keeps update_values and
    // solve heap-free.
    slots_.reserve(static_cast<std::size_t>(kFactorSlots));
    for (std::int32_t i = 0; i < kFactorSlots; ++i) {
      slots_.push_back(
          Slot{i == 0 ? BandedLu(a, structure_.get())
                      : BandedLu::reserved_like(slots_.front().lu),
               {}, 0, 0, false, true});
      slots_.back().key.reserve(static_cast<std::size_t>(nnz_));
    }
    active_ = &slots_.front();
  }

  void update_values(const CsrMatrix& a, const ValueUpdate& update) override {
    if (update.rows.empty() && update.dirty_fraction == 0.0) return;
    if (update.rows.empty()) {
      // Unknown rows: untracked values may have changed, so the other
      // slots' bases are no longer reconstructible from tracked rows
      // alone.
      for (Slot& s : slots_) {
        if (&s != active_) {
          s.valid = false;
          s.base_tracked = false;
        }
      }
      active_->lu.factor(a);
      extract_key(a, active_->key);
      active_->hash = fnv1a(kFnvOffsetBasis, active_->key);
      active_->valid = true;
      active_->base_tracked = true;
      active_->stamp = ++clock_;
      ++stats_.refactors;
      return;
    }
    // A direct factorization must always be exact, but the partial
    // refactor is exact too: LU rows above the first dirty permuted row
    // are unaffected by the change, so only the band tail is redone.
    //
    // Grow the tracked flow-row set by union; it is stable (the
    // advection rows) after the first orbit of updates. Growth makes the
    // stored keys incomparable, not the stored factors unusable.
    bool grew = false;
    for (const std::int32_t r : update.rows) {
      if (!tracked_mask_[static_cast<std::size_t>(r)]) {
        tracked_mask_[static_cast<std::size_t>(r)] = 1;
        tracked_rows_.push_back(r);
        grew = true;
      }
    }
    if (grew) {
      std::sort(tracked_rows_.begin(), tracked_rows_.end());
      for (Slot& s : slots_) s.valid = false;
    }
    extract_key(a, cur_key_);
    // The hash only pre-filters: the exact compare decides a hit.
    const std::uint64_t h = fnv1a(kFnvOffsetBasis, cur_key_);
    for (Slot& s : slots_) {
      if (s.valid && s.hash == h && s.key.size() == cur_key_.size() &&
          std::equal(s.key.begin(), s.key.end(), cur_key_.begin())) {
        active_ = &s;
        s.stamp = ++clock_;
        ++stats_.factor_cache_hits;
        return;
      }
    }
    // Miss: evict the least-recently-used slot and factor it for this
    // state. A tracked base differs from \p a only inside tracked rows,
    // so re-eliminating from the first tracked permuted row is exact.
    Slot* victim = &slots_.front();
    for (Slot& s : slots_) {
      if (s.stamp < victim->stamp) victim = &s;
    }
    if (!victim->lu.factored()) {
      // First use: copy the active factor into the capacity reserved at
      // bind. Like the bind-time factor the slot stands for, it differs
      // from \p a only in tracked rows, so the refresh below is unchanged.
      victim->lu = active_->lu;
    }
    if (victim->base_tracked) {
      victim->lu.factor_rows(a, tracked_rows_);
      ++stats_.partial_refactors;
    } else {
      victim->lu.factor(a);
      ++stats_.refactors;
    }
    victim->key.assign(cur_key_.begin(), cur_key_.end());
    victim->hash = h;
    victim->valid = true;
    victim->base_tracked = true;
    victim->stamp = ++clock_;
    active_ = victim;
  }

  void solve(std::span<const double> b, std::span<double> x) override {
    active_->lu.solve(b, x);
    ++stats_.solves;
  }

  const char* name() const override { return "banded-lu(rcm)"; }

 private:
  struct Slot {
    BandedLu lu;
    std::vector<double> key;  ///< tracked-row values this factor matches
    std::uint64_t hash = 0;
    std::uint64_t stamp = 0;       ///< LRU clock
    bool valid = false;            ///< key/hash identify a flow state
    bool base_tracked = true;      ///< differs from current a only in tracked rows
  };

  /// Values of the tracked rows in sorted-row CSR order — the part of
  /// the matrix a flow update is allowed to change.
  void extract_key(const CsrMatrix& a, std::vector<double>& out) const {
    out.clear();
    const auto rp = a.row_ptr();
    const auto v = a.values();
    for (const std::int32_t r : tracked_rows_) {
      for (std::int32_t k = rp[r]; k < rp[r + 1]; ++k) out.push_back(v[k]);
    }
  }

  std::shared_ptr<const SymbolicStructure> structure_;
  std::int64_t nnz_ = 0;
  std::vector<Slot> slots_;
  Slot* active_ = nullptr;  ///< the slot whose factor solve() uses
  std::vector<std::int32_t> tracked_rows_;  ///< sorted union of dirty rows
  std::vector<std::uint8_t> tracked_mask_;
  std::vector<double> cur_key_;
  std::uint64_t clock_ = 0;
};

/// BiCGSTAB preconditioned with ILU(0). The Krylov iterations run on a
/// sliced-ELL mirror of the bound matrix's values (sliced.hpp), refilled
/// with every value update. The factors refresh lazily (LazyRefresh):
/// after a flow update they stay stale until the dirty-row or
/// iteration-degradation trigger fires.
class BicgstabSolver final : public LinearSolver {
 public:
  BicgstabSolver(const CsrMatrix& a,
                 std::shared_ptr<const SymbolicStructure> structure)
      : a_(&a),
        structure_(std::move(structure)),
        sliced_(a, structure_.get()),
        precond_(a, structure_.get()),
        refresh_(a.rows()) {
    ws_.resize(static_cast<std::size_t>(a.rows()));
    warm_start_.assign(static_cast<std::size_t>(a.rows()), 0.0);
  }

  void update_values(const CsrMatrix& a, const ValueUpdate& update) override {
    a_ = &a;
    if (!update.rows.empty()) {
      sliced_.refill_rows(a, update.rows);
    } else if (update.dirty_fraction != 0.0) {
      sliced_.refill(a);  // unknown rows
    }
    if (refresh_.update(update, stats_)) refactor_now(a);
  }

  void solve(std::span<const double> b, std::span<double> x) override {
    IterativeOptions opts;
    opts.rel_tolerance = rel_tolerance_;
    opts.max_iterations = 5000;
    const bool stale = refresh_.stale();
    if (stale) {
      // Keep the caller's warm start so a diverged stale attempt (which
      // mutates x in place, possibly to NaN) can be retried cleanly.
      std::copy(x.begin(), x.end(), warm_start_.begin());
    }
    IterativeResult res = bicgstab(sliced_, b, x, precond_, opts, ws_);
    if (!res.converged && stale) {
      // The stale preconditioner is the likely culprit; refresh, restore
      // the original warm start and retry once before giving up.
      refactor_now(*a_);
      ++stats_.retries;
      std::copy(warm_start_.begin(), warm_start_.end(), x.begin());
      res = bicgstab(sliced_, b, x, precond_, opts, ws_);
    }
    if (!res.converged) {
      throw NumericalError("BicgstabSolver: failed to converge");
    }
    // Iteration-degradation trigger: refresh now so the NEXT stale solve
    // starts from current factors.
    if (refresh_.solved(res.iterations, stats_)) refactor_now(*a_);
  }

  bool uses_initial_guess() const override { return true; }

  const SlicedMatrix* mirror() const override { return &sliced_; }

  void set_tolerance(double rel_tolerance) override {
    rel_tolerance_ = rel_tolerance;
  }

  const char* name() const override { return "bicgstab+ilu0"; }

 private:
  void refactor_now(const CsrMatrix& a) {
    precond_.refactor(a);
    refresh_.refactored(stats_);
  }

  const CsrMatrix* a_;  ///< refactor source
  std::shared_ptr<const SymbolicStructure> structure_;
  SlicedMatrix sliced_;  ///< the Krylov SpMVs' copy of *a_'s values
  Ilu0Preconditioner precond_;
  LazyRefresh refresh_;
  KrylovWorkspace ws_;
  std::vector<double> warm_start_;  ///< saved x for the stale-solve retry
  double rel_tolerance_ = 1e-12;
};

}  // namespace

std::unique_ptr<LinearSolver> make_solver(
    SolverKind kind, const CsrMatrix& a,
    std::shared_ptr<const SymbolicStructure> structure) {
  switch (kind) {
    case SolverKind::kBandedLu:
      return std::make_unique<BandedLuSolver>(a, std::move(structure));
    case SolverKind::kBicgstabIlu0:
      return std::make_unique<BicgstabSolver>(a, std::move(structure));
  }
  throw InvalidArgument("make_solver: unknown solver kind");
}

}  // namespace tac3d::sparse
