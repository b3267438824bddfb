#pragma once
/// \file operator.hpp
/// \brief The backward-Euler thermal operator A = C/dt + G, split into
/// its constant and flow-dependent parts.
///
/// The conduction/capacitance part (solid couplings, convective wall
/// coupling, heat-sink path, C/dt on the diagonal) never changes at run
/// time; only the advection values — resolved to value-array indices at
/// assembly (thermal::AdvectionEntry, the PR 2 contract) — depend on the
/// cavity flow rates. ThermalOperator therefore materializes A once and
/// keeps a frozen copy of its constant values; update_flow() rewrites
/// exactly the advection entries of the cavities whose flow state
/// changed (an indexed value pass: no re-assembly, no allocation) and
/// reports which rows were touched and what fraction of the matrix that
/// was, so the bound solver can refresh its factorization lazily or
/// partially (see sparse/refresh.hpp).

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/refresh.hpp"
#include "thermal/rc_model.hpp"

namespace tac3d::thermal {

/// A = C/dt + G(flow) with indexed in-place flow updates.
class ThermalOperator {
 public:
  /// Materialize the operator for \p model at time step \p dt [s]; the
  /// model must outlive the operator. All storage (matrix copy, frozen
  /// constant values, dirty-row scratch) is allocated here. Every cavity
  /// starts out stale and is synced through update_flow(), so one
  /// advection loop composes the flow values at construction and at run
  /// time.
  ThermalOperator(const RcModel& model, double dt);

  const RcModel& model() const { return *model_; }
  double dt() const { return dt_; }

  /// The current backward-Euler matrix (same sparsity pattern as
  /// model().conductance(), constant across flow updates).
  const sparse::CsrMatrix& matrix() const { return a_; }

  /// True when the matrix values reflect the model's current flow state.
  bool in_sync() const;

  /// Rewrite the advection values of every cavity whose flow rate or
  /// column profile changed since the last call. Pure indexed value
  /// rewrite; performs no heap allocation. The returned ValueUpdate
  /// (dirty rows + dirty fraction) stays valid until the next call.
  sparse::ValueUpdate update_flow();

  /// Dirty fraction of the last update_flow() (0 when it was a no-op).
  double last_dirty_fraction() const { return last_dirty_fraction_; }

  /// Number of update_flow() calls that actually rewrote values.
  std::uint64_t flow_updates() const { return flow_updates_; }

 private:
  const RcModel* model_;
  double dt_;
  sparse::CsrMatrix a_;
  /// Frozen constant part: conduction + capacitance/dt values on a_'s
  /// pattern; advection rewrites compose on top of it.
  std::vector<double> base_values_;
  /// Per-cavity RcModel::cavity_flow_state() mirrored at the last sync.
  std::vector<std::uint64_t> applied_state_;
  std::vector<std::int32_t> dirty_rows_;  ///< scratch for update_flow()
  double last_dirty_fraction_ = 0.0;
  std::uint64_t flow_updates_ = 0;
};

}  // namespace tac3d::thermal
