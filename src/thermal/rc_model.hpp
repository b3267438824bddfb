#pragma once
/// \file rc_model.hpp
/// \brief RC thermal network assembled from a ThermalGrid: conduction,
/// convective wall-fluid coupling, fluid advection, heat-sink path.
///
/// The network follows the compact-transient-model lineage of the
/// paper's Section II-D (3D-ICE): every grid cell is one node with a
/// capacitance; conductances connect vertical and lateral neighbors;
/// cavity fluid nodes couple to the adjacent solid layers through an
/// effective convective conductance (with wall-fin augmentation in the
/// homogenized mode) plus a wall-bypass conduction path, and to their
/// upstream neighbors through first-order upwind advection terms that
/// scale linearly with the cavity flow rate. Only the advection entries
/// depend on the flow rate (fully developed laminar Nusselt number is
/// flow-independent), so a flow change is an in-place value update.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/solver.hpp"
#include "thermal/grid.hpp"

namespace tac3d::thermal {

/// One first-order-upwind advection contribution of a fluid cell: the
/// coefficient `unit * Q` is added to the diagonal of \p node and
/// subtracted from the (\p node, \p upstream) entry (or credited to the
/// inlet RHS when \p upstream is -1). The value-array indices are
/// resolved once at assembly and are the *contract* of the flow-update
/// path: any matrix that copies the conductance pattern (e.g. the
/// backward-Euler operator, see thermal/operator.hpp) can apply a flow
/// change as a straight indexed value rewrite through them.
struct AdvectionEntry {
  std::int32_t node;
  std::int32_t upstream;  ///< -1 = inlet boundary
  std::int32_t col;       ///< grid column (flow-share profile index)
  double unit;            ///< coefficient per unit cavity flow [W s/(K m^3)]
  /// Positions in the conductance values() array (same pattern => same
  /// positions), so flow updates need no per-entry pattern search.
  std::int64_t diag_vidx = -1;
  std::int64_t upstream_vidx = -1;  ///< -1 = inlet boundary
};

/// Assembled RC network with runtime-adjustable power and flow.
class RcModel {
 public:
  RcModel(StackSpec spec, GridOptions opts);

  const ThermalGrid& grid() const { return grid_; }
  std::int32_t node_count() const { return grid_.node_count(); }
  int n_cavities() const { return grid_.spec().n_cavities(); }

  // --- power ---------------------------------------------------------
  /// Set the power [W] of every floorplan element (order of
  /// grid().element(e)).
  void set_element_powers(std::span<const double> watts);

  /// Set one element's power [W].
  void set_element_power(int element, double watts);

  /// Sum of all element powers [W].
  double total_power() const;

  /// Current per-element powers [W] (order of grid().element(e)) — the
  /// vector the last set_element_powers() applied. Lets callers capture
  /// and later replay the model's power state exactly (e.g. the cached
  /// initial state of sim/bank.hpp).
  std::span<const double> element_powers() const { return element_power_; }

  /// In-place power update without a staging copy: write watts directly
  /// into this span (size element_count()), then call
  /// commit_element_powers() to scatter them into the solver RHS. Used
  /// by the allocation-free control tail.
  std::span<double> element_powers_writable() { return element_power_; }

  /// Rebuild the per-node power RHS from element_powers_writable().
  void commit_element_powers();

  // --- coolant flow ----------------------------------------------------
  /// Set the volumetric flow of one cavity [m^3/s]. Flow starts at 0.
  void set_cavity_flow(int cavity, double q_m3s);

  /// Set the same flow on all cavities [m^3/s].
  void set_all_flows(double q_m3s);

  double cavity_flow(int cavity) const { return cavity_flow_[cavity]; }

  /// Redistribute one cavity's flow across the grid columns (e.g. from a
  /// fluid-focusing microchannel::HydraulicNetwork solve): \p shares has
  /// one non-negative weight per grid column. Weights on columns that
  /// carry no fluid are dropped (the advection pattern is fixed at
  /// assembly) and the rest normalized to sum to 1, so a profile
  /// resampled with microchannel::coarsen_fractions can be passed in
  /// as-is. Applied as the same indexed value rewrite as a flow-rate
  /// change.
  void set_cavity_flow_profile(int cavity, std::span<const double> shares);

  /// Current per-column flow share of a cavity (sums to 1).
  std::span<const double> cavity_flow_shares(int cavity) const {
    return cavity_share_[cavity];
  }

  /// Monotone per-cavity counter bumped when that cavity's flow rate or
  /// column profile changes; mirrors of the advection values (see
  /// thermal::ThermalOperator) use it to sync only the changed cavities.
  std::uint64_t cavity_flow_state(int cavity) const {
    return cavity_state_[cavity];
  }

  /// Monotone per-cavity counter bumped only when the column profile
  /// changes (set_cavity_flow_profile). Together with cavity_flow(),
  /// (profile version, flow rate) identifies a cavity's advection
  /// values exactly — the key of the flow-transition warm-start cache.
  std::uint64_t cavity_profile_version(int cavity) const {
    return cavity_profile_[cavity];
  }

  /// The advection entries of one cavity (value indices resolved against
  /// conductance()'s pattern).
  std::span<const AdvectionEntry> advection_entries(int cavity) const {
    return cavity_adv_[cavity];
  }

  // --- system access ---------------------------------------------------
  /// Current conductance matrix G (advection included).
  const sparse::CsrMatrix& conductance() const { return g_; }

  /// Flow-independent part of G (conduction, convection, sink path) on
  /// the same sparsity pattern; G = static + advection(flows).
  const sparse::CsrMatrix& static_conductance() const { return g_static_; }

  /// Nodal heat capacities [J/K].
  std::span<const double> capacitance() const { return c_; }

  /// Fill \p out with the current right-hand side: injected power plus
  /// boundary terms. \p out must have node_count() entries; performs no
  /// heap allocation (the transient stepping loop calls it every step).
  void rhs_into(std::span<double> out) const;

  /// Backward-Euler RHS in one fused pass:
  ///   out[i] = rhs[i] + scale[i] * x[i]
  /// with scale = C/dt and x = T_n. No heap allocation.
  void rhs_plus_scaled_into(std::span<double> out,
                            std::span<const double> scale,
                            std::span<const double> x) const;

  // --- solves ----------------------------------------------------------
  /// Steady-state temperatures [K] for the current power and flows.
  /// A non-null \p structure supplies the symbolic analysis of
  /// conductance()'s pattern (see sparse/symbolic.hpp).
  std::vector<double> steady_state(
      sparse::SolverKind kind = sparse::SolverKind::kBicgstabIlu0,
      std::shared_ptr<const sparse::SymbolicStructure> structure =
          nullptr) const;

  /// A solver bound to conductance(), for callers that solve several
  /// steady states while only the power changes (G must not change in
  /// between): factor and schedule once, then steady_state(solver).
  std::unique_ptr<sparse::LinearSolver> steady_solver(
      sparse::SolverKind kind = sparse::SolverKind::kBicgstabIlu0,
      std::shared_ptr<const sparse::SymbolicStructure> structure =
          nullptr) const;

  /// Steady-state temperatures [K] for the current power and flows,
  /// solved with \p solver (from steady_solver(), values unchanged since)
  /// from the same flat initial guess as steady_state(kind, structure), so
  /// the result is bitwise that overload's.
  std::vector<double> steady_state(sparse::LinearSolver& solver) const;

  // --- sensors / diagnostics -------------------------------------------
  /// Power-weighted maximum cell temperature of an element [K].
  double element_max(std::span<const double> temps, int element) const;

  /// Area-weighted mean temperature of an element [K].
  double element_avg(std::span<const double> temps, int element) const;

  /// Maximum temperature over all grid cells (sink node excluded) [K].
  double max_temperature(std::span<const double> temps) const;

  /// Flow-weighted outlet fluid temperature of a cavity [K].
  double cavity_outlet_temp(std::span<const double> temps, int cavity) const;

  /// Heat carried away by a cavity's coolant [W] (upwind telescoped:
  /// m_dot c_p (T_outlet - T_inlet) summed over fluid columns).
  double advective_heat_removal(std::span<const double> temps,
                                int cavity) const;

  /// Heat leaving through the air-cooled sink [W] (0 if no sink).
  double sink_heat_removal(std::span<const double> temps) const;

 private:
  void assemble();
  /// Rewrite one cavity's advection values (and inlet RHS terms) for its
  /// current flow and column profile — a straight indexed pass over
  /// advection_entries(cavity), no re-assembly, no allocation.
  void apply_cavity_flow(int cavity);
  /// Grid layer index of a cavity with the given id.
  int cavity_grid_layer(int cavity) const;

  ThermalGrid grid_;
  sparse::CsrMatrix g_static_;  ///< flow-independent part
  sparse::CsrMatrix g_;         ///< current matrix (static + advection)
  std::vector<double> c_;
  std::vector<double> rhs_static_;  ///< ambient/sink boundary terms
  std::vector<double> rhs_flow_;    ///< inlet advection terms
  std::vector<double> power_rhs_;   ///< injected element power per node
  std::vector<double> element_power_;
  std::vector<std::vector<AdvectionEntry>> cavity_adv_;
  std::vector<double> cavity_flow_;
  std::vector<double> cavity_rho_cp_;  ///< advection coefficient per Q
  std::vector<std::vector<double>> cavity_share_;  ///< per-column flow share
  std::vector<std::uint64_t> cavity_state_;
  std::vector<std::uint64_t> cavity_profile_;
};

}  // namespace tac3d::thermal
