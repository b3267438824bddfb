#include "thermal/rc_model.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "microchannel/duct.hpp"

namespace tac3d::thermal {

namespace {

/// Accumulate a two-node conductance into the triplet list.
void add_coupling(std::vector<sparse::Triplet>& t, std::int32_t i,
                  std::int32_t j, double g) {
  if (g <= 0.0) return;
  t.push_back({i, i, g});
  t.push_back({j, j, g});
  t.push_back({i, j, -g});
  t.push_back({j, i, -g});
}

}  // namespace

RcModel::RcModel(StackSpec spec, GridOptions opts)
    : grid_(std::move(spec), opts) {
  cavity_flow_.assign(n_cavities(), 0.0);
  cavity_adv_.resize(n_cavities());
  cavity_rho_cp_.assign(n_cavities(), 0.0);
  cavity_share_.resize(n_cavities());
  cavity_state_.assign(n_cavities(), 0);
  cavity_profile_.assign(n_cavities(), 0);
  element_power_.assign(grid_.element_count(), 0.0);
  assemble();
  for (int cav = 0; cav < n_cavities(); ++cav) apply_cavity_flow(cav);
}

int RcModel::cavity_grid_layer(int cavity) const {
  for (int l = 0; l < grid_.n_layers(); ++l) {
    if (grid_.layer(l).cavity_id == cavity) return l;
  }
  throw InvalidArgument("RcModel: no cavity with id " +
                        std::to_string(cavity));
}

void RcModel::assemble() {
  const int L = grid_.n_layers();
  const int R = grid_.rows();
  const int C = grid_.cols();
  const std::int32_t n = grid_.node_count();

  std::vector<sparse::Triplet> trips;
  trips.reserve(static_cast<std::size_t>(n) * 8);
  c_.assign(n, 0.0);
  rhs_static_.assign(n, 0.0);
  rhs_flow_.assign(n, 0.0);
  power_rhs_.assign(n, 0.0);

  // Per-cavity film coefficient and fin data (flow-independent for
  // fully developed laminar flow).
  struct CavityCoef {
    double h = 0.0;
    double eta = 0.0;
    double mcp_per_flow = 0.0;  ///< rho*cp: advection coefficient per Q
  };
  std::vector<CavityCoef> coef(n_cavities());
  for (int l = 0; l < L; ++l) {
    const GridLayer& gl = grid_.layer(l);
    if (gl.kind != LayerKind::kCavity) continue;
    CavityCoef cc;
    const microchannel::RectDuct duct{gl.channel_width, gl.thickness};
    cc.h = microchannel::heat_transfer_coefficient(duct, gl.coolant);
    const double wall_w = gl.channel_pitch - gl.channel_width;
    cc.eta = microchannel::fin_efficiency(cc.h, gl.material.conductivity,
                                          wall_w, gl.thickness / 2.0);
    cc.mcp_per_flow = gl.coolant.density * gl.coolant.specific_heat;
    coef[gl.cavity_id] = cc;
  }

  // --- vertical couplings --------------------------------------------
  for (int l = 0; l + 1 < L; ++l) {
    const GridLayer& a = grid_.layer(l);
    const GridLayer& b = grid_.layer(l + 1);
    for (int r = 0; r < R; ++r) {
      for (int c = 0; c < C; ++c) {
        const double area = grid_.cell_area(r, c);
        const std::int32_t na = grid_.cell_node(l, r, c);
        const std::int32_t nb = grid_.cell_node(l + 1, r, c);
        if (a.kind == LayerKind::kSolid && b.kind == LayerKind::kSolid) {
          const double res = a.thickness / (2.0 * a.material.conductivity) +
                             b.thickness / (2.0 * b.material.conductivity);
          add_coupling(trips, na, nb, area / res);
          continue;
        }
        // Exactly one of the pair is a cavity (validated by StackSpec).
        const bool a_is_cavity = a.kind == LayerKind::kCavity;
        const GridLayer& cav = a_is_cavity ? a : b;
        const GridLayer& sol = a_is_cavity ? b : a;
        const std::int32_t ncav = a_is_cavity ? na : nb;
        const std::int32_t nsol = a_is_cavity ? nb : na;
        const double phi = grid_.channel_fraction(c);
        if (phi <= 0.0) {
          // Wall column: plain solid conduction through the cavity wall.
          const double res =
              cav.thickness / (2.0 * cav.material.conductivity) +
              sol.thickness / (2.0 * sol.material.conductivity);
          add_coupling(trips, na, nb, area / res);
          continue;
        }
        const CavityCoef& cc = coef[cav.cavity_id];
        // Effective wetted area per face: channel floor/ceiling plus the
        // side walls acting as fins (homogenized); a pure fluid column
        // (discrete mode) couples over its full face only.
        double area_eff = area * phi;
        if (phi < 1.0) {
          area_eff +=
              area * cc.eta * cav.thickness / cav.channel_pitch;
        }
        const double res = sol.thickness /
                               (2.0 * sol.material.conductivity * area) +
                           1.0 / (cc.h * area_eff);
        add_coupling(trips, ncav, nsol, 1.0 / res);
      }
    }
  }

  // --- cavity wall bypass (homogenized) and capacitance splitting ----
  for (int l = 0; l < L; ++l) {
    const GridLayer& gl = grid_.layer(l);
    if (gl.kind != LayerKind::kCavity) continue;
    require(l > 0 && l + 1 < L, "RcModel: cavity on stack boundary");
    const GridLayer& below = grid_.layer(l - 1);
    const GridLayer& above = grid_.layer(l + 1);
    for (int r = 0; r < R; ++r) {
      for (int c = 0; c < C; ++c) {
        const double area = grid_.cell_area(r, c);
        const double phi = grid_.channel_fraction(c);
        const std::int32_t nc = grid_.cell_node(l, r, c);
        const std::int32_t nb = grid_.cell_node(l - 1, r, c);
        const std::int32_t na = grid_.cell_node(l + 1, r, c);
        const double vol = area * gl.thickness;
        if (phi <= 0.0) {
          c_[nc] += gl.material.volumetric_heat_capacity * vol;
          continue;
        }
        // Fluid heat capacity on the fluid node; the walls' capacity is
        // attributed to the neighboring solid cells.
        c_[nc] += gl.coolant.volumetric_heat_capacity() * phi * vol;
        const double wall_c =
            gl.material.volumetric_heat_capacity * (1.0 - phi) * vol;
        c_[nb] += 0.5 * wall_c;
        c_[na] += 0.5 * wall_c;
        if (phi < 1.0) {
          // Direct conduction through the walls, solid-to-solid.
          const double a_wall = area * (1.0 - phi);
          const double res =
              below.thickness / (2.0 * below.material.conductivity) +
              gl.thickness / gl.material.conductivity +
              above.thickness / (2.0 * above.material.conductivity);
          add_coupling(trips, nb, na, a_wall / res);
        }
      }
    }
  }

  // --- lateral couplings ----------------------------------------------
  for (int l = 0; l < L; ++l) {
    const GridLayer& gl = grid_.layer(l);
    const double t = gl.thickness;
    for (int r = 0; r < R; ++r) {
      for (int c = 0; c < C; ++c) {
        const std::int32_t nc = grid_.cell_node(l, r, c);
        // x-direction (across flow)
        if (c + 1 < C) {
          const std::int32_t nr = grid_.cell_node(l, r, c + 1);
          const double a_side = t * grid_.dy(r);
          if (gl.kind == LayerKind::kSolid) {
            const double res = (grid_.dx(c) + grid_.dx(c + 1)) /
                               (2.0 * gl.material.conductivity);
            add_coupling(trips, nc, nr, a_side / res);
          } else {
            const double p0 = grid_.channel_fraction(c);
            const double p1 = grid_.channel_fraction(c + 1);
            const CavityCoef& cc = coef[gl.cavity_id];
            if (p0 <= 0.0 && p1 <= 0.0) {
              const double res = (grid_.dx(c) + grid_.dx(c + 1)) /
                                 (2.0 * gl.material.conductivity);
              add_coupling(trips, nc, nr, a_side / res);
            } else if (p0 >= 1.0 && p1 >= 1.0) {
              const double res = (grid_.dx(c) + grid_.dx(c + 1)) /
                                 (2.0 * gl.coolant.conductivity);
              add_coupling(trips, nc, nr, a_side / res);
            } else if ((p0 >= 1.0 && p1 <= 0.0) ||
                       (p0 <= 0.0 && p1 >= 1.0)) {
              const double dx_wall = p0 <= 0.0 ? grid_.dx(c) : grid_.dx(c + 1);
              const double res =
                  1.0 / (cc.h * a_side) +
                  dx_wall / (2.0 * gl.material.conductivity * a_side);
              add_coupling(trips, nc, nr, 1.0 / res);
            }
            // Homogenized cells (0 < phi < 1): lateral transport is
            // blocked by the walls; neglected.
          }
        }
        // y-direction (along flow)
        if (r + 1 < R) {
          const std::int32_t nr = grid_.cell_node(l, r + 1, c);
          const double a_side = t * grid_.dx(c);
          const double phi = grid_.channel_fraction(c);
          if (gl.kind == LayerKind::kSolid ||
              (gl.kind == LayerKind::kCavity && phi <= 0.0)) {
            const double res = (grid_.dy(r) + grid_.dy(r + 1)) /
                               (2.0 * gl.material.conductivity);
            add_coupling(trips, nc, nr, a_side / res);
          }
          // Fluid columns: transport along the flow is advection
          // (assembled below); axial conduction is negligible.
        }
      }
    }
  }

  // --- solid capacitances ----------------------------------------------
  for (int l = 0; l < L; ++l) {
    const GridLayer& gl = grid_.layer(l);
    if (gl.kind != LayerKind::kSolid) continue;
    for (int r = 0; r < R; ++r) {
      for (int c = 0; c < C; ++c) {
        c_[grid_.cell_node(l, r, c)] +=
            gl.material.volumetric_heat_capacity * grid_.cell_area(r, c) *
            gl.thickness;
      }
    }
  }

  // --- heat sink ---------------------------------------------------------
  if (grid_.has_sink()) {
    const HeatSinkSpec& sink = grid_.spec().sink;
    const std::int32_t ns = grid_.sink_node();
    const GridLayer& top = grid_.layer(L - 1);
    require(top.kind == LayerKind::kSolid,
            "RcModel: heat sink requires a solid top layer");
    for (int r = 0; r < R; ++r) {
      for (int c = 0; c < C; ++c) {
        const double area = grid_.cell_area(r, c);
        const double g_couple =
            sink.coupling_conductance * area / grid_.chip_area();
        const double res =
            top.thickness / (2.0 * top.material.conductivity * area) +
            1.0 / g_couple;
        add_coupling(trips, grid_.cell_node(L - 1, r, c), ns, 1.0 / res);
      }
    }
    trips.push_back({ns, ns, sink.conductance_to_ambient});
    rhs_static_[ns] +=
        sink.conductance_to_ambient * grid_.spec().ambient;
    c_[ns] += sink.capacitance;
  }

  // --- advection entries (placeholders; values applied per flow) -------
  for (int l = 0; l < L; ++l) {
    const GridLayer& gl = grid_.layer(l);
    if (gl.kind != LayerKind::kCavity) continue;
    auto& entries = cavity_adv_[gl.cavity_id];
    const double rho_cp = coef[gl.cavity_id].mcp_per_flow;
    cavity_rho_cp_[gl.cavity_id] = rho_cp;
    cavity_share_[gl.cavity_id].assign(C, 0.0);
    for (int c = 0; c < C; ++c) {
      const double share = grid_.column_flow_share(c);
      if (share <= 0.0) continue;
      cavity_share_[gl.cavity_id][c] = share;
      for (int r = 0; r < R; ++r) {
        AdvectionEntry e;
        e.node = grid_.cell_node(l, r, c);
        e.upstream = r > 0 ? grid_.cell_node(l, r - 1, c) : -1;
        e.col = c;
        e.unit = rho_cp * share;
        // Reserve the matrix pattern: diagonal exists via couplings;
        // the upstream entry may not, so add an explicit zero.
        trips.push_back({e.node, e.node, 0.0});
        if (e.upstream >= 0) trips.push_back({e.node, e.upstream, 0.0});
        entries.push_back(e);
      }
    }
  }

  g_static_ = sparse::CsrMatrix::from_triplets(n, n, std::move(trips));
  g_ = g_static_;

  // Resolve the advection entries to value-array indices once; the
  // per-flow-change update is then a straight indexed pass.
  for (auto& entries : cavity_adv_) {
    for (AdvectionEntry& e : entries) {
      e.diag_vidx = g_.entry_index(e.node, e.node);
      e.upstream_vidx =
          e.upstream >= 0 ? g_.entry_index(e.node, e.upstream) : -1;
      require(e.diag_vidx >= 0 && (e.upstream < 0 || e.upstream_vidx >= 0),
              "RcModel: advection entry missing from the sparsity pattern");
    }
  }
}

void RcModel::apply_cavity_flow(int cavity) {
  // Absolute indexed rewrite of one cavity's advection values on top of
  // the static part: touches exactly that cavity's entries (each fluid
  // node owns one entry, so "static + unit*q" needs no accumulation) —
  // no re-assembly, no full-matrix reset, no allocation.
  const double t_in = grid_.spec().coolant_inlet;
  const double q = cavity_flow_[cavity];
  const std::span<double> v = g_.values_mut();
  const std::span<const double> s = g_static_.values();
  for (const AdvectionEntry& e : cavity_adv_[cavity]) {
    const double a = e.unit * q;
    v[e.diag_vidx] = s[e.diag_vidx] + a;
    if (e.upstream_vidx >= 0) {
      v[e.upstream_vidx] = s[e.upstream_vidx] - a;
    } else {
      rhs_flow_[e.node] = a * t_in;
    }
  }
  ++cavity_state_[cavity];
}

void RcModel::set_element_powers(std::span<const double> watts) {
  require(static_cast<int>(watts.size()) == grid_.element_count(),
          "RcModel::set_element_powers: size mismatch");
  std::copy(watts.begin(), watts.end(), element_power_.begin());
  commit_element_powers();
}

void RcModel::commit_element_powers() {
  std::fill(power_rhs_.begin(), power_rhs_.end(), 0.0);
  for (int e = 0; e < grid_.element_count(); ++e) {
    for (const auto& cw : grid_.element_cells(e)) {
      power_rhs_[cw.node] += element_power_[e] * cw.weight;
    }
  }
}

void RcModel::set_element_power(int element, double watts) {
  require(element >= 0 && element < grid_.element_count(),
          "RcModel::set_element_power: element out of range");
  std::vector<double> p = element_power_;
  p[element] = watts;
  set_element_powers(p);
}

double RcModel::total_power() const {
  double sum = 0.0;
  for (double p : element_power_) sum += p;
  return sum;
}

void RcModel::set_cavity_flow(int cavity, double q_m3s) {
  require(cavity >= 0 && cavity < n_cavities(),
          "RcModel::set_cavity_flow: cavity out of range");
  require(q_m3s >= 0.0, "RcModel::set_cavity_flow: negative flow");
  if (cavity_flow_[cavity] == q_m3s) return;
  cavity_flow_[cavity] = q_m3s;
  apply_cavity_flow(cavity);
}

void RcModel::set_all_flows(double q_m3s) {
  require(q_m3s >= 0.0, "RcModel::set_all_flows: negative flow");
  for (int cav = 0; cav < n_cavities(); ++cav) {
    if (cavity_flow_[cav] == q_m3s) continue;
    cavity_flow_[cav] = q_m3s;
    apply_cavity_flow(cav);
  }
}

void RcModel::set_cavity_flow_profile(int cavity,
                                      std::span<const double> shares) {
  require(cavity >= 0 && cavity < n_cavities(),
          "RcModel::set_cavity_flow_profile: cavity out of range");
  require(static_cast<int>(shares.size()) == grid_.cols(),
          "RcModel::set_cavity_flow_profile: one share per grid column");
  // Columns without fluid cells cannot take flow (the advection pattern
  // is fixed at assembly): their share is dropped and the remainder
  // renormalized, so a profile resampled from a finer channel bank
  // (coarsen_fractions) can be passed in directly.
  double sum = 0.0;
  for (int c = 0; c < grid_.cols(); ++c) {
    require(shares[c] >= 0.0,
            "RcModel::set_cavity_flow_profile: negative share");
    if (grid_.column_flow_share(c) > 0.0) sum += shares[c];
  }
  require(sum > 0.0,
          "RcModel::set_cavity_flow_profile: no flow left on columns "
          "with fluid cells");
  std::vector<double>& cur = cavity_share_[cavity];
  bool changed = false;
  for (int c = 0; c < grid_.cols(); ++c) {
    const double normalized =
        grid_.column_flow_share(c) > 0.0 ? shares[c] / sum : 0.0;
    changed = changed || cur[c] != normalized;
    cur[c] = normalized;
  }
  if (!changed) return;
  const double rho_cp = cavity_rho_cp_[cavity];
  for (AdvectionEntry& e : cavity_adv_[cavity]) {
    e.unit = rho_cp * cur[e.col];
  }
  ++cavity_profile_[cavity];
  apply_cavity_flow(cavity);
}

void RcModel::rhs_into(std::span<double> out) const {
  require(out.size() == power_rhs_.size(), "RcModel::rhs_into: size mismatch");
  const double* __restrict p = power_rhs_.data();
  const double* __restrict s = rhs_static_.data();
  const double* __restrict f = rhs_flow_.data();
  double* __restrict o = out.data();
  const std::size_t n = power_rhs_.size();
  for (std::size_t i = 0; i < n; ++i) o[i] = p[i] + s[i] + f[i];
}

void RcModel::rhs_plus_scaled_into(std::span<double> out,
                                   std::span<const double> scale,
                                   std::span<const double> x) const {
  require(out.size() == power_rhs_.size() && scale.size() == out.size() &&
              x.size() == out.size(),
          "RcModel::rhs_plus_scaled_into: size mismatch");
  const double* __restrict p = power_rhs_.data();
  const double* __restrict s = rhs_static_.data();
  const double* __restrict f = rhs_flow_.data();
  const double* __restrict c = scale.data();
  const double* __restrict xs = x.data();
  double* __restrict o = out.data();
  const std::size_t n = power_rhs_.size();
  for (std::size_t i = 0; i < n; ++i) {
    o[i] = p[i] + s[i] + f[i] + c[i] * xs[i];
  }
}

std::vector<double> RcModel::steady_state(
    sparse::SolverKind kind,
    std::shared_ptr<const sparse::SymbolicStructure> structure) const {
  return steady_state(*steady_solver(kind, std::move(structure)));
}

std::unique_ptr<sparse::LinearSolver> RcModel::steady_solver(
    sparse::SolverKind kind,
    std::shared_ptr<const sparse::SymbolicStructure> structure) const {
  return sparse::make_solver(kind, g_, std::move(structure));
}

std::vector<double> RcModel::steady_state(sparse::LinearSolver& solver) const {
  std::vector<double> b(power_rhs_.size());
  rhs_into(b);
  std::vector<double> x(b.size(),
                        std::max(grid_.spec().ambient,
                                 grid_.spec().coolant_inlet));
  solver.solve(b, x);
  return x;
}

double RcModel::element_max(std::span<const double> temps,
                            int element) const {
  double best = -1e300;
  for (const auto& cw : grid_.element_cells(element)) {
    best = std::max(best, temps[cw.node]);
  }
  return best;
}

double RcModel::element_avg(std::span<const double> temps,
                            int element) const {
  double acc = 0.0;
  for (const auto& cw : grid_.element_cells(element)) {
    acc += temps[cw.node] * cw.weight;
  }
  return acc;
}

double RcModel::max_temperature(std::span<const double> temps) const {
  const std::int64_t cells = static_cast<std::int64_t>(grid_.n_layers()) *
                             grid_.rows() * grid_.cols();
  double best = -1e300;
  for (std::int64_t i = 0; i < cells; ++i) best = std::max(best, temps[i]);
  return best;
}

double RcModel::cavity_outlet_temp(std::span<const double> temps,
                                   int cavity) const {
  const int l = cavity_grid_layer(cavity);
  const int r = grid_.rows() - 1;
  const std::vector<double>& share = cavity_share_[cavity];
  double acc = 0.0;
  for (int c = 0; c < grid_.cols(); ++c) {
    acc += share[c] * temps[grid_.cell_node(l, r, c)];
  }
  return acc;
}

double RcModel::advective_heat_removal(std::span<const double> temps,
                                       int cavity) const {
  const GridLayer& gl = grid_.layer(cavity_grid_layer(cavity));
  const double mcp =
      gl.coolant.density * gl.coolant.specific_heat * cavity_flow_[cavity];
  return mcp *
         (cavity_outlet_temp(temps, cavity) - grid_.spec().coolant_inlet);
}

double RcModel::sink_heat_removal(std::span<const double> temps) const {
  if (!grid_.has_sink()) return 0.0;
  return grid_.spec().sink.conductance_to_ambient *
         (temps[grid_.sink_node()] - grid_.spec().ambient);
}

}  // namespace tac3d::thermal
