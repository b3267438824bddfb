#include "microchannel/flow_network.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "sparse/banded_lu.hpp"
#include "sparse/csr.hpp"

namespace tac3d::microchannel {

std::int32_t HydraulicNetwork::add_node() {
  fixed_.push_back(false);
  fixed_pressure_.push_back(0.0);
  injection_.push_back(0.0);
  return node_count() - 1;
}

std::int32_t HydraulicNetwork::add_fixed_node(double pressure) {
  fixed_.push_back(true);
  fixed_pressure_.push_back(pressure);
  injection_.push_back(0.0);
  return node_count() - 1;
}

std::int32_t HydraulicNetwork::add_edge(std::int32_t a, std::int32_t b,
                                        double conductance) {
  require(a >= 0 && a < node_count() && b >= 0 && b < node_count() && a != b,
          "HydraulicNetwork::add_edge: invalid endpoints");
  require(conductance > 0.0,
          "HydraulicNetwork::add_edge: conductance must be positive");
  edges_.push_back(Edge{a, b, conductance});
  return edge_count() - 1;
}

void HydraulicNetwork::set_injection(std::int32_t node, double flow) {
  require(node >= 0 && node < node_count(),
          "HydraulicNetwork::set_injection: invalid node");
  require(!fixed_[node],
          "HydraulicNetwork::set_injection: node has fixed pressure");
  injection_[node] = flow;
}

NetworkSolution HydraulicNetwork::solve() const {
  const std::int32_t n = node_count();
  require(n > 0, "HydraulicNetwork::solve: empty network");

  // Union-find over the edges: an interior node must share a component
  // with a fixed-pressure node, or its pressure is undetermined (the
  // component's Laplacian block is singular).
  std::vector<std::int32_t> root(static_cast<std::size_t>(n));
  std::iota(root.begin(), root.end(), 0);
  const auto find = [&](std::int32_t i) {
    while (root[i] != i) i = root[i] = root[root[i]];
    return i;
  };
  for (const Edge& e : edges_) root[find(e.a)] = find(e.b);
  std::vector<bool> grounded(static_cast<std::size_t>(n), false);
  for (std::int32_t i = 0; i < n; ++i) {
    if (fixed_[i]) grounded[find(i)] = true;
  }

  // Fixed pressures, and unknown indices for the interior nodes.
  std::vector<std::int32_t> unknown_of(static_cast<std::size_t>(n), -1);
  std::int32_t n_unknown = 0;
  NetworkSolution sol;
  sol.pressures.assign(static_cast<std::size_t>(n), 0.0);
  for (std::int32_t i = 0; i < n; ++i) {
    if (fixed_[i]) {
      sol.pressures[i] = fixed_pressure_[i];
    } else {
      require(grounded[find(i)],
              "HydraulicNetwork::solve: interior node without a path to a "
              "fixed-pressure node");
      unknown_of[i] = n_unknown++;
    }
  }

  if (n_unknown > 0) {
    std::vector<sparse::Triplet> trips;
    std::vector<double> rhs(static_cast<std::size_t>(n_unknown), 0.0);
    for (std::int32_t i = 0; i < n; ++i) {
      if (!fixed_[i]) rhs[unknown_of[i]] = injection_[i];
    }
    for (const Edge& e : edges_) {
      const std::int32_t ua = unknown_of[e.a];
      const std::int32_t ub = unknown_of[e.b];
      if (ua >= 0) trips.push_back({ua, ua, e.g});
      if (ub >= 0) trips.push_back({ub, ub, e.g});
      if (ua >= 0 && ub >= 0) {
        trips.push_back({ua, ub, -e.g});
        trips.push_back({ub, ua, -e.g});
      } else if (ua >= 0) {
        rhs[ua] += e.g * fixed_pressure_[e.b];
      } else if (ub >= 0) {
        rhs[ub] += e.g * fixed_pressure_[e.a];
      }
    }
    // Every component grounded, the Laplacian is an irreducibly
    // diagonally dominant M-matrix per component, so LU without
    // pivoting is stable: one direct solve, no tolerance to meet.
    sparse::BandedLu(sparse::CsrMatrix::from_triplets(n_unknown, n_unknown,
                                                      std::move(trips)))
        .solve(rhs, rhs);
    for (std::int32_t i = 0; i < n; ++i) {
      if (!fixed_[i]) sol.pressures[i] = rhs[unknown_of[i]];
    }
  }

  sol.edge_flows.reserve(edges_.size());
  for (const Edge& e : edges_) {
    sol.edge_flows.push_back(e.g *
                             (sol.pressures[e.a] - sol.pressures[e.b]));
  }
  return sol;
}

double channel_conductance(const RectDuct& duct, double length,
                           const Coolant& fluid) {
  require(length > 0.0, "channel_conductance: length must be positive");
  // Laminar: dP = (4 f_fanning / Dh) (rho v^2 / 2) L with f = C/Re, so
  // dP is linear in Q; evaluate the slope with a unit-velocity probe.
  const double c = fanning_friction_constant(duct.aspect());
  const double dh = duct.hydraulic_diameter();
  // dP/Q = 2 c mu L / (A Dh^2)  [Pa s / m^3]
  const double resistance =
      2.0 * c * fluid.viscosity * length / (duct.area() * dh * dh);
  return 1.0 / resistance;
}

std::vector<double> flow_fractions(const NetworkSolution& sol,
                                   std::span<const std::int32_t> edges) {
  std::vector<double> fractions(edges.size(), 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const std::int32_t e = edges[i];
    require(e >= 0 && e < static_cast<std::int32_t>(sol.edge_flows.size()),
            "flow_fractions: edge id out of range");
    fractions[i] = std::abs(sol.edge_flows[e]);
    total += fractions[i];
  }
  require(total > 0.0, "flow_fractions: zero aggregate flow");
  for (double& f : fractions) f /= total;
  return fractions;
}

std::vector<double> coarsen_fractions(std::span<const double> fractions,
                                      int bins) {
  require(bins > 0, "coarsen_fractions: bins must be positive");
  require(!fractions.empty(), "coarsen_fractions: empty input");
  const int m = static_cast<int>(fractions.size());
  std::vector<double> out(static_cast<std::size_t>(bins), 0.0);
  // Proportional overlap of fine bin [i/m, (i+1)/m) with coarse bin
  // [b/bins, (b+1)/bins); conserves the total.
  for (int i = 0; i < m; ++i) {
    const double lo = static_cast<double>(i) / m;
    const double hi = static_cast<double>(i + 1) / m;
    for (int b = static_cast<int>(lo * bins); b < bins; ++b) {
      const double blo = static_cast<double>(b) / bins;
      const double bhi = static_cast<double>(b + 1) / bins;
      if (blo >= hi) break;
      const double overlap = std::min(hi, bhi) - std::max(lo, blo);
      if (overlap > 0.0) {
        out[static_cast<std::size_t>(b)] +=
            fractions[static_cast<std::size_t>(i)] * overlap * m;
      }
    }
  }
  return out;
}

}  // namespace tac3d::microchannel
