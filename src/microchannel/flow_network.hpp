#pragma once
/// \file flow_network.hpp
/// \brief Linear hydraulic network solver for fluid-focusing studies
/// (Fig. 4 of the paper).
///
/// Laminar micro-channel flow is linear in the pressure difference
/// (Q = g * dP), so a cavity with manifolds and guiding structures is a
/// resistor network. Solving the network gives the per-channel flow
/// distribution for uniform vs fluid-focused designs.

#include <cstdint>
#include <span>
#include <vector>

#include "microchannel/coolant.hpp"
#include "microchannel/duct.hpp"

namespace tac3d::microchannel {

/// Solution of a hydraulic network solve.
struct NetworkSolution {
  std::vector<double> pressures;   ///< node pressures [Pa]
  std::vector<double> edge_flows;  ///< flow a->b per edge [m^3/s]
};

/// Incompressible linear flow network: unknown-pressure nodes, fixed-
/// pressure boundary nodes, conductive edges, and nodal flow injections.
class HydraulicNetwork {
 public:
  /// Add an interior node with unknown pressure; returns its id.
  std::int32_t add_node();

  /// Add a boundary node held at \p pressure [Pa]; returns its id.
  std::int32_t add_fixed_node(double pressure);

  /// Connect nodes \p a and \p b with hydraulic conductance
  /// \p conductance [m^3/(s Pa)]; returns the edge id.
  std::int32_t add_edge(std::int32_t a, std::int32_t b, double conductance);

  /// Inject \p flow [m^3/s] into an interior node (positive = source).
  void set_injection(std::int32_t node, double flow);

  std::int32_t node_count() const {
    return static_cast<std::int32_t>(fixed_.size());
  }
  std::int32_t edge_count() const {
    return static_cast<std::int32_t>(edges_.size());
  }

  /// Solve mass conservation for all interior pressures: one direct
  /// banded-LU solve of the interior Laplacian, exact up to rounding (no
  /// tolerance, no iteration cap). Throws InvalidArgument when the
  /// network is empty or an interior node has no path to a
  /// fixed-pressure node, whose pressure would be undetermined, and when
  /// the Laplacian is singular in floating point (a zero LU pivot: a
  /// branch grounded only through conductances that round away).
  NetworkSolution solve() const;

 private:
  struct Edge {
    std::int32_t a;
    std::int32_t b;
    double g;
  };
  std::vector<bool> fixed_;
  std::vector<double> fixed_pressure_;
  std::vector<double> injection_;
  std::vector<Edge> edges_;
};

/// Hydraulic conductance of a straight rectangular channel
/// (laminar: Q = g dP).
double channel_conductance(const RectDuct& duct, double length,
                           const Coolant& fluid);

/// Normalized flow fractions of the listed edges of a solved network
/// (|flow| per edge / total), e.g. the per-channel edges of a cavity
/// distributor. Throws if the total flow is zero.
std::vector<double> flow_fractions(const NetworkSolution& sol,
                                   std::span<const std::int32_t> edges);

/// Resample \p fractions (one value per fine bin, e.g. per channel) onto
/// \p bins coarse bins (e.g. thermal grid columns) by proportional
/// overlap; the result sums to the same total. Feed the result to
/// thermal::RcModel::set_cavity_flow_profile to drive the RC model's
/// advection from a hydraulic-network solve.
std::vector<double> coarsen_fractions(std::span<const double> fractions,
                                      int bins);

}  // namespace tac3d::microchannel
