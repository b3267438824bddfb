// Tests of the heat-transfer-structure design blocks: pin-fin arrays,
// channel-width modulation and the hydraulic flow network.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "microchannel/coolant.hpp"
#include "microchannel/flow_network.hpp"
#include "microchannel/modulation.hpp"
#include "microchannel/pinfin.hpp"

namespace tac3d::microchannel {
namespace {

Coolant water27() { return water(celsius_to_kelvin(27.0)); }

PinFinArray base_array() {
  PinFinArray g;
  g.pin_diameter = um(50.0);
  g.transverse_pitch = um(150.0);
  g.longitudinal_pitch = um(150.0);
  g.height = um(100.0);
  g.footprint_width = mm(10.0);
  g.footprint_length = mm(10.0);
  return g;
}

TEST(PinFin, GeometryCounts) {
  const PinFinArray g = base_array();
  EXPECT_EQ(g.rows_along_flow(), 66);
  EXPECT_EQ(g.pins_per_row(), 66);
  EXPECT_NEAR(g.min_flow_area(), mm(10.0) * um(100.0) * (2.0 / 3.0), 1e-12);
  EXPECT_GT(g.pin_surface_area(), 0.0);
}

TEST(PinFin, StaggeredHasMoreDragAndMoreTransfer) {
  PinFinArray g = base_array();
  g.arrangement = PinArrangement::kInline;
  const auto inline_perf = evaluate_pin_fin(g, ml_per_min(32.3), water27(),
                                            130.0);
  g.arrangement = PinArrangement::kStaggered;
  const auto stag = evaluate_pin_fin(g, ml_per_min(32.3), water27(), 130.0);
  // Section II-C: in-line = low pressure drop, acceptable transfer.
  EXPECT_GT(stag.pressure_drop, 1.2 * inline_perf.pressure_drop);
  EXPECT_GT(stag.htc, inline_perf.htc);
  EXPECT_GT(inline_perf.htc, 0.6 * stag.htc);  // "acceptable"
}

TEST(PinFin, ShapeOrdering) {
  PinFinArray g = base_array();
  double dp[3];
  int i = 0;
  for (const auto s : {PinShape::kDrop, PinShape::kCircular,
                       PinShape::kSquare}) {
    g.shape = s;
    dp[i++] = evaluate_pin_fin(g, ml_per_min(32.3), water27(), 130.0)
                  .pressure_drop;
  }
  EXPECT_LT(dp[0], dp[1]);  // drop < circular
  EXPECT_LT(dp[1], dp[2]);  // circular < square
}

TEST(PinFin, ZeroFlowGivesZeroPerformance) {
  const auto perf = evaluate_pin_fin(base_array(), 0.0, water27(), 130.0);
  EXPECT_DOUBLE_EQ(perf.pressure_drop, 0.0);
  EXPECT_DOUBLE_EQ(perf.htc, 0.0);
}

TEST(PinFin, RejectsOutOfRangeReynolds) {
  EXPECT_THROW(
      evaluate_pin_fin(base_array(), ml_per_min(3000.0), water27(), 130.0),
      ModelRangeError);
}

TEST(PinFin, RejectsOverlappingPins) {
  PinFinArray g = base_array();
  g.transverse_pitch = um(40.0);  // < diameter
  EXPECT_THROW(g.min_flow_area(), InvalidArgument);
}

class PinFlowSweep : public ::testing::TestWithParam<double> {};

TEST_P(PinFlowSweep, PressureAndTransferIncreaseWithFlow) {
  PinFinArray g = base_array();
  const double q = ml_per_min(GetParam());
  const auto lo = evaluate_pin_fin(g, q, water27(), 130.0);
  const auto hi = evaluate_pin_fin(g, 1.5 * q, water27(), 130.0);
  EXPECT_GT(hi.pressure_drop, lo.pressure_drop);
  EXPECT_GT(hi.htc, lo.htc);
}

INSTANTIATE_TEST_SUITE_P(Flows, PinFlowSweep,
                         ::testing::Values(5.0, 10.0, 20.0, 30.0));

// --- width modulation ----------------------------------------------------

TEST(Modulation, FluidTemperatureIndependentOfWidths) {
  const std::vector<double> len(10, mm(1.0));
  const std::vector<double> q(10, w_per_cm2(50.0));
  const double q_ch = ml_per_min(0.4);
  ModulatedChannel wide{len, std::vector<double>(10, um(50.0)), um(100.0)};
  ModulatedChannel narrow{len, std::vector<double>(10, um(30.0)), um(100.0)};
  const auto rw = evaluate_modulated_channel(wide, q, um(150.0), q_ch,
                                             300.0, water27(), 130.0);
  const auto rn = evaluate_modulated_channel(narrow, q, um(150.0), q_ch,
                                             300.0, water27(), 130.0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_NEAR(rw.fluid_temp[i], rn.fluid_temp[i], 1e-9);
  }
}

TEST(Modulation, NarrowerSegmentsCoolBetterButCostMore) {
  const std::vector<double> len(10, mm(1.0));
  const std::vector<double> q(10, w_per_cm2(100.0));
  const double q_ch = ml_per_min(0.4);
  ModulatedChannel wide{len, std::vector<double>(10, um(50.0)), um(100.0)};
  ModulatedChannel narrow{len, std::vector<double>(10, um(30.0)), um(100.0)};
  const auto rw = evaluate_modulated_channel(wide, q, um(150.0), q_ch,
                                             300.0, water27(), 130.0);
  const auto rn = evaluate_modulated_channel(narrow, q, um(150.0), q_ch,
                                             300.0, water27(), 130.0);
  EXPECT_LT(rn.wall_superheat[5], rw.wall_superheat[5]);
  EXPECT_GT(rn.pressure_drop, rw.pressure_drop);
}

TEST(Modulation, DesignNarrowsOnlyAtHotSpot) {
  const int n = 12;
  std::vector<double> len(n, mm(1.0));
  std::vector<double> q(n, w_per_cm2(40.0));
  q[7] = w_per_cm2(250.0);
  q[8] = w_per_cm2(250.0);
  const auto chan = design_width_profile(
      len, q, um(100.0), um(150.0), um(30.0), um(50.0), ml_per_min(0.49),
      celsius_to_kelvin(27.0), celsius_to_kelvin(85.0), water27(), 130.0);
  for (int i = 0; i < n; ++i) {
    if (i == 7 || i == 8) {
      EXPECT_LT(chan.segment_widths[i], um(49.0)) << "segment " << i;
    } else {
      EXPECT_NEAR(chan.segment_widths[i], um(50.0), 1e-9) << "segment " << i;
    }
  }
  const auto r = evaluate_modulated_channel(chan, q, um(150.0),
                                            ml_per_min(0.49),
                                            celsius_to_kelvin(27.0),
                                            water27(), 130.0);
  EXPECT_LE(r.peak_wall_temperature, celsius_to_kelvin(85.0) + 0.1);
}

TEST(Modulation, MinFlowBisectionFindsThreshold) {
  const int n = 10;
  std::vector<double> len(n, mm(1.0));
  std::vector<double> q(n, w_per_cm2(60.0));
  const ModulatedChannel chan{len, std::vector<double>(n, um(50.0)),
                              um(100.0)};
  const double q_min = min_flow_for_limit(chan, q, um(150.0),
                                          celsius_to_kelvin(27.0),
                                          celsius_to_kelvin(85.0), water27(),
                                          130.0, ml_per_min(0.02),
                                          ml_per_min(0.5));
  const auto at_min = evaluate_modulated_channel(
      chan, q, um(150.0), q_min, celsius_to_kelvin(27.0), water27(), 130.0);
  EXPECT_NEAR(kelvin_to_celsius(at_min.peak_wall_temperature), 85.0, 0.5);
  // Slightly less flow must violate the limit.
  const auto below = evaluate_modulated_channel(
      chan, q, um(150.0), 0.95 * q_min, celsius_to_kelvin(27.0), water27(),
      130.0);
  EXPECT_GT(below.peak_wall_temperature, celsius_to_kelvin(85.0));
}

TEST(Modulation, MinFlowThrowsWhenLimitUnreachable) {
  const int n = 4;
  std::vector<double> len(n, mm(1.0));
  std::vector<double> q(n, w_per_cm2(2000.0));  // absurd flux
  const ModulatedChannel chan{len, std::vector<double>(n, um(50.0)),
                              um(100.0)};
  EXPECT_THROW(min_flow_for_limit(chan, q, um(150.0),
                                  celsius_to_kelvin(27.0),
                                  celsius_to_kelvin(85.0), water27(), 130.0,
                                  ml_per_min(0.02), ml_per_min(0.5)),
               InvalidArgument);
}

// --- hydraulic network ---------------------------------------------------

TEST(FlowNetwork, SeriesResistorsSplitPressure) {
  HydraulicNetwork net;
  const auto in = net.add_fixed_node(100.0);
  const auto mid = net.add_node();
  const auto out = net.add_fixed_node(0.0);
  net.add_edge(in, mid, 1.0);
  net.add_edge(mid, out, 1.0);
  const auto sol = net.solve();
  EXPECT_NEAR(sol.pressures[mid], 50.0, 1e-9);
  EXPECT_NEAR(sol.edge_flows[0], 50.0, 1e-9);
  EXPECT_NEAR(sol.edge_flows[1], 50.0, 1e-9);
}

TEST(FlowNetwork, ParallelBranchesShareByConductance) {
  HydraulicNetwork net;
  const auto in = net.add_fixed_node(10.0);
  const auto out = net.add_fixed_node(0.0);
  const auto e1 = net.add_edge(in, out, 1.0);
  const auto e2 = net.add_edge(in, out, 3.0);
  const auto sol = net.solve();
  EXPECT_NEAR(sol.edge_flows[e2], 3.0 * sol.edge_flows[e1], 1e-9);
}

TEST(FlowNetwork, MassConservationAtInteriorNodes) {
  HydraulicNetwork net;
  const auto in = net.add_fixed_node(50.0);
  const auto a = net.add_node();
  const auto b = net.add_node();
  const auto out = net.add_fixed_node(0.0);
  net.add_edge(in, a, 2.0);
  net.add_edge(a, b, 1.0);
  net.add_edge(a, out, 0.5);
  net.add_edge(b, out, 3.0);
  const auto sol = net.solve();
  // Flow into a == flow out of a.
  EXPECT_NEAR(sol.edge_flows[0], sol.edge_flows[1] + sol.edge_flows[2],
              1e-9);
}

TEST(FlowNetwork, InjectionRaisesLocalPressure) {
  HydraulicNetwork net;
  const auto ref = net.add_fixed_node(0.0);
  const auto n1 = net.add_node();
  net.add_edge(ref, n1, 2.0);
  net.set_injection(n1, 4.0);
  const auto sol = net.solve();
  EXPECT_NEAR(sol.pressures[n1], 2.0, 1e-9);  // P = Q / g
}

TEST(FlowNetwork, RejectsFloatingNetworkAndBadEdges) {
  HydraulicNetwork net;
  const auto a = net.add_node();
  const auto b = net.add_node();
  net.add_edge(a, b, 1.0);
  EXPECT_THROW(net.solve(), InvalidArgument);
  EXPECT_THROW(net.add_edge(a, a, 1.0), InvalidArgument);
  EXPECT_THROW(net.add_edge(a, 99, 1.0), InvalidArgument);
  EXPECT_THROW(net.add_edge(a, b, -1.0), InvalidArgument);
  // A grounded branch beside the pair leaves the pair's pressures
  // undetermined.
  const auto in = net.add_fixed_node(100.0);
  const auto mid = net.add_node();
  const auto out = net.add_fixed_node(0.0);
  net.add_edge(in, mid, 1.0);
  net.add_edge(mid, out, 1.0);
  EXPECT_THROW(net.solve(), InvalidArgument);
  // Grounded only through a conductance that rounds away against the
  // chain's own (1 + 1e-20 == 1), the Laplacian is singular in floating
  // point: its last pivot is exactly zero.
  HydraulicNetwork chain;
  const auto ground = chain.add_fixed_node(100.0);
  const auto c0 = chain.add_node();
  const auto c1 = chain.add_node();
  chain.add_edge(ground, c0, 1e-20);
  chain.add_edge(c0, c1, 1.0);
  EXPECT_THROW(chain.solve(), InvalidArgument);
}

TEST(FlowNetwork, ChannelConductanceMatchesPressureDrop) {
  const RectDuct duct{um(50.0), um(100.0)};
  const Coolant w = water27();
  const double g = channel_conductance(duct, mm(10.0), w);
  const double q = ml_per_min(0.3);
  const double dp = pressure_drop(duct, mm(10.0), q, w);
  EXPECT_NEAR(g * dp, q, 0.01 * q);  // Q = g dP (laminar linearity)
}

}  // namespace
}  // namespace tac3d::microchannel
