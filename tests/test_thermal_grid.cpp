// Tests of the grid discretization itself: node numbering, column
// structure in discrete mode, sublayer splitting, floorplan-to-cell
// mapping, and grid-refinement convergence of the solution.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "microchannel/coolant.hpp"
#include "thermal/grid.hpp"
#include "thermal/rc_model.hpp"

namespace tac3d::thermal {
namespace {

StackSpec two_die_spec() {
  StackSpec spec;
  spec.name = "grid-test";
  spec.width = mm(9.0);
  spec.length = mm(9.0);
  Floorplan fp;
  fp.add("left", Rect{0.0, 0.0, mm(4.5), mm(9.0)});
  fp.add("right", Rect{mm(4.5), 0.0, mm(4.5), mm(9.0)});
  spec.floorplans.push_back(fp);
  const auto water = microchannel::water(celsius_to_kelvin(27.0));
  spec.layers.push_back(Layer::solid("die0", mm(0.15),
                                     materials::silicon(), 0));
  spec.layers.push_back(Layer::cavity("cav", um(100.0), um(50.0),
                                      um(150.0), materials::silicon(),
                                      water));
  spec.layers.push_back(Layer::solid("die1", mm(0.15),
                                     materials::silicon()));
  spec.ambient = celsius_to_kelvin(27.0);
  spec.coolant_inlet = celsius_to_kelvin(27.0);
  return spec;
}

TEST(Grid, NodeNumberingIsDenseAndUnique) {
  ThermalGrid grid(two_die_spec(), GridOptions{6, 5});
  EXPECT_EQ(grid.n_layers(), 3);
  EXPECT_EQ(grid.node_count(), 3 * 6 * 5);
  EXPECT_EQ(grid.cell_node(0, 0, 0), 0);
  EXPECT_EQ(grid.cell_node(2, 5, 4), grid.node_count() - 1);
  EXPECT_EQ(grid.sink_node(), -1);  // no sink in this spec
}

TEST(Grid, SinkNodeAppendedWhenPresent) {
  StackSpec spec = two_die_spec();
  spec.layers.pop_back();
  spec.layers.pop_back();  // solid die only
  spec.sink.present = true;
  ThermalGrid grid(spec, GridOptions{4, 4});
  EXPECT_EQ(grid.node_count(), 4 * 4 + 1);
  EXPECT_EQ(grid.sink_node(), 16);
}

TEST(Grid, RejectsCellCountBeyondInt32Indices) {
  // 3 layers x 65535 x 65535 cells: the node indices would not fit
  // int32. Rejected before any element maps onto the cells.
  EXPECT_THROW(ThermalGrid(two_die_spec(), GridOptions{65535, 65535}),
               InvalidArgument);
  // One layer of 65535 x 32769 cells: INT32_MAX + 32768.
  StackSpec one_die = two_die_spec();
  one_die.layers.resize(1);
  EXPECT_THROW(ThermalGrid(one_die, GridOptions{65535, 32769}),
               InvalidArgument);
}

TEST(Grid, HomogenizedChannelFractionMatchesGeometry) {
  ThermalGrid grid(two_die_spec(), GridOptions{6, 5});
  for (int c = 0; c < grid.cols(); ++c) {
    EXPECT_NEAR(grid.channel_fraction(c), 50.0 / 150.0, 1e-12);
  }
  // Flow shares sum to one.
  double sum = 0.0;
  for (int c = 0; c < grid.cols(); ++c) sum += grid.column_flow_share(c);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Grid, DiscreteColumnsAlternateChannelAndWall) {
  GridOptions opts;
  opts.rows = 6;
  opts.discrete_channels = true;
  ThermalGrid grid(two_die_spec(), opts);
  // 9 mm / 150 um = 60 channels -> 2*60+1 columns.
  EXPECT_EQ(grid.cols(), 121);
  int channels = 0;
  double fluid_width = 0.0, total_width = 0.0;
  for (int c = 0; c < grid.cols(); ++c) {
    const double phi = grid.channel_fraction(c);
    EXPECT_TRUE(phi == 0.0 || phi == 1.0);
    if (phi == 1.0) {
      ++channels;
      fluid_width += grid.dx(c);
      EXPECT_NEAR(grid.dx(c), um(50.0), 1e-12);
    }
    total_width += grid.dx(c);
  }
  EXPECT_EQ(channels, 60);
  EXPECT_NEAR(total_width, mm(9.0), 1e-9);
  EXPECT_NEAR(fluid_width, 60 * um(50.0), 1e-9);
  // Edge columns are walls.
  EXPECT_DOUBLE_EQ(grid.channel_fraction(0), 0.0);
  EXPECT_DOUBLE_EQ(grid.channel_fraction(grid.cols() - 1), 0.0);
}

TEST(Grid, XRefineSplitsColumns) {
  GridOptions opts;
  opts.rows = 4;
  opts.discrete_channels = true;
  opts.x_refine = 2;
  ThermalGrid grid(two_die_spec(), opts);
  EXPECT_EQ(grid.cols(), 2 * 121);
  int fluid_cols = 0;
  for (int c = 0; c < grid.cols(); ++c) {
    if (grid.channel_fraction(c) == 1.0) ++fluid_cols;
  }
  EXPECT_EQ(fluid_cols, 2 * 60);
}

TEST(Grid, ZRefineSplitsSolidLayersOnly) {
  GridOptions opts{6, 5};
  opts.z_refine = 3;
  ThermalGrid grid(two_die_spec(), opts);
  // 2 solid layers x 3 sublayers + 1 cavity = 7 grid layers.
  EXPECT_EQ(grid.n_layers(), 7);
  // Power attaches to the TOP sublayer of the source layer.
  int source_layers = 0;
  for (int l = 0; l < grid.n_layers(); ++l) {
    if (grid.layer(l).floorplan_index >= 0) {
      ++source_layers;
      EXPECT_EQ(l, 2);  // third sublayer of die0
    }
  }
  EXPECT_EQ(source_layers, 1);
  // Sublayer thickness is a third of the die.
  EXPECT_NEAR(grid.layer(0).thickness, mm(0.15) / 3.0, 1e-12);
}

TEST(Grid, ElementWeightsSumToOne) {
  ThermalGrid grid(two_die_spec(), GridOptions{7, 9});
  ASSERT_EQ(grid.element_count(), 2);
  for (int e = 0; e < 2; ++e) {
    double sum = 0.0;
    for (const auto& cw : grid.element_cells(e)) sum += cw.weight;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Grid, ElementLookupByName) {
  ThermalGrid grid(two_die_spec(), GridOptions{6, 5});
  EXPECT_EQ(grid.element(grid.element_id("left")).name, "left");
  EXPECT_THROW(grid.element_id("nope"), InvalidArgument);
}

TEST(Grid, PowerMapsOntoCorrectSide) {
  RcModel model(two_die_spec(), GridOptions{8, 8});
  model.set_all_flows(ml_per_min(20.0));
  model.set_element_power(model.grid().element_id("left"), 30.0);
  const auto temps = model.steady_state();
  // Left half of the die must be hotter than the right half.
  const auto& g = model.grid();
  const double t_left = temps[g.cell_node(0, 4, 1)];
  const double t_right = temps[g.cell_node(0, 4, 6)];
  EXPECT_GT(t_left, t_right + 2.0);
}

TEST(Grid, RefinementConvergence) {
  // Peak temperature must converge as the grid is refined: the 16->24
  // change must be much smaller than the 8->16 change, and the total
  // spread small.
  double peaks[3];
  int i = 0;
  for (const int n : {8, 16, 24}) {
    RcModel model(two_die_spec(), GridOptions{n, n});
    model.set_all_flows(ml_per_min(20.0));
    model.set_element_power(0, 20.0);
    model.set_element_power(1, 20.0);
    peaks[i++] = model.max_temperature(model.steady_state());
  }
  const double d1 = std::abs(peaks[1] - peaks[0]);
  const double d2 = std::abs(peaks[2] - peaks[1]);
  EXPECT_LT(d2, d1 + 0.1);
  EXPECT_LT(d2, 1.0);  // < 1 K between 16x16 and 24x24
}

TEST(Grid, RejectsDegenerateOptions) {
  EXPECT_THROW(ThermalGrid(two_die_spec(), GridOptions{1, 8}),
               InvalidArgument);
  GridOptions bad{8, 8};
  bad.z_refine = 0;
  EXPECT_THROW(ThermalGrid(two_die_spec(), bad), InvalidArgument);
}

TEST(Grid, DiscreteRequiresCavity) {
  StackSpec spec = two_die_spec();
  spec.layers = {Layer::solid("die", mm(0.3), materials::silicon(), 0)};
  spec.sink.present = true;
  GridOptions opts{8, 8};
  opts.discrete_channels = true;
  EXPECT_THROW(ThermalGrid(spec, opts), InvalidArgument);
}

}  // namespace
}  // namespace tac3d::thermal
