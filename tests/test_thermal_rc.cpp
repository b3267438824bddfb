// Physics validation of the RC thermal model against closed-form
// solutions: 1-D slab conduction, lumped RC step response, cavity energy
// balance, and steady/transient consistency.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include <sstream>

#include "common/error.hpp"
#include "common/units.hpp"
#include "microchannel/coolant.hpp"
#include "thermal/rc_model.hpp"
#include "thermal/transient.hpp"

namespace tac3d::thermal {
namespace {

/// A single solid slab with a uniform heater floorplan and a sink on top.
StackSpec slab_spec(double power_area_ratio = 1.0) {
  (void)power_area_ratio;
  StackSpec spec;
  spec.name = "slab";
  spec.width = mm(10.0);
  spec.length = mm(10.0);
  Floorplan fp;
  fp.add("heater", Rect{0.0, 0.0, mm(10.0), mm(10.0)});
  spec.floorplans.push_back(fp);
  spec.layers.push_back(Layer::solid("body", mm(0.5), materials::silicon(),
                                     /*floorplan=*/0));
  spec.sink.present = true;
  spec.sink.conductance_to_ambient = 10.0;
  spec.sink.capacitance = 140.0;
  spec.sink.coupling_conductance = 1e4;  // near-ideal attach
  spec.ambient = celsius_to_kelvin(45.0);
  return spec;
}

/// Two dies around one water cavity, uniform heaters on both dies.
StackSpec cavity_spec() {
  StackSpec spec;
  spec.name = "cavity";
  spec.width = mm(10.0);
  spec.length = mm(10.0);
  Floorplan fp0, fp1;
  fp0.add("bottom_heater", Rect{0.0, 0.0, mm(10.0), mm(10.0)});
  fp1.add("top_heater", Rect{0.0, 0.0, mm(10.0), mm(10.0)});
  spec.floorplans.push_back(fp0);
  spec.floorplans.push_back(fp1);
  const auto water = microchannel::water(celsius_to_kelvin(27.0));
  spec.layers.push_back(
      Layer::solid("die0", mm(0.15), materials::silicon(), 0));
  spec.layers.push_back(Layer::cavity("cav", um(100.0), um(50.0), um(150.0),
                                      materials::silicon(), water));
  spec.layers.push_back(
      Layer::solid("die1", mm(0.15), materials::silicon(), 1));
  spec.coolant_inlet = celsius_to_kelvin(27.0);
  spec.ambient = celsius_to_kelvin(27.0);
  return spec;
}

TEST(RcModel, SteadySlabMatchesLumpedResistance) {
  RcModel model(slab_spec(), GridOptions{8, 8});
  const int heater = model.grid().element_id("heater");
  std::vector<double> p(model.grid().element_count(), 0.0);
  p[heater] = 20.0;  // W
  model.set_element_powers(p);
  const auto temps = model.steady_state();
  // All heat exits through the 10 W/K sink: sink node at ambient + 2 K.
  const double t_sink = temps[model.grid().sink_node()];
  EXPECT_NEAR(t_sink - celsius_to_kelvin(45.0), 2.0, 1e-6);
  // The die sits above the sink temperature but within a few K (thick
  // silicon, near-ideal attach).
  const double t_die = model.element_avg(temps, heater);
  EXPECT_GT(t_die, t_sink);
  EXPECT_LT(t_die - t_sink, 1.0);
}

TEST(RcModel, SteadyEnergyBalanceThroughSink) {
  RcModel model(slab_spec(), GridOptions{8, 8});
  model.set_element_power(0, 35.0);
  const auto temps = model.steady_state();
  EXPECT_NEAR(model.sink_heat_removal(temps), 35.0, 1e-6);
}

TEST(RcModel, CavityEnergyBalanceAndOutletTemperature) {
  RcModel model(cavity_spec(), GridOptions{16, 8});
  model.set_all_flows(ml_per_min(32.3));
  std::vector<double> p(model.grid().element_count(), 0.0);
  p[0] = 30.0;
  p[1] = 30.0;
  model.set_element_powers(p);
  const auto temps = model.steady_state();

  // All 60 W leave through the coolant.
  EXPECT_NEAR(model.advective_heat_removal(temps, 0), 60.0, 0.1);

  // Outlet temperature from the energy balance: dT = P / (rho cp Q).
  const auto& gl_cool = microchannel::water(celsius_to_kelvin(27.0));
  const double mcp =
      gl_cool.density * gl_cool.specific_heat * ml_per_min(32.3);
  const double dt_expected = 60.0 / mcp;
  const double t_out = model.cavity_outlet_temp(temps, 0);
  EXPECT_NEAR(t_out - celsius_to_kelvin(27.0), dt_expected,
              0.05 * dt_expected);
}

TEST(RcModel, HigherFlowLowersPeakTemperature) {
  RcModel model(cavity_spec(), GridOptions{16, 8});
  model.set_element_power(0, 40.0);
  model.set_all_flows(ml_per_min(10.0));
  const double hot = model.max_temperature(model.steady_state());
  model.set_all_flows(ml_per_min(32.3));
  const double cold = model.max_temperature(model.steady_state());
  EXPECT_GT(hot, cold + 2.0);
}

TEST(RcModel, TemperatureIncreasesAlongFlowDirection) {
  RcModel model(cavity_spec(), GridOptions{16, 8});
  model.set_element_power(0, 40.0);
  model.set_all_flows(ml_per_min(20.0));
  const auto temps = model.steady_state();
  // Fluid nodes: layer 1; compare inlet-row vs outlet-row cell.
  const auto& g = model.grid();
  int cav_layer = -1;
  for (int l = 0; l < g.n_layers(); ++l) {
    if (g.layer(l).kind == LayerKind::kCavity) cav_layer = l;
  }
  ASSERT_GE(cav_layer, 0);
  const double t_in = temps[g.cell_node(cav_layer, 0, 4)];
  const double t_out = temps[g.cell_node(cav_layer, g.rows() - 1, 4)];
  EXPECT_GT(t_out, t_in + 0.5);
}

TEST(RcModel, LinearInPower) {
  RcModel model(cavity_spec(), GridOptions{12, 8});
  model.set_all_flows(ml_per_min(20.0));
  model.set_element_power(0, 10.0);
  const auto t1 = model.steady_state();
  model.set_element_power(0, 20.0);
  const auto t2 = model.steady_state();
  const double in = celsius_to_kelvin(27.0);
  // Temperature *rise* doubles when power doubles (linear network).
  for (std::size_t i = 0; i < t1.size(); i += 37) {
    EXPECT_NEAR(t2[i] - in, 2.0 * (t1[i] - in), 2e-3);
  }
}

TEST(RcModel, ReusedSteadySolverIsBitwiseAFreshOne) {
  // A solver bound once and reused across power changes (the leakage
  // fixed point's pattern) gives exactly a fresh solver's result.
  RcModel model(cavity_spec(), GridOptions{12, 8});
  model.set_all_flows(ml_per_min(20.0));
  for (const sparse::SolverKind kind :
       {sparse::SolverKind::kBicgstabIlu0, sparse::SolverKind::kBandedLu}) {
    const auto solver = model.steady_solver(kind);
    for (const double watts : {10.0, 35.0, 5.0}) {
      model.set_element_power(0, watts);
      const std::vector<double> fresh = model.steady_state(kind);
      const std::vector<double> reused = model.steady_state(*solver);
      ASSERT_EQ(fresh.size(), reused.size());
      EXPECT_EQ(std::memcmp(fresh.data(), reused.data(),
                            fresh.size() * sizeof(double)),
                0)
          << solver->name() << " at " << watts << " W";
    }
  }
}

TEST(TransientSolver, ConvergesToSteadyState) {
  RcModel model(cavity_spec(), GridOptions{12, 8});
  model.set_all_flows(ml_per_min(20.0));
  model.set_element_power(0, 25.0);
  model.set_element_power(1, 15.0);
  const auto steady = model.steady_state();

  TransientSolver sim(model, 0.05);
  sim.advance(30.0);  // much longer than the thermal time constants
  const auto now = sim.temperatures();
  for (std::size_t i = 0; i < steady.size(); i += 11) {
    EXPECT_NEAR(now[i], steady[i], 0.05);
  }
}

TEST(TransientSolver, StepResponseIsMonotone) {
  RcModel model(cavity_spec(), GridOptions{12, 8});
  model.set_all_flows(ml_per_min(20.0));
  TransientSolver sim(model, 0.05);
  sim.initialize_steady();  // zero-power steady state
  model.set_element_power(0, 30.0);
  const int heater = model.grid().element_id("bottom_heater");
  double prev = model.element_max(sim.temperatures(), heater);
  for (int s = 0; s < 40; ++s) {
    sim.step();
    const double cur = model.element_max(sim.temperatures(), heater);
    EXPECT_GE(cur, prev - 1e-9);
    prev = cur;
  }
}

TEST(TransientSolver, FlowChangeMidRunIsHandled) {
  RcModel model(cavity_spec(), GridOptions{12, 8});
  model.set_all_flows(ml_per_min(10.0));
  model.set_element_power(0, 40.0);
  TransientSolver sim(model, 0.1);
  sim.initialize_steady();
  const int heater = model.grid().element_id("bottom_heater");
  const double hot = model.element_max(sim.temperatures(), heater);
  model.set_all_flows(ml_per_min(32.3));  // matrix version bump
  sim.advance(20.0);
  const double cooled = model.element_max(sim.temperatures(), heater);
  EXPECT_LT(cooled, hot - 1.0);
}

TEST(RcModel, DiscreteChannelModelAgreesWithHomogenized) {
  // The detailed per-channel model and the homogenized porous-media
  // model must agree on peak temperature within a few percent of the
  // total rise (the paper reports <= 3.4% error vs detailed CFD).
  StackSpec spec = cavity_spec();
  RcModel coarse(spec, GridOptions{16, 8});
  GridOptions fine;
  fine.rows = 16;
  fine.discrete_channels = true;
  RcModel detailed(cavity_spec(), fine);

  for (auto* m : {&coarse, &detailed}) {
    m->set_all_flows(ml_per_min(32.3));
    std::vector<double> p(m->grid().element_count(), 0.0);
    p[0] = 30.0;
    p[1] = 30.0;
    m->set_element_powers(p);
  }
  const double rise_c =
      coarse.max_temperature(coarse.steady_state()) -
      celsius_to_kelvin(27.0);
  const double rise_d =
      detailed.max_temperature(detailed.steady_state()) -
      celsius_to_kelvin(27.0);
  EXPECT_NEAR(rise_c, rise_d, 0.10 * rise_d);
}

TEST(RcModel, MatrixIsDiagonallyDominant) {
  RcModel model(cavity_spec(), GridOptions{12, 8});
  model.set_all_flows(ml_per_min(20.0));
  EXPECT_TRUE(model.conductance().is_diagonally_dominant(1e-9));
}

TEST(Floorplan, ParseRoundTrip) {
  std::istringstream in(
      "# comment\n"
      "core0 0 0 2.5 4\n"
      "core1 2.5 0 2.5 4\n");
  const Floorplan fp = Floorplan::parse(in);
  EXPECT_EQ(fp.size(), 2u);
  EXPECT_NEAR(fp[0].rect.w, mm(2.5), 1e-12);
  EXPECT_NO_THROW(fp.validate(mm(5.0), mm(4.0)));
  std::istringstream in2(fp.to_text());
  const Floorplan fp2 = Floorplan::parse(in2);
  EXPECT_EQ(fp2.size(), 2u);
}

TEST(Floorplan, RejectsOverlap) {
  Floorplan fp;
  fp.add("a", Rect{0, 0, mm(2), mm(2)});
  fp.add("b", Rect{mm(1), 0, mm(2), mm(2)});
  EXPECT_THROW(fp.validate(mm(4), mm(4)), InvalidArgument);
}

TEST(StackSpec, RejectsCavityOnBoundary) {
  StackSpec spec;
  spec.width = mm(5);
  spec.length = mm(5);
  const auto water = microchannel::water(300.0);
  spec.layers.push_back(Layer::cavity("cav", um(100), um(50), um(150),
                                      materials::silicon(), water));
  spec.layers.push_back(Layer::solid("die", mm(0.15), materials::silicon()));
  EXPECT_THROW(spec.validate(), InvalidArgument);
}

}  // namespace
}  // namespace tac3d::thermal
