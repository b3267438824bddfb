// Tests of the fuzzy-inference engine and the run-time thermal policies.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "control/fuzzy.hpp"
#include "control/policy.hpp"

namespace tac3d::control {
namespace {

TEST(Membership, TriangularShape) {
  const auto mf = MembershipFunction::triangular(0.0, 1.0, 2.0);
  EXPECT_DOUBLE_EQ(mf(1.0), 1.0);
  EXPECT_DOUBLE_EQ(mf(0.5), 0.5);
  EXPECT_DOUBLE_EQ(mf(1.5), 0.5);
  EXPECT_DOUBLE_EQ(mf(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(mf(3.0), 0.0);
}

TEST(Membership, TrapezoidShapeAndShoulders) {
  const auto mf = MembershipFunction::trapezoid(0.0, 1.0, 2.0, 3.0);
  EXPECT_DOUBLE_EQ(mf(1.5), 1.0);
  EXPECT_DOUBLE_EQ(mf(0.5), 0.5);
  EXPECT_DOUBLE_EQ(mf(2.5), 0.5);
  // Crisp left shoulder (a == b).
  const auto left = MembershipFunction::trapezoid(0.0, 0.0, 1.0, 2.0);
  EXPECT_DOUBLE_EQ(left(0.0), 1.0);
}

TEST(Membership, RejectsDegenerateParameters) {
  EXPECT_THROW(MembershipFunction::triangular(2.0, 1.0, 3.0),
               InvalidArgument);
  EXPECT_THROW(MembershipFunction::trapezoid(0.0, 0.0, 0.0, 0.0),
               InvalidArgument);
}

TEST(LinguisticVariableTest, SetLookupAndMembership) {
  LinguisticVariable v("temp", 0.0, 100.0);
  v.add_set("cold", MembershipFunction::trapezoid(0, 0, 20, 40));
  v.add_set("hot", MembershipFunction::trapezoid(60, 80, 100, 100));
  EXPECT_EQ(v.set_index("hot"), 1);
  EXPECT_THROW(v.set_index("warm"), InvalidArgument);
  EXPECT_DOUBLE_EQ(v.membership(0, 10.0), 1.0);
  // Inputs are clamped to the domain.
  EXPECT_DOUBLE_EQ(v.membership(1, 500.0), 1.0);
}

FuzzyController make_simple_controller() {
  // One input (error in [0, 1]) and one output (command in [0, 1]):
  // small error -> low command, large error -> high command.
  LinguisticVariable err("err", 0.0, 1.0);
  err.add_set("small", MembershipFunction::trapezoid(0, 0, 0.2, 0.5));
  err.add_set("large", MembershipFunction::trapezoid(0.5, 0.8, 1, 1));
  LinguisticVariable cmd("cmd", 0.0, 1.0);
  cmd.add_set("low", MembershipFunction::triangular(0.0, 0.2, 0.4));
  cmd.add_set("high", MembershipFunction::triangular(0.6, 0.8, 1.0));
  FuzzyController fc;
  fc.add_input(std::move(err));
  fc.set_output(std::move(cmd));
  fc.add_rule({{"err", "small"}}, "low");
  fc.add_rule({{"err", "large"}}, "high");
  return fc;
}

TEST(FuzzyControllerTest, CrispRegionsHitSetCentroids) {
  auto fc = make_simple_controller();
  EXPECT_NEAR(fc.evaluate({0.1}), 0.2, 0.02);
  EXPECT_NEAR(fc.evaluate({0.9}), 0.8, 0.02);
}

TEST(FuzzyControllerTest, OutputIsMonotoneInInput) {
  auto fc = make_simple_controller();
  double prev = -1.0;
  for (double e = 0.0; e <= 1.0; e += 0.05) {
    const double out = fc.evaluate({e});
    EXPECT_GE(out, prev - 1e-9) << "at e=" << e;
    prev = out;
  }
}

TEST(FuzzyControllerTest, NoFiringRuleFallsBackToMidpoint) {
  LinguisticVariable in("x", 0.0, 1.0);
  in.add_set("edge", MembershipFunction::triangular(0.0, 0.0 + 1e-9, 0.1));
  LinguisticVariable out("y", 0.0, 2.0);
  out.add_set("a", MembershipFunction::triangular(0.0, 0.5, 1.0));
  FuzzyController fc;
  fc.add_input(std::move(in));
  fc.set_output(std::move(out));
  fc.add_rule({{"x", "edge"}}, "a");
  EXPECT_NEAR(fc.evaluate({0.9}), 1.0, 1e-9);  // midpoint of [0, 2]
}

TEST(FuzzyControllerTest, ValidatesRulesAndInputs) {
  auto fc = make_simple_controller();
  EXPECT_THROW(fc.evaluate({0.5, 0.5}), InvalidArgument);
  EXPECT_THROW(fc.add_rule({{"nope", "small"}}, "low"), InvalidArgument);
  EXPECT_THROW(fc.add_rule({{"err", "nope"}}, "low"), InvalidArgument);
  EXPECT_THROW(fc.add_rule({{"err", "small"}}, "nope"), InvalidArgument);
}

TEST(FuzzyControllerTest, AndSemanticsTakeTheMinimum) {
  LinguisticVariable a("a", 0.0, 1.0);
  a.add_set("on", MembershipFunction::trapezoid(0, 0, 1, 1));
  LinguisticVariable b("b", 0.0, 1.0);
  b.add_set("half", MembershipFunction::triangular(0.0, 0.5, 1.0));
  LinguisticVariable out("y", 0.0, 1.0);
  out.add_set("go", MembershipFunction::triangular(0.4, 0.5, 0.6));
  out.add_set("stop", MembershipFunction::triangular(0.0, 0.05, 0.1));
  FuzzyController fc;
  fc.add_input(std::move(a));
  fc.add_input(std::move(b));
  fc.set_output(std::move(out));
  fc.add_rule({{"a", "on"}, {"b", "half"}}, "go");
  // b = 0.5 -> full activation; centroid near 0.5.
  EXPECT_NEAR(fc.evaluate({0.7, 0.5}), 0.5, 0.02);
}

// --- policies -------------------------------------------------------------

PolicyInputs inputs_at(double temp_c, int n_cores, double demand,
                       double dt = 0.25) {
  PolicyInputs in;
  in.core_temps.assign(n_cores, celsius_to_kelvin(temp_c));
  in.core_demands.assign(n_cores, demand);
  in.dt = dt;
  return in;
}

/// One decision into fresh actions, through the policy interface.
PolicyActions decide(ThermalPolicy& pol, const PolicyInputs& in) {
  PolicyActions out;
  pol.decide_into(in, out);
  return out;
}

TEST(MaxPerformance, AlwaysTopLevelAndFixedPump) {
  const auto vf = power::VfTable::ultrasparc_t1();
  MaxPerformancePolicy air(8, vf, -1);
  MaxPerformancePolicy liquid(8, vf, 15);
  const auto a = decide(air, inputs_at(90.0, 8, 1.0));
  const auto l = decide(liquid, inputs_at(30.0, 8, 0.1));
  for (int c = 0; c < 8; ++c) {
    EXPECT_EQ(a.vf_levels[c], vf.max_level());
    EXPECT_EQ(l.vf_levels[c], vf.max_level());
  }
  EXPECT_EQ(a.pump_level, -1);
  EXPECT_EQ(l.pump_level, 15);
  EXPECT_EQ(air.name(), "AC_LB");
  EXPECT_EQ(liquid.name(), "LC_LB");
}

TEST(Tdvfs, ScalesDownAboveTripAndRecoversBelowRelease) {
  const auto vf = power::VfTable::ultrasparc_t1();
  TemperatureTriggeredDvfsPolicy pol(4, vf, celsius_to_kelvin(85.0),
                                     celsius_to_kelvin(82.0));
  // Hot: one step down per interval.
  auto act = decide(pol, inputs_at(86.0, 4, 1.0));
  EXPECT_EQ(act.vf_levels[0], vf.max_level() - 1);
  act = decide(pol, inputs_at(86.0, 4, 1.0));
  EXPECT_EQ(act.vf_levels[0], vf.max_level() - 2);
  // Hysteresis band: hold.
  act = decide(pol, inputs_at(83.5, 4, 1.0));
  EXPECT_EQ(act.vf_levels[0], vf.max_level() - 2);
  // Cool: climb back.
  act = decide(pol, inputs_at(80.0, 4, 1.0));
  EXPECT_EQ(act.vf_levels[0], vf.max_level() - 1);
}

TEST(Tdvfs, SaturatesAtLowestLevel) {
  const auto vf = power::VfTable::ultrasparc_t1();
  TemperatureTriggeredDvfsPolicy pol(2, vf, celsius_to_kelvin(85.0),
                                     celsius_to_kelvin(82.0));
  for (int i = 0; i < 20; ++i) decide(pol, inputs_at(95.0, 2, 1.0));
  const auto act = decide(pol, inputs_at(95.0, 2, 1.0));
  EXPECT_EQ(act.vf_levels[0], 0);
}

TEST(Fuzzy, ColdStackShedsFlow) {
  const auto vf = power::VfTable::ultrasparc_t1();
  FuzzyFlowDvfsPolicy pol(8, vf, 16, celsius_to_kelvin(85.0));
  int level = 15;
  for (int i = 0; i < 60; ++i) {
    level = decide(pol, inputs_at(40.0, 8, 0.2)).pump_level;
  }
  EXPECT_LT(level, 4);  // large margin -> near-minimum flow
}

TEST(Fuzzy, CriticalTemperatureForcesMaxPumpAndNominalVf) {
  const auto vf = power::VfTable::ultrasparc_t1();
  FuzzyFlowDvfsPolicy pol(8, vf, 16, celsius_to_kelvin(85.0));
  const auto act = decide(pol, inputs_at(86.0, 8, 0.3));
  EXPECT_EQ(act.pump_level, 15);
  for (int c = 0; c < 8; ++c) {
    EXPECT_EQ(act.vf_levels[c], vf.max_level());
  }
}

TEST(Fuzzy, DvfsCapacityCoversDemand) {
  const auto vf = power::VfTable::ultrasparc_t1();
  FuzzyFlowDvfsPolicy pol(8, vf, 16, celsius_to_kelvin(85.0));
  for (double demand : {0.1, 0.3, 0.5, 0.7, 0.95}) {
    const auto act = decide(pol, inputs_at(55.0, 8, demand));
    for (int c = 0; c < 8; ++c) {
      EXPECT_GE(vf.speed_scale(act.vf_levels[c]) + 1e-12,
                std::min(1.0, demand))
          << "demand " << demand;
    }
  }
}

TEST(Fuzzy, PumpSlewIsLimited) {
  const auto vf = power::VfTable::ultrasparc_t1();
  FuzzyFlowDvfsPolicy pol(8, vf, 16, celsius_to_kelvin(85.0));
  int prev = decide(pol, inputs_at(60.0, 8, 0.5)).pump_level;
  for (int i = 0; i < 30; ++i) {
    const double temp = (i % 2 == 0) ? 45.0 : 75.0;  // churn the input
    const int level = decide(pol, inputs_at(temp, 8, 0.5)).pump_level;
    EXPECT_LE(level - prev, 2);
    EXPECT_GE(level - prev, -1);
    prev = level;
  }
}

TEST(Fuzzy, FlowFractionExposedForDiagnostics) {
  const auto vf = power::VfTable::ultrasparc_t1();
  FuzzyFlowDvfsPolicy pol(8, vf, 16, celsius_to_kelvin(85.0));
  decide(pol, inputs_at(84.9, 8, 1.0));
  EXPECT_GE(pol.last_flow_fraction(), 0.0);
  EXPECT_LE(pol.last_flow_fraction(), 1.0);
}

}  // namespace
}  // namespace tac3d::control
