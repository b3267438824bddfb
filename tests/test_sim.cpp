// Tests of the simulation layer: scheduler load balancing, metrics
// arithmetic, and short closed-loop runs of the engine.
#include <gtest/gtest.h>

#include <numeric>

#include "common/error.hpp"
#include "common/units.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/scheduler.hpp"

namespace tac3d::sim {
namespace {

TEST(Scheduler, InitialPlacementIsRoundRobin) {
  Scheduler s(8, 4, 4);
  for (int t = 0; t < 8; ++t) {
    EXPECT_EQ(s.placement()[t], t % 4);
  }
}

TEST(Scheduler, BalancesSkewedLoad) {
  Scheduler s(8, 2, 4, 0.1);
  // All the work initially lands on threads of core 0.
  std::vector<double> demand{1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0};
  const auto q = s.balance(demand);
  EXPECT_NEAR(q[0], q[1], 0.3);
  EXPECT_GT(s.migrations(), 0);
}

TEST(Scheduler, NoMigrationWhenBalanced) {
  Scheduler s(8, 4, 4, 0.25);
  std::vector<double> demand(8, 0.5);
  s.balance(demand);
  EXPECT_EQ(s.migrations(), 0);
}

TEST(Scheduler, CoreDemandIsNormalizedAndCapped) {
  Scheduler s(8, 2, 4);
  std::vector<double> demand(8, 1.0);  // 4 threads/core, all saturated
  const auto q = s.balance(demand);
  for (double d : q) {
    EXPECT_LE(d, 1.0);
    EXPECT_GE(d, 0.9);
  }
}

TEST(Scheduler, ConservesTotalDemandBelowCap) {
  Scheduler s(16, 4, 4, 0.2);
  std::vector<double> demand(16);
  for (int t = 0; t < 16; ++t) demand[t] = 0.1 + 0.05 * (t % 5);
  const auto q = s.balance(demand);
  const double total_threads =
      std::accumulate(demand.begin(), demand.end(), 0.0);
  const double total_cores = std::accumulate(q.begin(), q.end(), 0.0) * 4.0;
  EXPECT_NEAR(total_cores, total_threads, 1e-9);
}

TEST(Scheduler, RejectsBadConfiguration) {
  EXPECT_THROW(Scheduler(0, 2, 4), InvalidArgument);
  EXPECT_THROW(Scheduler(8, 2, 4, 0.0), InvalidArgument);
  Scheduler s(4, 2, 4);
  std::vector<double> wrong(3, 0.5);
  EXPECT_THROW(s.balance(wrong), InvalidArgument);
}

TEST(Metrics, DerivedQuantities) {
  SimMetrics m;
  m.duration = 100.0;
  m.core_hot_time = {50.0, 0.0, 25.0, 25.0};
  m.any_hot_time = 60.0;
  m.chip_energy = 500.0;
  m.pump_energy = 100.0;
  m.offered_work = 200.0;
  m.lost_work = 10.0;
  EXPECT_DOUBLE_EQ(m.hotspot_frac_avg_core(), 0.25);
  EXPECT_DOUBLE_EQ(m.hotspot_frac_any(), 0.6);
  EXPECT_DOUBLE_EQ(m.system_energy(), 600.0);
  EXPECT_DOUBLE_EQ(m.perf_degradation(), 0.05);
}

TEST(Metrics, EmptyMetricsAreZero) {
  const SimMetrics m;
  EXPECT_DOUBLE_EQ(m.hotspot_frac_avg_core(), 0.0);
  EXPECT_DOUBLE_EQ(m.hotspot_frac_any(), 0.0);
  EXPECT_DOUBLE_EQ(m.perf_degradation(), 0.0);
}

// --- closed-loop engine ---------------------------------------------------

Scenario quick_spec(int tiers, PolicyKind policy,
                    power::WorkloadKind workload) {
  Scenario spec;
  spec.tiers = tiers;
  spec.policy = policy;
  spec.workload = workload;
  spec.trace_seconds = 40;
  spec.grid = thermal::GridOptions{12, 12};
  spec.sim.control_dt = 0.25;
  return spec;
}

TEST(Engine, MetricsAreConsistent) {
  const auto m = run_scenario(quick_spec(2, PolicyKind::kLcFuzzy,
                                         power::WorkloadKind::kWebServer));
  EXPECT_NEAR(m.duration, 39.0, 1.5);
  EXPECT_GT(m.chip_energy, 0.0);
  EXPECT_GT(m.pump_energy, 0.0);
  EXPECT_GE(m.offered_work, m.lost_work);
  EXPECT_GT(m.peak_temp, celsius_to_kelvin(27.0));
  EXPECT_GE(m.avg_flow_fraction, 0.0);
  EXPECT_LE(m.avg_flow_fraction, 1.0);
}

TEST(Engine, AirCooledRunsHaveNoPumpEnergy) {
  const auto m = run_scenario(quick_spec(2, PolicyKind::kAcLb,
                                         power::WorkloadKind::kWebServer));
  EXPECT_DOUBLE_EQ(m.pump_energy, 0.0);
  EXPECT_DOUBLE_EQ(m.avg_flow_fraction, 0.0);
}

TEST(Engine, LiquidCoolingIsColderThanAir) {
  const auto ac = run_scenario(quick_spec(2, PolicyKind::kAcLb,
                                          power::WorkloadKind::kDatabase));
  const auto lc = run_scenario(quick_spec(2, PolicyKind::kLcLb,
                                          power::WorkloadKind::kDatabase));
  EXPECT_LT(lc.peak_temp, ac.peak_temp - 10.0);
  EXPECT_DOUBLE_EQ(lc.hotspot_frac_any(), 0.0);
}

TEST(Engine, FuzzySavesPumpEnergyVersusMaxFlow) {
  const auto lb = run_scenario(quick_spec(2, PolicyKind::kLcLb,
                                          power::WorkloadKind::kWebServer));
  const auto fz = run_scenario(quick_spec(2, PolicyKind::kLcFuzzy,
                                          power::WorkloadKind::kWebServer));
  EXPECT_LT(fz.pump_energy, 0.85 * lb.pump_energy);
  EXPECT_LT(fz.peak_temp, celsius_to_kelvin(85.0));  // threshold held
  EXPECT_LT(fz.perf_degradation(), 1e-4);            // < 0.01%
}

TEST(Engine, MaxFlowPolicyKeepsPumpAtMaximum) {
  const auto m = run_scenario(quick_spec(4, PolicyKind::kLcLb,
                                         power::WorkloadKind::kMixed));
  EXPECT_NEAR(m.avg_flow_fraction, 1.0, 1e-9);
}

TEST(Engine, RejectsMismatchedTraceWidth) {
  arch::Mpsoc3D soc(arch::Mpsoc3D::Options{
      2, arch::CoolingKind::kLiquidCooled, thermal::GridOptions{8, 8},
      arch::NiagaraConfig::paper()});
  const auto trace = power::generate_workload(
      power::WorkloadKind::kIdle, 7 /* != 32 threads */, 10, 1);
  const auto pump = microchannel::PumpModel::table1();
  const auto policy = make_policy(PolicyKind::kLcLb, soc, pump);
  EXPECT_THROW(simulate(soc, trace, *policy), InvalidArgument);
}

TEST(Engine, StepCountPastIntRangeThrowsInsteadOfWrapping) {
  Scenario spec = quick_spec(2, PolicyKind::kLcLb,
                             power::WorkloadKind::kWebServer);
  spec.grid = thermal::GridOptions{8, 8};
  // 5e8 s at 0.25 s is 2e9 intervals, which an int still holds.
  spec.sim.duration = 5e8;
  EXPECT_EQ(control_steps(spec.sim, spec.trace_seconds), 2e9);
  // 1e12 s is 4e12 intervals: the count would wrap to 1385447424.
  spec.sim.duration = 1e12;
  EXPECT_EQ(control_steps(spec.sim, spec.trace_seconds), 4e12);
  ScenarioInstance inst = instantiate(spec);
  EXPECT_THROW(inst.session(), InvalidArgument);
  // The whole trace at a vanishing control interval overflows too.
  spec.sim.duration = 0.0;
  spec.sim.control_dt = 1e-300;
  inst = instantiate(spec);
  EXPECT_THROW(inst.session(), InvalidArgument);
}

TEST(Experiment, LabelsAndCoolingMapping) {
  EXPECT_EQ(policy_label(PolicyKind::kAcLb), "AC_LB");
  EXPECT_EQ(policy_label(PolicyKind::kLcFuzzy), "LC_FUZZY");
  EXPECT_EQ(cooling_for(PolicyKind::kAcTdvfsLb),
            arch::CoolingKind::kAirCooled);
  EXPECT_EQ(cooling_for(PolicyKind::kLcLb),
            arch::CoolingKind::kLiquidCooled);
}

TEST(Experiment, DeterministicForSameSeed) {
  const auto a = run_scenario(quick_spec(2, PolicyKind::kLcFuzzy,
                                         power::WorkloadKind::kMixed));
  const auto b = run_scenario(quick_spec(2, PolicyKind::kLcFuzzy,
                                         power::WorkloadKind::kMixed));
  EXPECT_DOUBLE_EQ(a.chip_energy, b.chip_energy);
  EXPECT_DOUBLE_EQ(a.peak_temp, b.peak_temp);
  EXPECT_EQ(a.migrations, b.migrations);
}

}  // namespace
}  // namespace tac3d::sim
