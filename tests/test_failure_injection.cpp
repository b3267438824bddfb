// Failure-injection tests: what happens when the cooling or control
// subsystem misbehaves — and, for the sweep service, when clients do.
// A thermally-aware design must degrade loudly (threshold violations
// surface in the metrics), not silently; a serving deployment must
// contain each fault to the client that caused it.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "arch/mpsoc.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "control/policy.hpp"
#include "power/workloads.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "thermal/transient.hpp"

namespace tac3d {
namespace {

/// A policy wrapper that simulates a stuck pump: whatever the wrapped
/// policy commands, the pump stays at a fixed level.
class StuckPumpPolicy final : public control::ThermalPolicy {
 public:
  StuckPumpPolicy(std::unique_ptr<control::ThermalPolicy> inner,
                  int stuck_level)
      : inner_(std::move(inner)), stuck_level_(stuck_level) {}

  control::PolicyActions decide(const control::PolicyInputs& in) override {
    auto act = inner_->decide(in);
    act.pump_level = stuck_level_;
    return act;
  }
  std::string name() const override { return inner_->name() + "+stuck"; }

 private:
  std::unique_ptr<control::ThermalPolicy> inner_;
  int stuck_level_;
};

arch::Mpsoc3D make_soc(int tiers) {
  return arch::Mpsoc3D(arch::Mpsoc3D::Options{
      tiers, arch::CoolingKind::kLiquidCooled, thermal::GridOptions{12, 12},
      arch::NiagaraConfig::paper()});
}

TEST(FailureInjection, PumpStuckAtMinimumViolatesThresholdVisibly) {
  auto soc = make_soc(2);
  const auto pump = microchannel::PumpModel::table1(16);
  auto inner = std::make_unique<control::MaxPerformancePolicy>(
      8, soc.chip().vf, pump.levels() - 1);
  StuckPumpPolicy policy(std::move(inner), 0);  // stuck at minimum

  const auto trace =
      power::generate_workload(power::WorkloadKind::kMaxUtil, 32, 40, 1);
  sim::SimulationConfig cfg;
  cfg.pump = pump;
  const auto m = sim::simulate(soc, trace, policy, cfg);

  // The failure is *visible*: hot spots accumulate in the metrics.
  EXPECT_GT(kelvin_to_celsius(m.peak_temp), 85.0);
  EXPECT_GT(m.hotspot_frac_any(), 0.3);
  // And the pump energy reflects the stuck (minimum) setting.
  EXPECT_NEAR(m.avg_flow_fraction, pump.q_min() / pump.q_max(), 1e-6);
}

TEST(FailureInjection, FuzzyCompensatesASinglePumpGlitch) {
  // A one-interval glitch (pump forced low once) must not leave a
  // lasting thermal violation when the fuzzy controller resumes.
  auto soc = make_soc(2);
  const auto pump = microchannel::PumpModel::table1(16);
  control::FuzzyFlowDvfsPolicy fuzzy(8, soc.chip().vf, pump.levels(),
                                     celsius_to_kelvin(85.0));

  // Drive manually: 20 s normal, one glitch, 20 s recovery.
  const auto trace =
      power::generate_workload(power::WorkloadKind::kMaxUtil, 32, 60, 1);
  soc.model().set_all_flows(pump.q_max());
  std::vector<arch::CoreState> cores(8, {1.0, soc.chip().vf.max_level()});
  std::vector<double> temps = soc.leakage_consistent_steady(cores, 3);
  thermal::TransientSolver sim(soc.model(), 0.25);
  sim.set_state(temps);

  double peak_after_recovery = 0.0;
  for (int s = 0; s < 160; ++s) {
    control::PolicyInputs in;
    in.core_temps.resize(8);
    for (int c = 0; c < 8; ++c) {
      in.core_temps[c] = soc.core_temp(sim.temperatures(), c);
    }
    in.core_demands.assign(8, 1.0);
    in.dt = 0.25;
    auto act = fuzzy.decide(in);
    if (s == 80) act.pump_level = 0;  // the glitch
    soc.model().set_all_flows(pump.flow_per_cavity(act.pump_level));
    for (int c = 0; c < 8; ++c) cores[c].vf_level = act.vf_levels[c];
    soc.model().set_element_powers(
        soc.element_powers(cores, sim.temperatures()));
    sim.step();
    if (s > 120) {
      peak_after_recovery = std::max(
          peak_after_recovery, soc.max_core_temp(sim.temperatures()));
    }
  }
  EXPECT_LT(kelvin_to_celsius(peak_after_recovery), 85.0);
}

TEST(FailureInjection, LeakageClampPreventsNumericalRunaway) {
  // Even a 4-tier air-cooled stack at full power must reach a bounded
  // steady state (the leakage clamp is the physical/numerical guard).
  arch::Mpsoc3D soc(arch::Mpsoc3D::Options{
      4, arch::CoolingKind::kAirCooled, thermal::GridOptions{12, 12},
      arch::NiagaraConfig::paper()});
  std::vector<arch::CoreState> cores(8, {1.0, soc.chip().vf.max_level()});
  double prev_peak = 0.0;
  for (int iters = 1; iters <= 12; iters += 4) {
    const auto temps = soc.leakage_consistent_steady(cores, iters);
    const double peak = soc.model().max_temperature(temps);
    EXPECT_TRUE(std::isfinite(peak));
    EXPECT_LT(kelvin_to_celsius(peak), 300.0);
    prev_peak = peak;
  }
  EXPECT_GT(kelvin_to_celsius(prev_peak), 140.0);  // still catastrophic
}

TEST(FailureInjection, ZeroFlowLiquidStackStillSolvesTransient) {
  // Pump fully off: the advection terms vanish but the transient system
  // (C/dt + G) remains well-posed; temperatures climb monotonically.
  auto soc = make_soc(2);
  soc.model().set_all_flows(0.0);
  std::vector<arch::CoreState> cores(8, {1.0, soc.chip().vf.max_level()});
  thermal::TransientSolver sim(soc.model(), 0.25);
  soc.model().set_element_powers(soc.element_powers(cores, {}));
  double prev = soc.max_core_temp(sim.temperatures());
  for (int s = 0; s < 20; ++s) {
    sim.step();
    const double cur = soc.max_core_temp(sim.temperatures());
    EXPECT_GE(cur, prev - 1e-9);
    EXPECT_TRUE(std::isfinite(cur));
    prev = cur;
  }
  EXPECT_GT(prev, celsius_to_kelvin(60.0));  // heating up fast
}

// --- sweep-service fault containment --------------------------------------

/// A small scenario the service can run in well under a second.
sim::Scenario quick_service_scenario(int seed = 1) {
  sim::Scenario s;
  s.tiers = 2;
  s.policy = sim::PolicyKind::kLcFuzzy;
  s.workload = power::WorkloadKind::kWebServer;
  s.trace_seconds = 20;
  s.seed = static_cast<std::uint64_t>(seed);
  s.grid = thermal::GridOptions{10, 10};
  return s;
}

TEST(FailureInjection, ServiceClientDisconnectCancelsOnlyItsJobs) {
  service::ServerOptions opts;
  opts.service.core_budget = 1;  // serialize: victim's sweep holds the core
  service::ServiceServer server(opts);
  server.start();

  // The victim submits a long sweep (many distinct seeds) and vanishes.
  service::ServiceClient victim;
  victim.connect("127.0.0.1", server.port());
  std::vector<sim::Scenario> long_sweep;
  for (int i = 0; i < 24; ++i) long_sweep.push_back(quick_service_scenario(i));
  const auto victim_ack = victim.submit_sweep(long_sweep, 1);
  EXPECT_EQ(victim_ack.admitted, 1);

  // A bystander queues work behind it on its own connection.
  service::ServiceClient bystander;
  bystander.connect("127.0.0.1", server.port());
  const auto bystander_ack =
      bystander.submit_sweep({quick_service_scenario(100)}, 1);
  EXPECT_EQ(bystander_ack.admitted, 0);  // budget 1: queued behind victim

  victim.close();  // mid-sweep disconnect

  // The bystander's job must still complete, and soon: the victim's
  // pending scenarios were cancelled rather than ground through.
  const service::SweepOutcome out = bystander.collect(bystander_ack.job_id);
  EXPECT_FALSE(out.complete.was_cancelled);
  EXPECT_EQ(out.complete.completed, 1u);
  ASSERT_EQ(out.results.size(), 1u);
  EXPECT_TRUE(out.results[0].ok) << out.results[0].error;

  // The server's books show the victim's cancellation.
  const auto status = bystander.query_status();
  EXPECT_GT(status.scenarios_cancelled, 0u);
  EXPECT_EQ(status.active_jobs, 0u);
  EXPECT_EQ(status.queued_jobs, 0u);

  server.stop();
}

TEST(FailureInjection, ServiceDrainFinishesInFlightWork) {
  service::ServerOptions opts;
  opts.service.core_budget = 2;
  service::ServiceServer server(opts);
  server.start();

  service::ServiceClient client;
  client.connect("127.0.0.1", server.port());
  std::vector<sim::Scenario> sweep;
  for (int i = 0; i < 4; ++i) sweep.push_back(quick_service_scenario(i));
  const auto ack = client.submit_sweep(sweep, 2);
  EXPECT_EQ(ack.admitted, 1);

  // Drain while the sweep runs: accepted work must finish, not be cut.
  client.request_drain();
  const service::SweepOutcome out = client.collect(ack.job_id);
  EXPECT_FALSE(out.complete.was_cancelled);
  EXPECT_EQ(out.complete.completed, 4u);
  EXPECT_EQ(out.complete.cancelled, 0u);

  const auto done = client.wait_drain_complete();
  EXPECT_GE(done.scenarios_finished, 4u);
  server.wait();
  EXPECT_FALSE(server.running());
}

TEST(FailureInjection, ServiceOverBudgetRequestIsQueuedNotRefused) {
  service::ServerOptions opts;
  opts.service.core_budget = 1;
  service::ServiceServer server(opts);
  server.start();

  service::ServiceClient client;
  client.connect("127.0.0.1", server.port());

  // First job takes the only core; the second asks for more cores than
  // the budget even has — it must be admitted-later, never rejected
  // (the admission queue is the backpressure).
  const auto first = client.submit_sweep(
      {quick_service_scenario(1), quick_service_scenario(2)}, 1);
  EXPECT_EQ(first.admitted, 1);
  const auto second = client.submit_sweep(
      {quick_service_scenario(3), quick_service_scenario(4)}, 8);
  EXPECT_EQ(second.admitted, 0);
  EXPECT_EQ(second.queue_position, 0u);  // head of the admission queue

  const service::SweepOutcome out1 = client.collect(first.job_id);
  const service::SweepOutcome out2 = client.collect(second.job_id);
  EXPECT_EQ(out1.complete.completed, 2u);
  EXPECT_EQ(out2.complete.completed, 2u);
  EXPECT_FALSE(out2.complete.was_cancelled);

  server.stop();
}

TEST(FailureInjection, ServiceScenarioErrorDoesNotPoisonOtherClients) {
  service::ServerOptions opts;
  opts.service.core_budget = 2;
  service::ServiceServer server(opts);
  server.start();

  // Client A submits a sweep whose middle scenario is invalid in a way
  // only the stack builder sees (a tier count other than 2 or 4 — the
  // bank-layer forcing idiom; decode rejects a non-positive control
  // interval for the whole request, with the request's tag).
  service::ServiceClient poisoned;
  poisoned.connect("127.0.0.1", server.port());
  std::vector<sim::Scenario> bad_sweep = {quick_service_scenario(1),
                                          quick_service_scenario(2),
                                          quick_service_scenario(3)};
  std::vector<sim::Scenario> undecodable = bad_sweep;
  undecodable[1].sim.control_dt = -1.0;
  EXPECT_THROW(poisoned.submit_sweep(undecodable, 1, 7), Error);
  bad_sweep[1].tiers = 3;
  const auto bad_ack = poisoned.submit_sweep(bad_sweep, 1);

  // Client B runs a clean sweep concurrently.
  service::ServiceClient clean;
  clean.connect("127.0.0.1", server.port());
  const service::SweepOutcome clean_out =
      clean.run_sweep({quick_service_scenario(10),
                       quick_service_scenario(11)}, 1);
  EXPECT_EQ(clean_out.complete.completed, 2u);
  EXPECT_EQ(clean_out.complete.failed, 0u);
  for (const auto& r : clean_out.results) {
    EXPECT_TRUE(r.ok) << r.error;
  }

  // Client A gets a per-scenario error, not a dead job or connection.
  const service::SweepOutcome bad_out = poisoned.collect(bad_ack.job_id);
  EXPECT_EQ(bad_out.complete.completed, 2u);
  EXPECT_EQ(bad_out.complete.failed, 1u);
  EXPECT_FALSE(bad_out.complete.was_cancelled);
  ASSERT_EQ(bad_out.results.size(), 3u);
  for (const auto& r : bad_out.results) {
    if (r.index == 1) {
      EXPECT_FALSE(r.ok);
      EXPECT_FALSE(r.error.empty());
    } else {
      EXPECT_TRUE(r.ok) << r.error;
    }
  }

  // The connection survived: the same client can keep submitting.
  const service::SweepOutcome retry =
      poisoned.run_sweep({quick_service_scenario(1)}, 1);
  EXPECT_EQ(retry.complete.completed, 1u);

  server.stop();
}

}  // namespace
}  // namespace tac3d
