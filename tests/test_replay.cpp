// Limit-cycle fast-forward must be invisible in the results: a session
// that detects an exactly-periodic closed loop and replays journaled
// cycles (sim/replay.hpp) must finish with bitwise the metrics and the
// temperature field of the step-everything run — across solver kinds
// (only banded LU arms replay), the sweep runner, run_until calls that
// land mid control interval or mid replay cycle, and run_to_end calls
// that a stop flag ends at a boundary and another thread resumes. The trace
// periodicity probe (power::UtilizationTrace::period_hint) that arms
// the machinery is covered here too.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "power/trace.hpp"
#include "power/workloads.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"

namespace tac3d::sim {
namespace {

// --- trace periodicity probe ---------------------------------------------

/// A trace whose first \p period seconds are pseudo-random and tiled
/// bitwise over the rest.
power::UtilizationTrace tiled_trace(int threads, int seconds, int period) {
  power::UtilizationTrace tr("tiled", threads, seconds);
  for (int th = 0; th < threads; ++th) {
    for (int t = 0; t < seconds; ++t) {
      const int base = t % period;
      // A strict ramp over the period: no shorter hidden period.
      tr.set(th, t, 0.3 + 0.01 * base + 0.001 * th);
    }
  }
  return tr;
}

TEST(TracePeriodicity, DetectsExactPeriod) {
  const auto tr = tiled_trace(4, 40, 9);
  EXPECT_EQ(tr.period_hint(), 9);
}

TEST(TracePeriodicity, ConstantTraceHasPeriodOne) {
  power::UtilizationTrace tr("const", 3, 20);
  for (int th = 0; th < 3; ++th) {
    for (int t = 0; t < 20; ++t) tr.set(th, t, 0.4 + 0.01 * th);
  }
  EXPECT_EQ(tr.period_hint(), 1);
}

TEST(TracePeriodicity, AperiodicTraceReturnsZero) {
  power::UtilizationTrace tr("aperiodic", 2, 30);
  for (int th = 0; th < 2; ++th) {
    for (int t = 0; t < 30; ++t) {
      tr.set(th, t, 0.5 + 0.001 * (t * t % 101) + 0.1 * th);
    }
  }
  EXPECT_EQ(tr.period_hint(), 0);
}

TEST(TracePeriodicity, OneSampleOffMakesTraceAperiodic) {
  auto tr = tiled_trace(4, 40, 9);
  ASSERT_EQ(tr.period_hint(), 9);
  // Perturb a single sample in the last repetition by one part in 2^52
  // — far below any physical tolerance, but not bitwise equal.
  const double v = tr.at(2, 31);
  tr.set(2, 31, v * (1.0 + 1e-15));
  EXPECT_EQ(tr.period_hint(), 0);
}

TEST(TracePeriodicity, PeriodLongerThanHalfTheTraceDoesNotQualify) {
  // 24 s of an 18 s pattern: only 6 s of the repetition are visible, so
  // the probe must not claim an 18 s period (len/2 cap).
  const auto tr = tiled_trace(2, 24, 18);
  EXPECT_EQ(tr.period_hint(), 0);
}

TEST(TracePeriodicity, GeneratedPeriodicWorkloadIsDetected) {
  const auto tr = power::generate_workload(power::WorkloadKind::kPeriodic,
                                           32, 90, 7);
  EXPECT_EQ(tr.period_hint(), power::kPeriodicWorkloadSeconds);
}

TEST(TracePeriodicity, WindowsEqualComparesInclusiveAndClamped) {
  const auto tr = tiled_trace(4, 40, 9);
  EXPECT_TRUE(tr.windows_equal(9, 18, 9));
  EXPECT_TRUE(tr.windows_equal(0, 27, 9));
  EXPECT_FALSE(tr.windows_equal(0, 1, 9));
  // Past-the-end windows compare the held final sample: second 39 is a
  // genuine continuation of the tiling only when 39+j == 39 everywhere,
  // which the clamp breaks once the pattern would have moved on.
  EXPECT_FALSE(tr.windows_equal(27, 36, 9));
}

// --- scalar replay parity --------------------------------------------------

Scenario periodic_scenario(sparse::SolverKind kind,
                           PolicyKind policy = PolicyKind::kLcFuzzy) {
  Scenario s;
  s.tiers = 2;
  s.policy = policy;
  s.workload = power::WorkloadKind::kPeriodic;
  s.seed = 7;
  // The warm-up transient decays to bitwise recurrence at ~96 s on this
  // stack; the trace must run well past that for replay to engage.
  s.trace_seconds = 240;
  s.grid = thermal::GridOptions{8, 8};
  s.sim.solver = kind;
  return s;
}

struct RunOutcome {
  SimMetrics metrics;
  std::vector<double> temps;
  std::uint64_t cycles = 0;
  std::uint64_t steps = 0;
  std::uint64_t solves_skipped = 0;
};

RunOutcome run_full(const Scenario& s) {
  ScenarioInstance inst = instantiate(s);
  SimulationSession session = inst.session();
  session.run_to_end();
  const auto t = session.temperatures();
  return {session.metrics(),
          {t.begin(), t.end()},
          session.replay_cycles(),
          session.replay_steps(),
          session.replay_solves_skipped()};
}

void expect_same_outcome(const RunOutcome& a, const RunOutcome& b,
                         const std::string& what) {
  EXPECT_EQ(a.metrics.duration, b.metrics.duration) << what;
  EXPECT_EQ(a.metrics.peak_temp, b.metrics.peak_temp) << what;
  EXPECT_EQ(a.metrics.any_hot_time, b.metrics.any_hot_time) << what;
  EXPECT_EQ(a.metrics.chip_energy, b.metrics.chip_energy) << what;
  EXPECT_EQ(a.metrics.pump_energy, b.metrics.pump_energy) << what;
  EXPECT_EQ(a.metrics.offered_work, b.metrics.offered_work) << what;
  EXPECT_EQ(a.metrics.lost_work, b.metrics.lost_work) << what;
  EXPECT_EQ(a.metrics.avg_flow_fraction, b.metrics.avg_flow_fraction)
      << what;
  EXPECT_EQ(a.metrics.migrations, b.metrics.migrations) << what;
  EXPECT_EQ(a.metrics.core_hot_time, b.metrics.core_hot_time) << what;
  ASSERT_EQ(a.temps.size(), b.temps.size()) << what;
  for (std::size_t i = 0; i < a.temps.size(); ++i) {
    ASSERT_EQ(a.temps[i], b.temps[i]) << what << " node " << i;
  }
}

class ReplayParityTest : public ::testing::TestWithParam<sparse::SolverKind> {
};

TEST_P(ReplayParityTest, ReplayOnMatchesStepEverythingBitwise) {
  const Scenario on = periodic_scenario(GetParam());
  Scenario off = on;
  off.sim.limit_cycle_replay = false;

  const RunOutcome replayed = run_full(on);
  const RunOutcome stepped = run_full(off);
  expect_same_outcome(replayed, stepped, "replay on vs off");
  EXPECT_EQ(stepped.cycles, 0u);
  EXPECT_EQ(stepped.solves_skipped, 0u);
  // Banded LU is a pure function of the operator values and locks once
  // warm; ILU(0) carries history between steps and is never armed.
  const bool direct = GetParam() == sparse::SolverKind::kBandedLu;
  EXPECT_EQ(replayed.cycles > 0, direct);
  EXPECT_EQ(replayed.solves_skipped > 0, direct);
}

TEST_P(ReplayParityTest, RunUntilMidIntervalAndMidCycleResumesBitwise) {
  const Scenario s = periodic_scenario(GetParam());

  ScenarioInstance ref_inst = instantiate(s);
  SimulationSession ref = ref_inst.session();
  ref.run_to_end();

  // Stops straddling a control interval (13.1, 181.7), replay-cycle
  // interiors once the loop is locked (170.0, 181.7), and an aligned
  // cycle boundary (204.0). run_until steps/replays to the first state
  // at or past the stop; each resume must continue the exact trajectory.
  ScenarioInstance inst = instantiate(s);
  SimulationSession chopped = inst.session();
  int taken = 0;
  for (const double t : {13.1, 170.0, 181.7, 204.0}) {
    taken += chopped.run_until(t);
    EXPECT_GE(chopped.time(), t - 1e-9);
    EXPECT_LE(chopped.time(), t + 0.25 + 1e-9);
  }
  taken += chopped.run_to_end();
  EXPECT_EQ(taken, chopped.steps_done());
  // Banded stops landed inside replay; ILU(0) never replays.
  EXPECT_EQ(chopped.replay_steps() > 0,
            GetParam() == sparse::SolverKind::kBandedLu);

  EXPECT_EQ(ref.steps_done(), chopped.steps_done());
  const auto a = ref.temperatures();
  const auto b = chopped.temperatures();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "node " << i;
  }
  const SimMetrics ma = ref.metrics();
  const SimMetrics mb = chopped.metrics();
  EXPECT_EQ(ma.chip_energy, mb.chip_energy);
  EXPECT_EQ(ma.pump_energy, mb.pump_energy);
  EXPECT_EQ(ma.peak_temp, mb.peak_temp);
  EXPECT_EQ(ma.offered_work, mb.offered_work);
  EXPECT_EQ(ma.lost_work, mb.lost_work);
  EXPECT_EQ(ma.migrations, mb.migrations);
  EXPECT_EQ(ma.core_hot_time, mb.core_hot_time);
}

TEST_P(ReplayParityTest, RunToEndStopFlagPausesAtBoundariesBitwise) {
  const Scenario s = periodic_scenario(GetParam());
  const RunOutcome ref = run_full(s);

  ScenarioInstance inst = instantiate(s);
  SimulationSession session = inst.session();
  // A raised flag returns before the first step.
  const std::atomic<bool> stop{true};
  EXPECT_EQ(session.run_to_end(&stop), 0);
  EXPECT_EQ(session.steps_done(), 0);

  // Each turn resumes on a fresh thread: run_to_end fast-forwards what
  // replay allows and stops at the next boundary, then one step moves
  // past it. Put down and picked up at every boundary, the run is
  // bitwise the straight one.
  int taken = 0;
  while (!session.done()) {
    std::thread([&] {
      taken += session.run_to_end(&stop);
      if (session.done()) return;
      session.step();
      ++taken;
    }).join();
  }
  EXPECT_EQ(taken, session.steps_done());
  EXPECT_EQ(session.replay_steps() > 0,
            GetParam() == sparse::SolverKind::kBandedLu);
  const auto t = session.temperatures();
  expect_same_outcome({session.metrics(),
                       {t.begin(), t.end()},
                       session.replay_cycles(),
                       session.replay_steps(),
                       session.replay_solves_skipped()},
                      ref, "stopped at every boundary vs straight");
}

INSTANTIATE_TEST_SUITE_P(
    AllSolverKinds, ReplayParityTest,
    ::testing::Values(sparse::SolverKind::kBandedLu,
                      sparse::SolverKind::kBicgstabIlu0));

// --- a true fixed point ----------------------------------------------------

std::shared_ptr<const power::UtilizationTrace> constant_trace(
    int seconds, double base = 0.45) {
  auto tr =
      std::make_shared<power::UtilizationTrace>("const", 32, seconds);
  for (int th = 0; th < 32; ++th) {
    for (int t = 0; t < seconds; ++t) {
      tr->set(th, t, base + 0.01 * (th % 4));
    }
  }
  return tr;
}

Scenario constant_scenario(sparse::SolverKind kind, double base = 0.45) {
  Scenario s;
  s.tiers = 2;
  s.policy = PolicyKind::kLcLb;
  s.trace = constant_trace(60, base);
  s.trace_seconds = 60;
  s.grid = thermal::GridOptions{8, 8};
  s.sim.solver = kind;
  return s;
}

class ConstantTraceReplayTest
    : public ::testing::TestWithParam<sparse::SolverKind> {};

TEST_P(ConstantTraceReplayTest, OnlyTheDirectSolverLocksOnFixedPoint) {
  // A constant trace drives the loop to an exact fixed point: the direct
  // solver locks there, the unarmed iterative one steps on, and both
  // stay bitwise the step-everything run.
  const Scenario on = constant_scenario(GetParam());
  Scenario off = on;
  off.sim.limit_cycle_replay = false;

  const RunOutcome replayed = run_full(on);
  const RunOutcome stepped = run_full(off);
  expect_same_outcome(replayed, stepped, "constant trace replay");
  const bool direct = GetParam() == sparse::SolverKind::kBandedLu;
  EXPECT_EQ(replayed.cycles > 0, direct);
  EXPECT_EQ(replayed.solves_skipped > 0, direct);
}

INSTANTIATE_TEST_SUITE_P(
    AllSolverKinds, ConstantTraceReplayTest,
    ::testing::Values(sparse::SolverKind::kBandedLu,
                      sparse::SolverKind::kBicgstabIlu0));

// --- batched lanes ---------------------------------------------------------

TEST(BatchedReplay, PeriodicSweepMatchesReplayOffSweep) {
  // End to end through the sweep runner: periodic banded scenarios on
  // the scalar path and constant-trace ILU(0) ones in a batched job,
  // replay on vs off — identical results, replay telemetry in the
  // SweepResult rows, and replayed steps only on the banded rows.
  std::vector<Scenario> scenarios = {
      periodic_scenario(sparse::SolverKind::kBandedLu),
      periodic_scenario(sparse::SolverKind::kBandedLu, PolicyKind::kLcLb),
      constant_scenario(sparse::SolverKind::kBicgstabIlu0, 0.45),
      constant_scenario(sparse::SolverKind::kBicgstabIlu0, 0.55),
  };

  SweepOptions opts;
  opts.jobs = 1;
  const SweepReport on = run_sweep(scenarios, opts);

  std::vector<Scenario> off_scenarios = scenarios;
  for (Scenario& s : off_scenarios) s.sim.limit_cycle_replay = false;
  const SweepReport off = run_sweep(off_scenarios, opts);

  ASSERT_TRUE(on.all_ok());
  ASSERT_TRUE(off.all_ok());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const std::string what = on.at(i).scenario.label;
    EXPECT_EQ(on.at(i).metrics.chip_energy, off.at(i).metrics.chip_energy)
        << what;
    EXPECT_EQ(on.at(i).metrics.peak_temp, off.at(i).metrics.peak_temp)
        << what;
    EXPECT_EQ(on.at(i).metrics.migrations, off.at(i).metrics.migrations)
        << what;
    EXPECT_EQ(off.at(i).replay_solves_skipped, 0u) << what;
    EXPECT_EQ(on.at(i).replay_steps > 0,
              scenarios[i].sim.solver == sparse::SolverKind::kBandedLu)
        << what;
  }
  EXPECT_GT(on.replay_cycles_total(), 0u);
  EXPECT_GT(on.replay_steps_total(), 0u);
  EXPECT_GT(on.replay_solves_skipped_total(), 0u);
}

TEST(Replay, ConfigOffNeverEngages) {
  Scenario s = periodic_scenario(sparse::SolverKind::kBandedLu);
  s.sim.limit_cycle_replay = false;
  const RunOutcome r = run_full(s);
  EXPECT_EQ(r.cycles, 0u);
  EXPECT_EQ(r.steps, 0u);
  EXPECT_EQ(r.solves_skipped, 0u);
}

}  // namespace
}  // namespace tac3d::sim
