// Tests of the scenario subsystem: SimulationSession stepping vs the
// one-shot simulate() wrapper, ScenarioMatrix cartesian expansion
// (including the paper's seven Fig. 6/7 configurations), and the
// parallel sweep runner (determinism serial vs parallel, TAC3D_JOBS,
// error capture, report sorting).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "sim/sweep.hpp"

namespace tac3d::sim {
namespace {

/// A deliberately small scenario so the closed loop runs in milliseconds.
Scenario quick_scenario(int tiers = 2,
                        PolicyKind policy = PolicyKind::kLcFuzzy,
                        power::WorkloadKind workload =
                            power::WorkloadKind::kWebServer) {
  Scenario s;
  s.tiers = tiers;
  s.policy = policy;
  s.workload = workload;
  s.trace_seconds = 20;
  s.grid = thermal::GridOptions{10, 10};
  return s;
}

void expect_same_metrics(const SimMetrics& a, const SimMetrics& b,
                         const std::string& what) {
  // Bitwise equality: both paths must execute the identical arithmetic.
  EXPECT_EQ(a.duration, b.duration) << what;
  EXPECT_EQ(a.peak_temp, b.peak_temp) << what;
  EXPECT_EQ(a.any_hot_time, b.any_hot_time) << what;
  EXPECT_EQ(a.chip_energy, b.chip_energy) << what;
  EXPECT_EQ(a.pump_energy, b.pump_energy) << what;
  EXPECT_EQ(a.offered_work, b.offered_work) << what;
  EXPECT_EQ(a.lost_work, b.lost_work) << what;
  EXPECT_EQ(a.avg_flow_fraction, b.avg_flow_fraction) << what;
  EXPECT_EQ(a.migrations, b.migrations) << what;
  EXPECT_EQ(a.core_hot_time, b.core_hot_time) << what;
}

// --- SimulationSession ---------------------------------------------------

TEST(SimulationSession, StepwiseRunMatchesSimulateWrapper) {
  const Scenario spec = quick_scenario();

  ScenarioInstance one_shot = instantiate(spec);
  const SimMetrics reference = simulate(*one_shot.soc, *one_shot.trace,
                                        *one_shot.policy, one_shot.spec.sim);

  ScenarioInstance stepped = instantiate(spec);
  SimulationSession session = stepped.session();
  // Mixed driving styles: a few manual steps, a run_until, then the rest.
  session.step();
  session.step();
  session.run_until(10.0);
  session.run_to_end();

  expect_same_metrics(reference, session.metrics(), "stepwise vs simulate");
}

TEST(SimulationSession, ExposesMidRunState) {
  ScenarioInstance inst = instantiate(quick_scenario());
  SimulationSession session = inst.session();

  EXPECT_FALSE(session.done());
  EXPECT_EQ(session.steps_done(), 0);
  EXPECT_GT(session.total_steps(), 0);
  EXPECT_DOUBLE_EQ(session.time(), 0.0);
  EXPECT_FALSE(session.temperatures().empty());

  session.step();
  EXPECT_EQ(session.steps_done(), 1);
  EXPECT_DOUBLE_EQ(session.time(), session.config().control_dt);
  const SimMetrics mid = session.metrics();
  EXPECT_DOUBLE_EQ(mid.duration, session.config().control_dt);
  EXPECT_GT(mid.chip_energy, 0.0);
  EXPECT_GT(session.max_core_temp(), 273.15);
  EXPECT_GE(session.pump_level(), 0);  // liquid-cooled scenario

  const int taken = session.run_until(5.0);
  EXPECT_GT(taken, 0);
  EXPECT_NEAR(session.time(), 5.0, session.config().control_dt);

  session.run_to_end();
  EXPECT_TRUE(session.done());
  session.step();  // no-op past the end
  EXPECT_EQ(session.steps_done(), session.total_steps());
  EXPECT_DOUBLE_EQ(session.metrics().duration,
                   session.total_steps() * session.config().control_dt);
}

TEST(SimulationSession, RunUntilIsIdempotentPastTheEnd) {
  ScenarioInstance inst = instantiate(quick_scenario());
  SimulationSession session = inst.session();
  session.run_to_end();
  EXPECT_EQ(session.run_until(1e9), 0);
  EXPECT_EQ(session.run_to_end(), 0);
}

// --- ScenarioMatrix ------------------------------------------------------

TEST(ScenarioMatrix, ExpandsThePaperSevenConfigurations) {
  const auto scenarios = ScenarioMatrix::paper_fig67()
                             .workloads({power::WorkloadKind::kMaxUtil})
                             .trace_seconds(30)
                             .build();
  ASSERT_EQ(scenarios.size(), 7u);

  const std::vector<std::pair<int, PolicyKind>> expected = {
      {2, PolicyKind::kAcLb}, {2, PolicyKind::kAcTdvfsLb},
      {2, PolicyKind::kLcLb}, {2, PolicyKind::kLcFuzzy},
      {4, PolicyKind::kAcLb}, {4, PolicyKind::kLcLb},
      {4, PolicyKind::kLcFuzzy}};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(scenarios[i].tiers, expected[i].first) << i;
    EXPECT_EQ(scenarios[i].policy, expected[i].second) << i;
    EXPECT_EQ(scenarios[i].workload, power::WorkloadKind::kMaxUtil) << i;
    EXPECT_EQ(scenarios[i].trace_seconds, 30) << i;
    EXPECT_FALSE(scenarios[i].label.empty()) << i;
  }
  // The paper does not evaluate 4-tier AC_TDVFS_LB.
  for (const Scenario& s : scenarios) {
    EXPECT_FALSE(s.tiers == 4 && s.policy == PolicyKind::kAcTdvfsLb);
  }
}

TEST(ScenarioMatrix, CartesianExpansionCoversAllAxes) {
  const auto scenarios =
      ScenarioMatrix()
          .tiers({2, 4})
          .policies({PolicyKind::kLcLb})
          .workloads({power::WorkloadKind::kWebServer,
                      power::WorkloadKind::kDatabase})
          .seeds({1, 2, 3})
          .grid(thermal::GridOptions{8, 8})
          .trace_seconds(15)
          .build();
  EXPECT_EQ(scenarios.size(), 2u * 2u * 3u);
  std::vector<std::string> labels;
  for (const Scenario& s : scenarios) {
    EXPECT_EQ(s.grid.rows, 8);
    EXPECT_EQ(s.trace_seconds, 15);
    labels.push_back(s.label);
  }
  std::sort(labels.begin(), labels.end());
  EXPECT_EQ(std::unique(labels.begin(), labels.end()), labels.end())
      << "labels must be unique across the matrix";
}

TEST(ScenarioMatrix, FiltersCompose) {
  const auto scenarios =
      ScenarioMatrix::paper_fig67()
          .filter([](const Scenario& s) { return s.tiers == 2; })
          .build();
  EXPECT_EQ(scenarios.size(), 4u);
  for (const Scenario& s : scenarios) EXPECT_EQ(s.tiers, 2);
}

TEST(ScenarioMatrix, CoolingDefaultsFollowThePolicy) {
  Scenario s = quick_scenario(2, PolicyKind::kAcLb);
  EXPECT_EQ(s.effective_cooling(), arch::CoolingKind::kAirCooled);
  s.cooling = arch::CoolingKind::kLiquidCooled;
  EXPECT_EQ(s.effective_cooling(), arch::CoolingKind::kLiquidCooled);
}

// --- sweep runner --------------------------------------------------------

std::vector<Scenario> small_mixed_batch() {
  return {quick_scenario(2, PolicyKind::kLcFuzzy),
          quick_scenario(2, PolicyKind::kLcLb),
          quick_scenario(2, PolicyKind::kAcLb,
                         power::WorkloadKind::kDatabase),
          quick_scenario(4, PolicyKind::kLcFuzzy,
                         power::WorkloadKind::kMixed),
          quick_scenario(2, PolicyKind::kLcTdvfsLb),
          quick_scenario(2, PolicyKind::kAcTdvfsLb,
                         power::WorkloadKind::kMaxUtil)};
}

TEST(Sweep, SerialAndParallelRunsAreBitwiseIdentical) {
  const auto scenarios = small_mixed_batch();

  SweepOptions serial;
  serial.jobs = 1;
  const SweepReport a = run_sweep(scenarios, serial);

  SweepOptions parallel;
  parallel.jobs = 4;
  parallel.batch_width = 1;  // one scenario per job: all 4 workers engage
  const SweepReport b = run_sweep(scenarios, parallel);

  // Batched lockstep stepping (default auto width) groups same-pattern
  // scenarios into shared jobs — fewer jobs, same bits.
  SweepOptions batched;
  batched.jobs = 4;
  const SweepReport c = run_sweep(scenarios, batched);

  ASSERT_TRUE(a.all_ok());
  ASSERT_TRUE(b.all_ok());
  ASSERT_TRUE(c.all_ok());
  ASSERT_EQ(a.size(), scenarios.size());
  ASSERT_EQ(b.size(), scenarios.size());
  ASSERT_EQ(c.size(), scenarios.size());
  EXPECT_EQ(a.jobs_used(), 1);
  EXPECT_EQ(b.jobs_used(), 4);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.at(i).scenario.label, b.at(i).scenario.label) << i;
    expect_same_metrics(a.at(i).metrics, b.at(i).metrics,
                        a.at(i).scenario.label);
    expect_same_metrics(a.at(i).metrics, c.at(i).metrics,
                        a.at(i).scenario.label + " (batched)");
  }
}

TEST(Sweep, ResultsComeBackInInputOrder) {
  const auto scenarios = small_mixed_batch();
  const SweepReport report = run_sweep(scenarios, {.jobs = 3});
  ASSERT_EQ(report.size(), scenarios.size());
  for (std::size_t i = 0; i < report.size(); ++i) {
    EXPECT_EQ(report.at(i).index, i);
    EXPECT_EQ(report.at(i).scenario.label, scenario_label(scenarios[i]));
  }
}

TEST(Sweep, CapturesScenarioErrorsWithoutAborting) {
  auto scenarios = small_mixed_batch();
  scenarios.resize(2);
  scenarios[1].sim.control_dt = -1.0;  // run_scenario must throw
  const SweepReport report = run_sweep(scenarios, {.jobs = 2});
  ASSERT_EQ(report.size(), 2u);
  EXPECT_TRUE(report.at(0).ok());
  EXPECT_FALSE(report.at(1).ok());
  EXPECT_FALSE(report.at(1).error.empty());
  EXPECT_FALSE(report.all_ok());
  EXPECT_EQ(report.errors().size(), 1u);
}

TEST(Sweep, ReportSortsAndFinds) {
  auto scenarios = small_mixed_batch();
  scenarios.resize(3);
  SweepReport report = run_sweep(scenarios, {.jobs = 2});
  ASSERT_TRUE(report.all_ok());

  report.sort_by(
      [](const SweepResult& r) { return r.metrics.peak_temp; }, false);
  for (std::size_t i = 1; i < report.size(); ++i) {
    EXPECT_GE(report.at(i - 1).metrics.peak_temp,
              report.at(i).metrics.peak_temp);
  }
  report.sort_by_index();
  for (std::size_t i = 0; i < report.size(); ++i) {
    EXPECT_EQ(report.at(i).index, i);
  }

  const SweepResult* found = report.find(report.at(1).scenario.label);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->index, 1u);
  EXPECT_EQ(report.find("no such scenario"), nullptr);

  EXPECT_EQ(report.table().rows(), report.size());
}

TEST(Sweep, ResolveJobsHonorsEnvironment) {
  const char* saved = std::getenv("TAC3D_JOBS");
  const std::string saved_value = saved ? saved : "";

  EXPECT_EQ(resolve_jobs(5), 5);  // explicit request wins

  ::setenv("TAC3D_JOBS", "3", 1);
  EXPECT_EQ(resolve_jobs(0), 3);
  EXPECT_EQ(resolve_jobs(-1), 3);
  EXPECT_EQ(resolve_jobs(2), 2);  // explicit request still wins

  ::setenv("TAC3D_JOBS", "not-a-number", 1);
  EXPECT_GE(resolve_jobs(0), 1);  // falls back to hardware concurrency

  ::setenv("TAC3D_JOBS", "0", 1);
  EXPECT_GE(resolve_jobs(0), 1);

  if (saved) {
    ::setenv("TAC3D_JOBS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("TAC3D_JOBS");
  }
}

TEST(Sweep, EnvironmentVariablePinsWorkerCount) {
  const char* saved = std::getenv("TAC3D_JOBS");
  const std::string saved_value = saved ? saved : "";
  ::setenv("TAC3D_JOBS", "2", 1);

  auto scenarios = small_mixed_batch();
  scenarios.resize(3);
  const SweepReport report = run_sweep(scenarios);  // jobs = 0 -> env
  EXPECT_EQ(report.jobs_used(), 2);

  if (saved) {
    ::setenv("TAC3D_JOBS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("TAC3D_JOBS");
  }
}

}  // namespace
}  // namespace tac3d::sim
