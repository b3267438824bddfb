// Tests of the ScenarioBank: prepared / cloned sessions must be bitwise
// identical to from-scratch materialization across solver kinds, serial
// and parallel, bank on and off, also when the bank is gone before the
// session starts; the model tier must hand one symbolic structure to
// every session of a stack; the steady tier must miss whenever cooling
// or grid differ; the trace tier must be the one place equal traces are
// shared (ScenarioMatrix attaches none); and a bank shared across sweeps
// must stay warm (and neutral).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "arch/niagara.hpp"
#include "sim/bank.hpp"
#include "sim/sweep.hpp"
#include "thermal/transient.hpp"

namespace tac3d::sim {
namespace {

Scenario quick_scenario(int tiers = 2,
                        PolicyKind policy = PolicyKind::kLcFuzzy,
                        power::WorkloadKind workload =
                            power::WorkloadKind::kWebServer) {
  Scenario s;
  s.tiers = tiers;
  s.policy = policy;
  s.workload = workload;
  s.trace_seconds = 16;
  s.grid = thermal::GridOptions{8, 8};
  return s;
}

void expect_same_metrics(const SimMetrics& a, const SimMetrics& b,
                         const std::string& what) {
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

/// Run to the end and return (metrics, final temperature field).
std::pair<SimMetrics, std::vector<double>> run_session(
    SimulationSession session) {
  session.run_to_end();
  const auto temps = session.temperatures();
  return {session.metrics(), {temps.begin(), temps.end()}};
}

// --- bitwise neutrality --------------------------------------------------

TEST(ScenarioBank, PreparedSessionsMatchFromScratchAcrossSolverKinds) {
  for (const sparse::SolverKind kind :
       {sparse::SolverKind::kBicgstabIlu0, sparse::SolverKind::kBandedLu}) {
    for (const PolicyKind policy :
         {PolicyKind::kLcFuzzy, PolicyKind::kAcTdvfsLb}) {
      Scenario spec = quick_scenario(2, policy);
      spec.sim.solver = kind;
      const std::string what = scenario_label(spec) + " solver " +
                               std::to_string(static_cast<int>(kind));

      ScenarioInstance fresh = instantiate(spec);
      const auto [m_fresh, t_fresh] = run_session(fresh.session());

      ScenarioBank bank;
      ScenarioInstance prepared = bank.prepare(spec);
      const auto [m_prep, t_prep] = run_session(prepared.session());

      expect_same_metrics(m_fresh, m_prep, what);
      ASSERT_EQ(t_fresh.size(), t_prep.size()) << what;
      for (std::size_t i = 0; i < t_fresh.size(); ++i) {
        ASSERT_EQ(t_fresh[i], t_prep[i]) << what << " node " << i;
      }
    }
  }
}

TEST(ScenarioBank, SecondPreparationHitsEveryTierAndStaysBitwise) {
  const Scenario spec = quick_scenario();
  ScenarioBank bank;

  ScenarioInstance first = bank.prepare(spec);
  const auto [m1, t1] = run_session(first.session());
  const BankCounters after_first = bank.counters();
  EXPECT_EQ(after_first.trace_misses, 1u);
  EXPECT_EQ(after_first.model_misses, 1u);
  EXPECT_EQ(after_first.steady_misses, 1u);
  EXPECT_EQ(after_first.hits(), 0u);

  ScenarioInstance second = bank.prepare(spec);
  const auto [m2, t2] = run_session(second.session());
  const BankCounters after_second = bank.counters();
  EXPECT_EQ(after_second.trace_hits, 1u);
  EXPECT_EQ(after_second.model_hits, 1u);
  EXPECT_EQ(after_second.steady_hits, 1u);
  EXPECT_EQ(after_second.misses(), 3u);  // unchanged

  expect_same_metrics(m1, m2, "prepare twice");
  EXPECT_EQ(t1, t2);

  // The two prepared scenarios share the immutable artifacts but own
  // their mutable model clones.
  EXPECT_EQ(first.trace.get(), second.trace.get());
  EXPECT_NE(first.soc.get(), second.soc.get());
  ASSERT_NE(first.shared().structure, nullptr);
  ASSERT_NE(first.shared().initial, nullptr);
  EXPECT_EQ(first.shared().structure, second.shared().structure);
  EXPECT_EQ(first.shared().initial, second.shared().initial);
}

TEST(ScenarioBank, PreparedInstanceOutlivesItsBank) {
  // A prepared instance owns or co-owns everything its session reads, so
  // its session steps like the reference path after the bank is gone
  // (the sanitizer builds check every read).
  for (const sparse::SolverKind kind :
       {sparse::SolverKind::kBicgstabIlu0, sparse::SolverKind::kBandedLu}) {
    Scenario spec = quick_scenario();
    spec.sim.solver = kind;
    const std::string what =
        "solver " + std::to_string(static_cast<int>(kind));
    ScenarioInstance prepared = [&] {
      ScenarioBank bank;
      bank.prepare(spec);
      return bank.prepare(spec);  // every tier hits
    }();
    ScenarioInstance fresh = instantiate(spec);
    const auto [m_fresh, t_fresh] = run_session(fresh.session());
    const auto [m_prep, t_prep] = run_session(prepared.session());
    expect_same_metrics(m_fresh, m_prep, what);
    EXPECT_EQ(t_fresh, t_prep) << what;
  }
}

TEST(ScenarioBank, ModelTierSharesOneStructure) {
  // One symbolic analysis per model key serves every session of the key,
  // whatever its policy, solver kind or control interval: the operator
  // A = C/dt + G has G's pattern.
  const Scenario base = quick_scenario(2, PolicyKind::kLcLb);
  Scenario banded = quick_scenario(2, PolicyKind::kLcFuzzy);
  banded.sim.solver = sparse::SolverKind::kBandedLu;
  Scenario slower = base;
  slower.sim.control_dt = 0.5;
  Scenario other_grid = base;
  other_grid.grid = thermal::GridOptions{10, 10};
  const Scenario other_tiers = quick_scenario(4, PolicyKind::kLcLb);

  ScenarioBank bank;
  std::vector<ScenarioInstance> inst;
  std::vector<SimulationSession> sessions;
  for (const Scenario& s : {base, banded, slower, other_grid, other_tiers}) {
    inst.push_back(bank.prepare(s));
  }
  for (ScenarioInstance& i : inst) sessions.push_back(i.session());
  const auto structure_of = [&](std::size_t i) {
    return sessions[i].thermal_solver().structure();
  };
  ASSERT_NE(structure_of(0), nullptr);
  for (std::size_t i = 0; i < inst.size(); ++i) {
    EXPECT_EQ(structure_of(i), inst[i].shared().structure.get()) << i;
  }
  EXPECT_EQ(structure_of(1), structure_of(0));
  EXPECT_EQ(structure_of(2), structure_of(0));
  EXPECT_NE(structure_of(3), structure_of(0));
  EXPECT_NE(structure_of(4), structure_of(0));
  EXPECT_NE(structure_of(4), structure_of(3));
  EXPECT_EQ(bank.model_entries(), 3u);

  // The reference path shares nothing across sessions. An ILU(0)
  // session analyzes its pattern once, without the RCM ordering, for its
  // steady solve and its transient solver; a banded one leaves each
  // solver to analyze its own.
  ScenarioInstance fresh = instantiate(base);
  EXPECT_EQ(fresh.shared().structure, nullptr);
  EXPECT_EQ(fresh.shared().initial, nullptr);
  const SimulationSession own = fresh.session();
  const sparse::SymbolicStructure* own_structure =
      own.thermal_solver().structure();
  ASSERT_NE(own_structure, nullptr);
  EXPECT_NE(own_structure, structure_of(0));
  EXPECT_TRUE(own_structure->rcm_perm.empty());
  EXPECT_NE(own_structure->ilu_schedule, nullptr);
  EXPECT_NE(own_structure->sliced, nullptr);
  ScenarioInstance fresh_banded = instantiate(banded);
  EXPECT_EQ(fresh_banded.session().thermal_solver().structure(), nullptr);
}

// --- key discrimination --------------------------------------------------

TEST(ScenarioBank, SteadyTierMissesWhenCoolingOrGridDiffer) {
  ScenarioBank bank;
  const Scenario base = quick_scenario(2, PolicyKind::kLcLb);
  bank.prepare(base);

  Scenario other_grid = base;
  other_grid.grid = thermal::GridOptions{10, 10};
  bank.prepare(other_grid);

  Scenario other_cooling = base;
  other_cooling.cooling = arch::CoolingKind::kAirCooled;
  bank.prepare(other_cooling);

  const BankCounters c = bank.counters();
  EXPECT_EQ(c.steady_misses, 3u);
  EXPECT_EQ(c.steady_hits, 0u);
  EXPECT_EQ(c.model_misses, 3u);
  EXPECT_EQ(bank.steady_entries(), 3u);
  EXPECT_EQ(bank.model_entries(), 3u);
  // All three share the synthesized trace (same workload axes).
  EXPECT_EQ(bank.trace_entries(), 1u);
  EXPECT_EQ(c.trace_hits, 2u);

  // Keys spell the difference out directly.
  EXPECT_NE(scenario_steady_key(base), scenario_steady_key(other_grid));
  EXPECT_NE(scenario_steady_key(base), scenario_steady_key(other_cooling));
  EXPECT_EQ(scenario_steady_key(base), scenario_steady_key(base));
}

TEST(ScenarioBank, SteadyTierSharedAcrossPoliciesAndSolvers) {
  // The initial state is policy- and stepping-solver-independent: LC_LB
  // and LC_FUZZY on the same stack start from the same fixed point.
  ScenarioBank bank;
  Scenario a = quick_scenario(2, PolicyKind::kLcLb);
  Scenario b = quick_scenario(2, PolicyKind::kLcFuzzy);
  b.sim.solver = sparse::SolverKind::kBandedLu;
  bank.prepare(a);
  bank.prepare(b);
  const BankCounters c = bank.counters();
  EXPECT_EQ(c.steady_misses, 1u);
  EXPECT_EQ(c.steady_hits, 1u);
  EXPECT_EQ(c.model_hits, 1u);
}

// --- sweep integration ---------------------------------------------------

std::vector<Scenario> mixed_batch() {
  return {quick_scenario(2, PolicyKind::kLcFuzzy),
          quick_scenario(2, PolicyKind::kLcLb),
          quick_scenario(2, PolicyKind::kAcLb),
          quick_scenario(4, PolicyKind::kLcFuzzy,
                         power::WorkloadKind::kDatabase),
          quick_scenario(2, PolicyKind::kLcFuzzy)};  // exact repeat of [0]
}

TEST(ScenarioBank, SweepIsBitwiseIdenticalBankOnOffSerialParallel) {
  const auto scenarios = mixed_batch();

  SweepOptions off_serial;
  off_serial.jobs = 1;
  off_serial.use_bank = false;
  const SweepReport reference = run_sweep(scenarios, off_serial);
  ASSERT_TRUE(reference.all_ok());
  EXPECT_EQ(reference.bank(), nullptr);

  SweepOptions on_serial;
  on_serial.jobs = 1;
  const SweepReport bank_serial = run_sweep(scenarios, on_serial);

  SweepOptions off_parallel;
  off_parallel.jobs = 3;
  off_parallel.use_bank = false;
  const SweepReport plain_parallel = run_sweep(scenarios, off_parallel);

  SweepOptions on_parallel;
  on_parallel.jobs = 3;
  const SweepReport bank_parallel = run_sweep(scenarios, on_parallel);

  for (const SweepReport* r :
       {&bank_serial, &plain_parallel, &bank_parallel}) {
    ASSERT_TRUE(r->all_ok());
    ASSERT_EQ(r->size(), reference.size());
    for (std::size_t i = 0; i < r->size(); ++i) {
      expect_same_metrics(reference.at(i).metrics, r->at(i).metrics,
                          reference.at(i).scenario.label);
    }
  }

  ASSERT_NE(bank_serial.bank(), nullptr);
  const BankCounters c = bank_serial.bank()->counters();
  // Scenario [4] repeats [0] exactly; [1] shares its stack and start.
  EXPECT_GE(c.steady_hits, 2u);
  EXPECT_GE(c.model_hits, 2u);

  // The setup/stepping split is populated and consistent.
  for (const SweepResult& r : bank_serial.results()) {
    EXPECT_GT(r.setup_seconds, 0.0) << r.scenario.label;
    EXPECT_GT(r.stepping_seconds, 0.0) << r.scenario.label;
    EXPECT_DOUBLE_EQ(r.wall_seconds,
                     r.setup_seconds + r.stepping_seconds)
        << r.scenario.label;
  }
  EXPECT_GT(bank_serial.setup_fraction(), 0.0);
  EXPECT_LT(bank_serial.setup_fraction(), 1.0);
}

TEST(ScenarioBank, WarmBankKeepsArtifactsAcrossSweepsAndStaysNeutral) {
  const auto scenarios = mixed_batch();
  auto bank = std::make_shared<ScenarioBank>();

  SweepOptions opts;
  opts.jobs = 1;
  opts.bank = bank;
  const SweepReport cold = run_sweep(scenarios, opts);
  ASSERT_TRUE(cold.all_ok());
  EXPECT_EQ(cold.bank(), bank);
  const BankCounters after_cold = bank.get()->counters();

  const SweepReport warm = run_sweep(scenarios, opts);
  ASSERT_TRUE(warm.all_ok());
  const BankCounters after_warm = bank.get()->counters();

  // Second sweep built nothing new: misses unchanged, hits grew by one
  // full sweep's worth of lookups per tier.
  EXPECT_EQ(after_warm.misses(), after_cold.misses());
  EXPECT_EQ(after_warm.steady_hits,
            after_cold.steady_hits + scenarios.size());

  for (std::size_t i = 0; i < cold.size(); ++i) {
    expect_same_metrics(cold.at(i).metrics, warm.at(i).metrics,
                        cold.at(i).scenario.label);
  }
  // Warm setup is cheaper than cold setup in aggregate.
  EXPECT_LT(warm.setup_seconds_total(), cold.setup_seconds_total());
}

TEST(ScenarioBank, EnvResolvedPoolWidthSharesOneBank) {
  // jobs <= 0 resolves TAC3D_JOBS (CI's ASan bank-stress step sets 4,
  // wider than the pinned suites above), so concurrent prepare() of
  // equal and distinct keys runs at whatever width the environment
  // asks for — results must still match the serial reference bitwise.
  const auto scenarios = mixed_batch();

  SweepOptions serial;
  serial.jobs = 1;
  const SweepReport reference = run_sweep(scenarios, serial);
  ASSERT_TRUE(reference.all_ok());

  SweepOptions env;  // jobs = 0 -> TAC3D_JOBS / hardware concurrency
  const SweepReport wide = run_sweep(scenarios, env);
  ASSERT_TRUE(wide.all_ok());
  EXPECT_EQ(wide.jobs_used(), std::min<int>(resolve_jobs(0),
                                            static_cast<int>(
                                                scenarios.size())));
  for (std::size_t i = 0; i < wide.size(); ++i) {
    expect_same_metrics(reference.at(i).metrics, wide.at(i).metrics,
                        wide.at(i).scenario.label);
  }
}

TEST(ScenarioBank, CapturesPreparationErrorsPerScenario) {
  auto scenarios = mixed_batch();
  scenarios.resize(2);
  scenarios[1].sim.control_dt = -1.0;  // prepare/session must throw
  const SweepReport report = run_sweep(scenarios, {.jobs = 2});
  ASSERT_EQ(report.size(), 2u);
  EXPECT_TRUE(report.at(0).ok());
  EXPECT_FALSE(report.at(1).ok());
  EXPECT_FALSE(report.at(1).error.empty());
}

// --- trace sharing ------------------------------------------------------

ScenarioMatrix trace_matrix() {
  return ScenarioMatrix()
      .tiers({2, 4})
      .policies({PolicyKind::kLcLb, PolicyKind::kLcFuzzy})
      .seeds({1, 2})
      .grid(thermal::GridOptions{8, 8})
      .trace_seconds(12);
}

TEST(ScenarioMatrix, BuildAttachesNoTraceAndInstantiateSharesNone) {
  const auto scenarios = trace_matrix().build();
  ASSERT_EQ(scenarios.size(), 8u);
  EXPECT_EQ(trace_matrix().size(), scenarios.size());
  for (const Scenario& s : scenarios) {
    EXPECT_EQ(s.trace, nullptr) << s.label;
  }
  // Expansion order puts LC_LB seed 1 at [0] and LC_FUZZY seed 1 at [2]:
  // equal trace axes.
  const Scenario& a = scenarios[0];
  const Scenario& b = scenarios[2];
  ASSERT_EQ(a.seed, b.seed);
  ASSERT_NE(a.policy, b.policy);
  ASSERT_EQ(scenario_trace_key(a), scenario_trace_key(b));

  // The reference path synthesizes a trace per instance: equal content,
  // two objects.
  const ScenarioInstance ia = instantiate(a);
  const ScenarioInstance ib = instantiate(b);
  ASSERT_NE(ia.trace, nullptr);
  EXPECT_NE(ia.trace.get(), ib.trace.get());
  Scenario with_a = a, with_b = b;
  with_a.trace = ia.trace;
  with_b.trace = ib.trace;
  EXPECT_EQ(scenario_trace_key(with_a), scenario_trace_key(with_b));

  // The bank's trace tier is where equal axes share one trace.
  ScenarioBank bank;
  const ScenarioInstance pa = bank.prepare(a);
  const ScenarioInstance pb = bank.prepare(b);
  EXPECT_EQ(pa.trace.get(), pb.trace.get());
  EXPECT_EQ(bank.counters().trace_misses, 1u);
  EXPECT_EQ(bank.counters().trace_hits, 1u);
}

TEST(ScenarioBank, WarmBankServesARebuiltMatrixFromItsTraceTier) {
  const auto scenarios = trace_matrix().build();
  ScenarioBank bank;
  for (const Scenario& s : scenarios) bank.prepare(s);
  const BankCounters cold = bank.counters();
  EXPECT_EQ(cold.trace_misses, 2u);  // one per seed
  EXPECT_EQ(cold.trace_hits, scenarios.size() - 2);

  const auto rebuilt = trace_matrix().build();
  for (const Scenario& s : rebuilt) bank.prepare(s);
  const BankCounters warm = bank.counters();
  EXPECT_EQ(warm.trace_misses, cold.trace_misses);
  EXPECT_EQ(warm.trace_hits, cold.trace_hits + rebuilt.size());
  EXPECT_EQ(warm.misses(), cold.misses());
}

TEST(ScenarioBank, ChipIncompatibleAttachedTraceFallsBackToSynthesis) {
  // instantiate() ignores an attached trace whose thread count does not
  // match the chip and synthesizes from the axes; the bank must do the
  // same so bank on/off stay result-identical (instead of erroring).
  Scenario spec = quick_scenario();
  spec.trace = std::make_shared<const power::UtilizationTrace>(
      power::generate_workload(spec.workload, 3 /* != chip threads */,
                               spec.trace_seconds, spec.seed));
  EXPECT_FALSE(scenario_trace_usable(spec));

  ScenarioInstance fresh = instantiate(spec);
  EXPECT_NE(fresh.trace.get(), spec.trace.get());
  const auto [m_fresh, t_fresh] = run_session(fresh.session());

  ScenarioBank bank;
  ScenarioInstance prepared = bank.prepare(spec);
  EXPECT_NE(prepared.trace.get(), spec.trace.get());
  const auto [m_prep, t_prep] = run_session(prepared.session());

  expect_same_metrics(m_fresh, m_prep, "mismatched attached trace");
  EXPECT_EQ(t_fresh, t_prep);
  EXPECT_EQ(bank.counters().trace_misses, 1u);  // synthesized, not reused
}

TEST(ScenarioMatrix, AttachedTracesKeyTheBankByContent) {
  // A trace attached to the base scenario rides on every scenario of the
  // matrix. Each build below attaches its own, separately synthesized
  // but equal, trace.
  const auto build = [] {
    Scenario base;
    base.trace = power::shared_workload(
        base.workload, arch::NiagaraConfig::paper().hardware_threads(), 12,
        base.seed);
    return ScenarioMatrix()
        .base(base)
        .policies({PolicyKind::kLcLb})
        .tiers({2, 4})
        .grid(thermal::GridOptions{8, 8})
        .trace_seconds(12)
        .build();
  };
  const auto scenarios = build();
  ASSERT_EQ(scenarios.size(), 2u);
  EXPECT_EQ(scenarios[0].trace.get(), scenarios[1].trace.get());
  // Same content -> same trace key; a separately built equal matrix
  // produces the same key even though the pointers differ.
  const auto rebuilt = build();
  EXPECT_NE(scenarios[0].trace.get(), rebuilt[0].trace.get());
  EXPECT_EQ(scenario_trace_key(scenarios[0]), scenario_trace_key(rebuilt[0]));
  EXPECT_EQ(scenario_steady_key(scenarios[0]),
            scenario_steady_key(rebuilt[0]));
  // ... so a warm bank hits for the rebuilt scenarios too.
  ScenarioBank bank;
  bank.prepare(scenarios[0]);
  bank.prepare(rebuilt[0]);
  const BankCounters c = bank.counters();
  EXPECT_EQ(c.steady_misses, 1u);
  EXPECT_EQ(c.steady_hits, 1u);
}

TEST(ScenarioBank, SteadyTierKeysAttachedTracesByTZeroDemand) {
  // Only the t=0 demand enters compute_initial_state, so attached traces
  // that agree at t=0 but diverge later must share one cached steady
  // solve — and a t=0 difference must still miss.
  const int threads = arch::NiagaraConfig::paper().hardware_threads();
  const power::UtilizationTrace base = power::generate_workload(
      power::WorkloadKind::kWebServer, threads, 12, 1);
  power::UtilizationTrace later = base;
  for (int th = 0; th < threads; ++th) {
    for (int t = 1; t < later.seconds(); ++t) {
      later.set(th, t, std::min(1.0, 0.5 * base.at(th, t) + 0.1));
    }
  }
  power::UtilizationTrace t0diff = base;
  t0diff.set(0, 0, base.at(0, 0) > 0.5 ? 0.1 : 0.9);

  Scenario a = quick_scenario();
  a.trace = std::make_shared<const power::UtilizationTrace>(base);
  Scenario b = quick_scenario();
  b.trace = std::make_shared<const power::UtilizationTrace>(later);
  Scenario c2 = quick_scenario();
  c2.trace = std::make_shared<const power::UtilizationTrace>(t0diff);

  EXPECT_NE(scenario_trace_key(a), scenario_trace_key(b));  // full content
  EXPECT_EQ(scenario_steady_key(a), scenario_steady_key(b));  // t=0 equal
  EXPECT_NE(scenario_steady_key(a), scenario_steady_key(c2));

  ScenarioBank bank;
  bank.prepare(a);
  bank.prepare(b);
  bank.prepare(c2);
  const BankCounters cnt = bank.counters();
  EXPECT_EQ(cnt.steady_misses, 2u);
  EXPECT_EQ(cnt.steady_hits, 1u);  // b reused a's steady solve
  EXPECT_EQ(bank.steady_entries(), 2u);

  // The coarser key is sound: b started from the shared solve must step
  // bitwise like b prepared in a bank of its own.
  ScenarioBank lone;
  ScenarioInstance pb = lone.prepare(b);
  const auto [m_lone, t_lone] = run_session(pb.session());
  ScenarioInstance shared_b = bank.prepare(b);
  const auto [m_shared, t_shared] = run_session(shared_b.session());
  expect_same_metrics(m_lone, m_shared, "t0-shared steady");
  EXPECT_EQ(t_lone, t_shared);
}

}  // namespace
}  // namespace tac3d::sim
