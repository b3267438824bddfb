// Batched lockstep stepping must be invisible in the results: a lane of
// a BatchSession — one shared matrix traversal advancing K scenarios —
// steps bitwise identically to the same scenario on the scalar path,
// across solver kinds (direct solvers fall back to scalar lockstep),
// mixed policies/workloads/durations within a batch, and through the
// sweep runner's batch dispatch. Lanes are isolated: one throwing lane
// must not perturb its batchmates' bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/bank.hpp"
#include "sim/batch.hpp"
#include "sim/sweep.hpp"
#include "sparse/batched.hpp"
#include "sparse/iterative.hpp"
#include "sparse/preconditioner.hpp"
#include "thermal/batched_transient.hpp"

namespace tac3d::sim {
namespace {

Scenario lane_scenario(PolicyKind policy, power::WorkloadKind workload,
                       std::uint64_t seed, int trace_seconds = 16) {
  Scenario s;
  s.tiers = 2;
  s.policy = policy;
  s.workload = workload;
  s.seed = seed;
  s.trace_seconds = trace_seconds;
  s.grid = thermal::GridOptions{8, 8};
  return s;
}

/// Mixed-policy, mixed-workload, mixed-duration lanes that share one
/// model key (2-tier liquid) — the regime the sweep runner batches.
std::vector<Scenario> liquid_lanes(sparse::SolverKind kind) {
  std::vector<Scenario> lanes = {
      lane_scenario(PolicyKind::kLcLb, power::WorkloadKind::kWebServer, 1),
      lane_scenario(PolicyKind::kLcFuzzy, power::WorkloadKind::kWebServer, 1),
      lane_scenario(PolicyKind::kLcFuzzy, power::WorkloadKind::kDatabase, 2),
      // Shorter trace: this lane finishes first and must sit masked
      // while the others keep stepping.
      lane_scenario(PolicyKind::kLcLb, power::WorkloadKind::kMixed, 3, 12),
  };
  for (Scenario& s : lanes) s.sim.solver = kind;
  return lanes;
}

struct LaneReference {
  SimMetrics metrics;
  std::vector<double> temps;
};

/// Scalar-path reference: prepare through \p bank and run each scenario
/// alone (prepared sessions are bitwise equal to from-scratch ones —
/// test_scenario_bank).
std::vector<LaneReference> scalar_reference(ScenarioBank& bank,
                                            const std::vector<Scenario>& v) {
  std::vector<LaneReference> out;
  for (const Scenario& s : v) {
    ScenarioInstance p = bank.prepare(s);
    SimulationSession session = p.session();
    session.run_to_end();
    const auto t = session.temperatures();
    out.push_back({session.metrics(), {t.begin(), t.end()}});
  }
  return out;
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

void expect_lane_matches(const BatchSession& batch, int lane,
                         const LaneReference& ref, const std::string& what) {
  ASSERT_TRUE(batch.lane_ok(lane)) << what << ": " << batch.lane_error(lane);
  expect_same_metrics(batch.metrics(lane), ref.metrics, what);
  const auto temps = batch.session(lane).temperatures();
  ASSERT_EQ(temps.size(), ref.temps.size()) << what;
  for (std::size_t i = 0; i < temps.size(); ++i) {
    ASSERT_EQ(temps[i], ref.temps[i]) << what << " node " << i;
  }
}

class BatchParityTest : public ::testing::TestWithParam<sparse::SolverKind> {};

TEST_P(BatchParityTest, LanesMatchScalarPathBitwise) {
  const sparse::SolverKind kind = GetParam();
  const std::vector<Scenario> lanes = liquid_lanes(kind);
  ScenarioBank bank;
  const std::vector<LaneReference> refs = scalar_reference(bank, lanes);

  std::vector<ScenarioInstance> prepared;
  for (const Scenario& s : lanes) prepared.push_back(bank.prepare(s));
  BatchSession batch(std::move(prepared));
  // BiCGSTAB+ILU(0) batches the thermal solves and fuses the tail; the
  // direct solver falls back to scalar lockstep — and must be just as
  // invisible.
  EXPECT_EQ(batch.thermal_batched(),
            kind != sparse::SolverKind::kBandedLu);
  batch.run_to_end();
  EXPECT_TRUE(batch.done());

  for (int l = 0; l < batch.lanes(); ++l) {
    expect_lane_matches(batch, l, refs[static_cast<std::size_t>(l)],
                        "lane " + std::to_string(l) + " kind " +
                            std::to_string(static_cast<int>(kind)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSolverKinds, BatchParityTest,
    ::testing::Values(sparse::SolverKind::kBicgstabIlu0,
                      sparse::SolverKind::kBandedLu));

TEST(BatchSession, SingleLaneFallsBackToScalar) {
  ScenarioBank bank;
  const Scenario s = lane_scenario(PolicyKind::kLcFuzzy,
                                   power::WorkloadKind::kWebServer, 1);
  const std::vector<LaneReference> refs = scalar_reference(bank, {s});

  std::vector<ScenarioInstance> prepared;
  prepared.push_back(bank.prepare(s));
  BatchSession batch(std::move(prepared));
  EXPECT_FALSE(batch.thermal_batched());
  batch.run_to_end();
  expect_lane_matches(batch, 0, refs[0], "single lane");
}

TEST(BatchSession, WiderThanKernelCapFallsBackToScalar) {
  // sparse::kMaxBatchLanes bounds the interleaved kernels; a wider
  // BatchSession must degrade to scalar lockstep, not throw (the sweep
  // runner chunks below the cap — this guards direct users).
  ScenarioBank bank;
  std::vector<ScenarioInstance> prepared;
  for (std::uint64_t seed = 1;
       seed <= static_cast<std::uint64_t>(sparse::kMaxBatchLanes) + 1;
       ++seed) {
    Scenario s = lane_scenario(PolicyKind::kLcLb,
                               power::WorkloadKind::kWebServer, seed, 8);
    prepared.push_back(bank.prepare(s));
  }
  BatchSession batch(std::move(prepared));
  EXPECT_FALSE(batch.thermal_batched());
  batch.run_to_end();
  for (int l = 0; l < batch.lanes(); ++l) {
    EXPECT_TRUE(batch.lane_ok(l)) << batch.lane_error(l);
  }
}

/// \p s materialized without the bank on a paper chip whose cores have
/// \p core_scale times the paper's area: the same stack and grid, hence
/// the same matrix pattern, but a different floorplan.
ScenarioInstance on_scaled_chip(const Scenario& s, double core_scale) {
  arch::NiagaraConfig chip = arch::NiagaraConfig::paper();
  chip.core_area *= core_scale;
  ScenarioInstance p;
  p.spec = s;
  p.soc = std::make_unique<arch::Mpsoc3D>(arch::Mpsoc3D::Options{
      s.tiers, s.effective_cooling(), s.grid, chip});
  p.trace = power::shared_workload(s.workload, chip.hardware_threads(),
                                   s.trace_seconds, s.seed);
  p.policy = make_policy(s.policy, *p.soc, s.sim.pump);
  return p;
}

TEST(BatchSession, MismatchedFloorplansFallBackToScalar) {
  // The fused tail walks one shared element -> cell geometry, so lanes
  // whose floorplans differ must not batch even when their matrices
  // share the pattern: scalar lockstep, each lane its own scalar run.
  const std::vector<Scenario> lanes = {
      lane_scenario(PolicyKind::kLcFuzzy, power::WorkloadKind::kWebServer, 1),
      lane_scenario(PolicyKind::kLcLb, power::WorkloadKind::kDatabase, 2),
  };
  const double core_scale[] = {1.0, 0.9};
  std::vector<LaneReference> refs;
  std::vector<ScenarioInstance> prepared;
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    ScenarioInstance p = on_scaled_chip(lanes[l], core_scale[l]);
    SimulationSession session = p.session();
    session.run_to_end();
    const auto t = session.temperatures();
    refs.push_back({session.metrics(), {t.begin(), t.end()}});
    prepared.push_back(on_scaled_chip(lanes[l], core_scale[l]));
  }
  BatchSession batch(std::move(prepared));
  ASSERT_TRUE(thermal::BatchedTransientSolver::compatible(
      batch.session(0).thermal_solver(), batch.session(1).thermal_solver()))
      << "the lanes must share the matrix pattern";
  EXPECT_FALSE(batch.thermal_batched());
  batch.run_to_end();
  for (int l = 0; l < batch.lanes(); ++l) {
    expect_lane_matches(batch, l, refs[static_cast<std::size_t>(l)],
                        "floorplan lane " + std::to_string(l));
  }
}

/// Forwards to the real policy until a trigger step, then throws —
/// injected into one lane to prove batch isolation.
class ThrowAfterPolicy final : public control::ThermalPolicy {
 public:
  ThrowAfterPolicy(std::unique_ptr<control::ThermalPolicy> inner, int after)
      : inner_(std::move(inner)), after_(after) {}

  void decide_into(const control::PolicyInputs& in,
                   control::PolicyActions& out) override {
    if (++calls_ > after_) {
      throw std::runtime_error("injected mid-batch policy failure");
    }
    inner_->decide_into(in, out);
  }

  std::string name() const override { return "throw-after"; }

 private:
  std::unique_ptr<control::ThermalPolicy> inner_;
  int after_;
  int calls_ = 0;
};

TEST(BatchSession, ThrowingLaneLeavesOtherLanesIntact) {
  const std::vector<Scenario> lanes =
      liquid_lanes(sparse::SolverKind::kBicgstabIlu0);
  ScenarioBank bank;
  const std::vector<LaneReference> refs = scalar_reference(bank, lanes);

  std::vector<ScenarioInstance> prepared;
  for (const Scenario& s : lanes) prepared.push_back(bank.prepare(s));
  // Lane 1 blows up mid-run (after 5 control intervals).
  prepared[1].policy =
      std::make_unique<ThrowAfterPolicy>(std::move(prepared[1].policy), 5);
  BatchSession batch(std::move(prepared));
  // The wrapped lane is not a FuzzyFlowDvfsPolicy, so it decides on the
  // per-lane path inside the fused tail — batching itself stays on.
  EXPECT_TRUE(batch.thermal_batched());
  batch.run_to_end();
  EXPECT_TRUE(batch.done());

  EXPECT_FALSE(batch.lane_ok(1));
  EXPECT_NE(batch.lane_error(1).find("injected"), std::string::npos);
  for (const int l : {0, 2, 3}) {
    expect_lane_matches(batch, l, refs[static_cast<std::size_t>(l)],
                        "surviving lane " + std::to_string(l));
  }
}

TEST(BatchSession, AirCooledLanesFuseTailAndMatchScalar) {
  // Air-cooled stacks take the no-pump branches of the tail (no flow
  // application, no pump energy); the fused tail must still be bitwise
  // the scalar path there.
  std::vector<Scenario> lanes = {
      lane_scenario(PolicyKind::kAcLb, power::WorkloadKind::kWebServer, 1),
      lane_scenario(PolicyKind::kAcTdvfsLb, power::WorkloadKind::kDatabase,
                    2),
      lane_scenario(PolicyKind::kAcLb, power::WorkloadKind::kMixed, 3, 12),
  };
  for (Scenario& s : lanes) {
    s.sim.solver = sparse::SolverKind::kBicgstabIlu0;
  }
  ScenarioBank bank;
  const std::vector<LaneReference> refs = scalar_reference(bank, lanes);

  std::vector<ScenarioInstance> prepared;
  for (const Scenario& s : lanes) prepared.push_back(bank.prepare(s));
  BatchSession batch(std::move(prepared));
  EXPECT_TRUE(batch.thermal_batched());
  batch.run_to_end();
  for (int l = 0; l < batch.lanes(); ++l) {
    expect_lane_matches(batch, l, refs[static_cast<std::size_t>(l)],
                        "air lane " + std::to_string(l));
  }
}

TEST(BatchSession, AllFuzzyBatchSharesInferenceBitwise) {
  // Every lane is LC_FUZZY, so the fused tail routes all of them through
  // FuzzyFlowDvfsPolicy::decide_batch — one shared Mamdani inference
  // pass per step — which must not move a bit on any lane.
  std::vector<Scenario> lanes = {
      lane_scenario(PolicyKind::kLcFuzzy, power::WorkloadKind::kWebServer, 1),
      lane_scenario(PolicyKind::kLcFuzzy, power::WorkloadKind::kDatabase, 2),
      lane_scenario(PolicyKind::kLcFuzzy, power::WorkloadKind::kMixed, 3),
      lane_scenario(PolicyKind::kLcFuzzy, power::WorkloadKind::kWebServer, 4,
                    12),
  };
  for (Scenario& s : lanes) {
    s.sim.solver = sparse::SolverKind::kBicgstabIlu0;
  }
  ScenarioBank bank;
  const std::vector<LaneReference> refs = scalar_reference(bank, lanes);

  std::vector<ScenarioInstance> prepared;
  for (const Scenario& s : lanes) prepared.push_back(bank.prepare(s));
  BatchSession batch(std::move(prepared));
  EXPECT_TRUE(batch.thermal_batched());
  batch.run_to_end();
  for (int l = 0; l < batch.lanes(); ++l) {
    expect_lane_matches(batch, l, refs[static_cast<std::size_t>(l)],
                        "fuzzy lane " + std::to_string(l));
  }
}

/// 2D convection-diffusion system (nonsymmetric 5-point stencil on a
/// g x g grid), lane-perturbed so the lanes share the pattern but not
/// the values — the sparse-level fixture for the compaction tests. A 2D
/// stencil matters: ILU(0) on a tridiagonal system is an exact LU, which
/// would converge every lane at iteration 1 and never stagger.
sparse::CsrMatrix lane_matrix(std::int32_t g, double eps) {
  std::vector<sparse::Triplet> t;
  for (std::int32_t r = 0; r < g; ++r) {
    for (std::int32_t c = 0; c < g; ++c) {
      const std::int32_t i = r * g + c;
      t.push_back({i, i, 4.5 + eps});
      if (c > 0) t.push_back({i, i - 1, -1.3 - eps});  // upwind advection
      if (c + 1 < g) t.push_back({i, i + 1, -0.7 + eps});
      if (r > 0) t.push_back({i, i - g, -1.0});
      if (r + 1 < g) t.push_back({i, i + g, -1.0});
    }
  }
  return sparse::CsrMatrix::from_triplets(g * g, g * g, std::move(t));
}

/// Staggered-convergence batch straight at the sparse layer: lanes with
/// tolerances decades apart converge at different Krylov iterations, so
/// the solve must compact its fused kernels mid-flight (8 -> ... -> 1)
/// — and every lane must still finish with exactly the bits and the
/// iteration count of a serial bicgstab() on that lane alone.
void staggered_compaction_case(int lanes) {
  const std::int32_t grid = 13;
  const std::int32_t n = grid * grid;
  std::vector<sparse::CsrMatrix> mats;
  for (int l = 0; l < lanes; ++l) {
    mats.push_back(lane_matrix(grid, 0.01 * l));
  }
  sparse::BatchedCsr a(mats[0], lanes);
  for (int l = 0; l < lanes; ++l) a.load_lane(l, mats[l]);
  sparse::BatchedIlu0Preconditioner precond(a);
  for (int l = 0; l < lanes; ++l) precond.refactor_lane(l, a);

  // Tolerances staggered over many decades: lane 0 converges first,
  // the last lane keeps iterating alone at width 1.
  std::vector<double> tol(static_cast<std::size_t>(lanes));
  for (int l = 0; l < lanes; ++l) {
    tol[static_cast<std::size_t>(l)] =
        std::pow(10.0, -2.0 - 10.0 * l / std::max(lanes - 1, 1));
  }

  const std::size_t total = static_cast<std::size_t>(n) * lanes;
  std::vector<double> b(total), x(total, 0.0);
  for (std::int32_t i = 0; i < n; ++i) {
    for (int l = 0; l < lanes; ++l) {
      b[static_cast<std::size_t>(i) * lanes + l] =
          std::sin(0.1 * i + 0.3 * l) + 1.0;
    }
  }

  std::vector<std::uint8_t> active(static_cast<std::size_t>(lanes), 1);
  std::vector<sparse::BatchedLaneResult> results(
      static_cast<std::size_t>(lanes));
  sparse::BatchedKrylovWorkspace ws;
  const int events = sparse::batched_bicgstab(
      a, b, x, precond, tol, 500, active, ws, results);
  EXPECT_GE(events, 1) << "staggered tolerances never compacted";

  for (int l = 0; l < lanes; ++l) {
    sparse::Ilu0Preconditioner sprecond(mats[static_cast<std::size_t>(l)]);
    std::vector<double> sb(static_cast<std::size_t>(n)),
        sx(static_cast<std::size_t>(n), 0.0);
    for (std::int32_t i = 0; i < n; ++i) {
      sb[static_cast<std::size_t>(i)] =
          b[static_cast<std::size_t>(i) * lanes + l];
    }
    sparse::IterativeOptions opts;
    opts.rel_tolerance = tol[static_cast<std::size_t>(l)];
    opts.max_iterations = 500;
    const sparse::IterativeResult ref = sparse::bicgstab(
        sparse::SlicedMatrix(mats[static_cast<std::size_t>(l)]), sb, sx,
        sprecond, opts);
    const std::string what = "lane " + std::to_string(l) + " of " +
                             std::to_string(lanes);
    EXPECT_EQ(results[static_cast<std::size_t>(l)].converged, ref.converged)
        << what;
    EXPECT_EQ(results[static_cast<std::size_t>(l)].iterations, ref.iterations)
        << what << ": compaction changed a lane's iteration count";
    for (std::int32_t i = 0; i < n; ++i) {
      ASSERT_EQ(x[static_cast<std::size_t>(i) * lanes + l],
                sx[static_cast<std::size_t>(i)])
          << what << " row " << i;
    }
  }
}

TEST(BatchedCompaction, StaggeredLanesStayBitwiseSerial) {
  staggered_compaction_case(6);
}

TEST(BatchedCompaction, FullWidthEightCompactsDown) {
  staggered_compaction_case(8);
}

TEST(BatchedCompaction, CacheBlockedWidth16MatchesSerial) {
  // 16 lanes dispatch the cache-blocked two-half kernels; compaction
  // then re-dispatches through 8 and below as lanes finish.
  staggered_compaction_case(sparse::kMaxBatchLanes);
}

TEST(SweepBatching, BatchedSweepIsBitwiseIdenticalToScalarSweep) {
  // A design-space slice with two batchable groups (two control
  // intervals), a direct-solver scenario (grouping must fall it back to
  // scalar), and group sizes that don't divide the batch width evenly.
  std::vector<Scenario> scenarios;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    scenarios.push_back(lane_scenario(PolicyKind::kLcFuzzy,
                                      power::WorkloadKind::kWebServer, seed));
    scenarios.push_back(lane_scenario(PolicyKind::kLcLb,
                                      power::WorkloadKind::kWebServer, seed));
  }
  scenarios[4].sim.control_dt = 0.5;
  scenarios[5].sim.solver = sparse::SolverKind::kBandedLu;

  SweepOptions off;
  off.jobs = 1;
  off.batch_width = 1;  // batching off — the unchanged scalar sweep
  const SweepReport scalar = run_sweep(scenarios, off);

  SweepOptions on;
  on.jobs = 1;
  on.batch_width = 3;
  const SweepReport batched = run_sweep(scenarios, on);

  SweepOptions parallel;
  parallel.jobs = 2;
  const SweepReport wide = run_sweep(scenarios, parallel);  // auto width

  ASSERT_TRUE(scalar.all_ok());
  ASSERT_TRUE(batched.all_ok());
  ASSERT_TRUE(wide.all_ok());
  ASSERT_EQ(scalar.size(), scenarios.size());

  bool any_batched = false;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const std::string what = scalar.at(i).scenario.label;
    EXPECT_EQ(scalar.at(i).batch_lanes, 0) << what;
    expect_same_metrics(scalar.at(i).metrics, batched.at(i).metrics, what);
    expect_same_metrics(scalar.at(i).metrics, wide.at(i).metrics, what);
    any_batched |= batched.at(i).batch_lanes > 1;
  }
  EXPECT_TRUE(any_batched) << "batch dispatch never engaged";
  // The direct-solver scenario must have taken the scalar path.
  EXPECT_EQ(batched.at(5).batch_lanes, 0);
  // Grouping splits fuzzy from non-fuzzy (iteration-class scheduling):
  // the ilu0 scenarios form two 2-lane batches, not one 3+1 chunk.
  EXPECT_EQ(batched.at(0).batch_lanes, 2);  // fuzzy s1 + fuzzy s2
  EXPECT_EQ(batched.at(1).batch_lanes, 2);  // lclb s1 + lclb s2
  int widest = 0;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    widest = std::max(widest, batched.at(i).batch_lanes);
  }
  EXPECT_EQ(widest, 2);
}

TEST(SweepBatching, BatchedLanesPublishTheirSolverCounters) {
  // A batched lane solves in the shared batched solver, not in its
  // session's own: the sweep must publish that lane's counters, so the
  // solver/* totals do not depend on the batch width. On the 12x12 grid
  // the LC_FUZZY lanes' stale factors degrade past the refresh rule's
  // iteration bound (seeds 1, 2 and 3 refactor 1, 2 and 3 times), so
  // every refresh counter moves.
  std::vector<Scenario> scenarios;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    scenarios.push_back(lane_scenario(PolicyKind::kLcFuzzy,
                                      power::WorkloadKind::kWebServer, seed));
    scenarios.push_back(lane_scenario(PolicyKind::kLcLb,
                                      power::WorkloadKind::kWebServer, seed));
  }
  for (Scenario& s : scenarios) s.grid = thermal::GridOptions{12, 12};

  const char* const names[] = {"solver/solves", "solver/iterations",
                               "solver/refactors", "solver/deferred_updates",
                               "solver/retries"};
  const bool metrics_were_on = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const auto solver_counters = [&](int batch_width) {
    SweepOptions opts;
    opts.jobs = 1;
    opts.batch_width = batch_width;
    const obs::Snapshot before = obs::snapshot();
    const SweepReport report = run_sweep(scenarios, opts);
    EXPECT_TRUE(report.all_ok());
    const obs::Snapshot delta = obs::snapshot().since(before);
    std::vector<std::uint64_t> out;
    for (const char* name : names) {
      const auto it = delta.counters.find(name);
      out.push_back(it != delta.counters.end() ? it->second : 0);
    }
    return out;
  };
  const std::vector<std::uint64_t> scalar = solver_counters(1);
  const std::vector<std::uint64_t> batched = solver_counters(3);
  obs::set_metrics_enabled(metrics_were_on);

  for (std::size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(batched[i], scalar[i]) << names[i];
  }
  EXPECT_GT(scalar[0], 0u);  // solves
  EXPECT_GT(scalar[2], 0u);  // refactors
  EXPECT_GT(scalar[3], 0u);  // deferred updates
}

}  // namespace
}  // namespace tac3d::sim
