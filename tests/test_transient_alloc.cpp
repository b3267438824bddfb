// Asserts the zero-allocation contract of the solver hot path: once a
// TransientSolver is constructed, step() must never touch the heap —
// including steps that follow a flow-rate change (matrix value update +
// in-place refactorization) — for every SolverKind.
//
// The same hook also guards the simulation layer above the solver: a
// SimulationSession's per-step control tail (sampling, load balancing,
// policy, power/leakage, sensors, metrics) and a BatchSession's batched
// step (each lane's tail stages around one batched solve) must both run
// allocation-free once warm.
//
// Set-up footprint: building a session must make resident only what it
// simulates. A periodic trace is stored once per period, and the banded
// solver's factor slots reserve their band without touching it until
// first use, so the resident-set growth of a set-up is bounded here;
// so are the warm-start slots of a Krylov session, which a fixed-flow
// run never writes.
//
// The hook replaces the global operator new/delete with counting
// wrappers. Counting is scoped: only allocations between
// AllocCounter::start() and AllocCounter::stop() are recorded, so gtest
// bookkeeping outside the measured window does not interfere. Under
// ASan/UBSan the replacement would fight the sanitizer's own allocator
// interceptors, so the whole hook compiles away and the tests skip.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "arch/mpsoc.hpp"
#include "microchannel/pump.hpp"
#include "power/trace.hpp"
#include "sim/bank.hpp"
#include "sim/batch.hpp"
#include "sim/experiment.hpp"
#include "sparse/banded_lu.hpp"
#include "thermal/operator.hpp"
#include "thermal/transient.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define TAC3D_ALLOC_HOOK 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TAC3D_ALLOC_HOOK 0
#else
#define TAC3D_ALLOC_HOOK 1
#endif
#else
#define TAC3D_ALLOC_HOOK 1
#endif

namespace {

struct AllocCounter {
  static std::atomic<long long> count;
  static std::atomic<bool> active;

  static void start() {
    count.store(0, std::memory_order_relaxed);
    active.store(true, std::memory_order_relaxed);
  }
  static long long stop() {
    active.store(false, std::memory_order_relaxed);
    return count.load(std::memory_order_relaxed);
  }
};

std::atomic<long long> AllocCounter::count{0};
std::atomic<bool> AllocCounter::active{false};

}  // namespace

#if TAC3D_ALLOC_HOOK

void* operator new(std::size_t size) {
  if (AllocCounter::active.load(std::memory_order_relaxed)) {
    AllocCounter::count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // TAC3D_ALLOC_HOOK

namespace tac3d {
namespace {

arch::Mpsoc3D make_soc() {
  return arch::Mpsoc3D(arch::Mpsoc3D::Options{
      2, arch::CoolingKind::kLiquidCooled, thermal::GridOptions{10, 10},
      arch::NiagaraConfig::paper()});
}

void load_power(arch::Mpsoc3D& soc) {
  std::vector<arch::CoreState> cores(soc.n_cores(),
                                     {1.0, soc.chip().vf.max_level()});
  soc.model().set_element_powers(soc.element_powers(cores, {}));
}

class TransientAllocTest
    : public ::testing::TestWithParam<sparse::SolverKind> {};

TEST_P(TransientAllocTest, StepIsAllocationFreeAtFixedFlow) {
#if !TAC3D_ALLOC_HOOK
  GTEST_SKIP() << "allocation hook disabled under sanitizers";
#endif
  auto soc = make_soc();
  soc.model().set_all_flows(microchannel::PumpModel::table1().q_max());
  load_power(soc);
  thermal::TransientSolver sim(soc.model(), 0.25, GetParam());
  sim.initialize_steady();
  sim.step();  // settle any lazy first-step work before counting

  AllocCounter::start();
  for (int i = 0; i < 20; ++i) sim.step();
  const long long allocs = AllocCounter::stop();
  EXPECT_EQ(allocs, 0) << "TransientSolver::step() must not allocate";
}

TEST_P(TransientAllocTest, StepIsAllocationFreeAcrossFlowChanges) {
#if !TAC3D_ALLOC_HOOK
  GTEST_SKIP() << "allocation hook disabled under sanitizers";
#endif
  auto soc = make_soc();
  auto pump = microchannel::PumpModel::table1();
  soc.model().set_all_flows(pump.q_max());
  load_power(soc);
  thermal::TransientSolver sim(soc.model(), 0.25, GetParam());
  sim.initialize_steady();
  sim.step();

  // A flow change dirties the matrix: the next step refreshes the
  // factorization/preconditioner, which must also happen in place. Two
  // rounds over the pump levels: the banded solver fills each factor
  // slot on its first use, then serves the second round from the slots.
  AllocCounter::start();
  for (int i = 0; i < 2 * pump.levels(); ++i) {
    soc.model().set_all_flows(pump.flow_per_cavity(i % pump.levels()));
    sim.step();
  }
  const long long allocs = AllocCounter::stop();
  EXPECT_EQ(allocs, 0)
      << "flow update + refactor + step must not allocate";
}

INSTANTIATE_TEST_SUITE_P(
    AllSolverKinds, TransientAllocTest,
    ::testing::Values(sparse::SolverKind::kBandedLu,
                      sparse::SolverKind::kBicgstabIlu0));

TEST(ThermalOperatorAlloc, UpdateFlowIsAllocationFree) {
#if !TAC3D_ALLOC_HOOK
  GTEST_SKIP() << "allocation hook disabled under sanitizers";
#endif
  auto soc = make_soc();
  auto pump = microchannel::PumpModel::table1();
  soc.model().set_all_flows(pump.q_max());
  load_power(soc);
  thermal::ThermalOperator op(soc.model(), 0.25);

  AllocCounter::start();
  for (int i = 0; i < 32; ++i) {
    soc.model().set_all_flows(pump.flow_per_cavity(i % pump.levels()));
    const sparse::ValueUpdate upd = op.update_flow();
    ASSERT_GT(upd.dirty_fraction, 0.0);
  }
  const long long allocs = AllocCounter::stop();
  EXPECT_EQ(allocs, 0)
      << "ThermalOperator::update_flow (and RcModel's indexed "
         "apply_cavity_flow) must not allocate";
}

sim::Scenario session_scenario(sim::PolicyKind policy, std::uint64_t seed) {
  sim::Scenario s;
  s.tiers = 2;
  s.policy = policy;
  s.workload = power::WorkloadKind::kWebServer;
  s.seed = seed;
  s.trace_seconds = 30;
  s.grid = thermal::GridOptions{8, 8};
  return s;
}

TEST(SessionAlloc, ScalarStepLoopIsAllocationFree) {
#if !TAC3D_ALLOC_HOOK
  GTEST_SKIP() << "allocation hook disabled under sanitizers";
#endif
  // LC_FUZZY covers the most allocation-prone tail: fuzzy inference,
  // flow modulation (matrix refresh) and pump-energy accounting.
  sim::ScenarioInstance inst =
      sim::instantiate(session_scenario(sim::PolicyKind::kLcFuzzy, 1));
  sim::SimulationSession session = inst.session();
  for (int i = 0; i < 3; ++i) session.step();  // settle lazy first-use work

  AllocCounter::start();
  for (int i = 0; i < 10; ++i) session.step();
  const long long allocs = AllocCounter::stop();
  EXPECT_EQ(allocs, 0)
      << "SimulationSession::step() must not allocate once warm";
}

TEST(SessionAlloc, BatchedStepIsAllocationFree) {
#if !TAC3D_ALLOC_HOOK
  GTEST_SKIP() << "allocation hook disabled under sanitizers";
#endif
  sim::ScenarioBank bank;
  std::vector<sim::ScenarioInstance> prepared;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    prepared.push_back(
        bank.prepare(session_scenario(sim::PolicyKind::kLcFuzzy, seed)));
  }
  sim::BatchSession batch(std::move(prepared));
  ASSERT_TRUE(batch.thermal_batched());
  for (int i = 0; i < 3; ++i) batch.step();  // settle lazy first-use work

  AllocCounter::start();
  for (int i = 0; i < 10; ++i) batch.step();
  const long long allocs = AllocCounter::stop();
  EXPECT_EQ(allocs, 0)
      << "BatchSession::step() must not allocate once warm";
}

TEST(SessionAlloc, WarmReplayJournalAndFastForwardAreAllocationFree) {
#if !TAC3D_ALLOC_HOOK
  GTEST_SKIP() << "allocation hook disabled under sanitizers";
#endif
  // A constant trace (period_hint 1 s = 4 control steps) drives this
  // banded-LU loop to a fixed point; the limit-cycle detector locks at
  // step 20. Both journaling steps and the fast-forward replay itself
  // must stay off the heap: the journal is sized at arm() and cycles
  // are re-applied from it in place.
  auto trace =
      std::make_shared<power::UtilizationTrace>("const", 32, 60);
  for (int th = 0; th < 32; ++th) {
    for (int t = 0; t < 60; ++t) trace->set(th, t, 0.45 + 0.01 * (th % 4));
  }
  sim::Scenario s;
  s.tiers = 2;
  s.policy = sim::PolicyKind::kLcLb;
  s.trace = trace;
  s.trace_seconds = 60;
  s.grid = thermal::GridOptions{8, 8};
  s.sim.solver = sparse::SolverKind::kBandedLu;
  sim::ScenarioInstance inst = sim::instantiate(s);
  sim::SimulationSession session = inst.session();

  for (int i = 0; i < 8; ++i) session.step();  // settle

  AllocCounter::start();
  // Covers the match boundary (step 16), the 4 journaling steps and the
  // verify boundary (step 20) that flips the detector to locked.
  for (int i = 0; i < 12; ++i) session.step();
  const long long journal_allocs = AllocCounter::stop();
  EXPECT_EQ(journal_allocs, 0)
      << "journaling a candidate cycle must not allocate";

  AllocCounter::start();
  const int replayed = session.replay_fast_forward(30.0);
  const long long replay_allocs = AllocCounter::stop();
  EXPECT_GT(replayed, 0) << "replay should engage on a constant trace";
  EXPECT_EQ(replay_allocs, 0)
      << "fast-forwarding locked cycles must not allocate";
  EXPECT_GT(session.replay_solves_skipped(), 0u);
}

/// Resident set size of this process [MB], from /proc/self/status.
double resident_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  return -1.0;
}

/// Resident-set growth [MB] of instantiating \p s and building its
/// session. Free heap pages of earlier tests go back to the system
/// first, so reusing them counts as growth too.
double setup_growth_mb(const sim::Scenario& s) {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  const double before = resident_mb();
  sim::ScenarioInstance inst = sim::instantiate(s);
  sim::SimulationSession session = inst.session();
  return resident_mb() - before;
}

TEST(SetupFootprint, SessionHoldsOnlyWhatItSimulates) {
#if !TAC3D_ALLOC_HOOK
  GTEST_SKIP() << "resident-set bounds do not hold under sanitizers";
#endif
  if (resident_mb() < 0.0) GTEST_SKIP() << "no /proc/self/status";

  // A 24000 s periodic session on banded LU (the benchmark's replay
  // scenario): the trace holds one 12 s block and the factor slots hold
  // one band.
  sim::Scenario periodic;
  periodic.tiers = 2;
  periodic.policy = sim::PolicyKind::kLcLb;
  periodic.workload = power::WorkloadKind::kPeriodic;
  periodic.seed = 1;
  periodic.trace_seconds = 24000;
  periodic.grid = thermal::GridOptions{8, 8};
  periodic.sim.solver = sparse::SolverKind::kBandedLu;
  EXPECT_LT(setup_growth_mb(periodic), 4.0);

  // A fixed-flow 4-tier 16x16 session: less than two of its bands,
  // however many factor slots the solver keeps.
  sim::Scenario stack = periodic;
  stack.tiers = 4;
  stack.workload = power::WorkloadKind::kWebServer;
  stack.trace_seconds = 30;
  stack.grid = thermal::GridOptions{16, 16};
  const double growth = setup_growth_mb(stack);
  sim::ScenarioInstance inst = sim::instantiate(stack);
  thermal::ThermalOperator op(inst.soc->model(), stack.sim.control_dt);
  const sparse::BandedLu lu(op.matrix());
  const double band_mb =
      static_cast<double>(lu.size()) *
      (lu.lower_bandwidth() + lu.upper_bandwidth() + 1) * sizeof(double) /
      (1024.0 * 1024.0);
  EXPECT_LT(growth, 2.0 * band_mb) << "one band is " << band_mb << " MB";

  // The same session on ILU(0). Its flow never changes, so its
  // warm-start slots are never written, and set-up must not make their
  // reserved pages resident either. The first ILU(0) set-up in a process
  // also faults in code pages and one-time tables, so measure the second.
  sim::Scenario krylov = stack;
  krylov.sim.solver = sparse::SolverKind::kBicgstabIlu0;
  setup_growth_mb(krylov);
  // Measured 2.3 MB on x86-64 glibc. Zero-filling the 16 slots at
  // construction, two state vectors each, read 3.1 MB.
  EXPECT_LT(setup_growth_mb(krylov), 2.75);
}

TEST(RhsInto, FusedRhsPlusScaledMatchesTwoPassBuild) {
  auto soc = make_soc();
  soc.model().set_all_flows(microchannel::PumpModel::table1().q_max());
  load_power(soc);
  const std::size_t n =
      static_cast<std::size_t>(soc.model().node_count());
  std::vector<double> scale(n), x(n);
  for (std::size_t i = 0; i < n; ++i) {
    scale[i] = 0.5 + 0.001 * static_cast<double>(i);
    x[i] = 300.0 + 0.1 * static_cast<double>(i % 17);
  }
  std::vector<double> fused(n);
  soc.model().rhs_plus_scaled_into(fused, scale, x);
  std::vector<double> two_pass(n);
  soc.model().rhs_into(two_pass);
  for (std::size_t i = 0; i < n; ++i) two_pass[i] += scale[i] * x[i];
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(fused[i], two_pass[i]) << i;
  }
}

}  // namespace
}  // namespace tac3d
