// ThermalOperator: the backward-Euler matrix split into a constant
// conduction/capacitance part and an indexed flow-dependent advection
// part, plus the staleness-aware refresh rule layered on top.
//
//  - update_flow() must reproduce, entry for entry, the operator a fresh
//    construction at the same flows produces, and report a sensible
//    dirty fraction (advection entries over nnz; zero on a no-op).
//  - Lazy refresh (keep the stale ILU, refactor on degradation) must
//    match the exact banded-LU trajectory to 1e-8 — the preconditioner
//    only steers convergence, the tolerance guarantees the answer.
//  - BandedLu::factor_rows must be bitwise identical to a full factor(),
//    and the banded factor-slot cache, whose slots fill on first use,
//    bitwise identical to a fresh factorization of each step's operator.
//  - The flow-transition warm-start predictor must not change results
//    beyond solver tolerance.
//  - A fluid-focused column profile (HydraulicNetwork -> flow fractions
//    -> RcModel::set_cavity_flow_profile) must reach the thermal answer
//    through the same indexed update path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "arch/mpsoc.hpp"
#include "common/units.hpp"
#include "microchannel/coolant.hpp"
#include "microchannel/flow_network.hpp"
#include "microchannel/modulation.hpp"
#include "microchannel/pump.hpp"
#include "sparse/banded_lu.hpp"
#include "thermal/operator.hpp"
#include "thermal/transient.hpp"

namespace tac3d {
namespace {

arch::Mpsoc3D make_soc(int rows = 10, int cols = 10) {
  return arch::Mpsoc3D(arch::Mpsoc3D::Options{
      2, arch::CoolingKind::kLiquidCooled, thermal::GridOptions{rows, cols},
      arch::NiagaraConfig::paper()});
}

void load_power(arch::Mpsoc3D& soc, double busy = 1.0) {
  std::vector<arch::CoreState> cores(soc.n_cores(),
                                     {busy, soc.chip().vf.max_level()});
  soc.model().set_element_powers(soc.element_powers(cores, {}));
}

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

TEST(ThermalOperator, UpdateFlowMatchesFreshConstruction) {
  auto pump = microchannel::PumpModel::table1();
  auto soc = make_soc();
  load_power(soc);
  soc.model().set_all_flows(pump.q_max());
  thermal::ThermalOperator op(soc.model(), 0.1);

  for (const int level : {0, 7, 15, 3}) {
    soc.model().set_all_flows(pump.flow_per_cavity(level));
    EXPECT_FALSE(op.in_sync());
    const sparse::ValueUpdate upd = op.update_flow();
    EXPECT_TRUE(op.in_sync());
    EXPECT_GT(upd.dirty_fraction, 0.0);
    EXPECT_LT(upd.dirty_fraction, 1.0);
    EXPECT_FALSE(upd.rows.empty());

    // Fresh operator at the same flows: identical values, entry for
    // entry (both compose base + unit*q with one rounding).
    thermal::ThermalOperator fresh(soc.model(), 0.1);
    EXPECT_EQ(max_abs_diff(op.matrix().values(), fresh.matrix().values()),
              0.0)
        << "level " << level;
  }

  // No flow change => clean no-op update.
  const sparse::ValueUpdate noop = op.update_flow();
  EXPECT_EQ(noop.dirty_fraction, 0.0);
  EXPECT_TRUE(noop.rows.empty());
}

TEST(ThermalOperator, DirtyRowsAreExactlyTheFluidNodes) {
  auto pump = microchannel::PumpModel::table1();
  auto soc = make_soc();
  soc.model().set_all_flows(pump.q_max());
  thermal::ThermalOperator op(soc.model(), 0.1);

  soc.model().set_all_flows(pump.flow_per_cavity(2));
  const sparse::ValueUpdate upd = op.update_flow();
  std::size_t advection_nodes = 0;
  for (int cav = 0; cav < soc.model().n_cavities(); ++cav) {
    advection_nodes += soc.model().advection_entries(cav).size();
  }
  EXPECT_EQ(upd.rows.size(), advection_nodes);
}

TEST(BandedLuPartial, FactorRowsBitwiseMatchesFullFactor) {
  auto pump = microchannel::PumpModel::table1();
  auto soc = make_soc(8, 8);
  load_power(soc);
  soc.model().set_all_flows(pump.q_max());
  thermal::ThermalOperator op(soc.model(), 0.1);

  sparse::BandedLu partial(op.matrix());
  soc.model().set_all_flows(pump.flow_per_cavity(1));
  const sparse::ValueUpdate upd = op.update_flow();
  partial.factor_rows(op.matrix(), upd.rows);
  sparse::BandedLu full(op.matrix());

  const std::int32_t n = op.matrix().rows();
  std::vector<double> b(n, 1.0), x_partial(n), x_full(n);
  for (std::int32_t i = 0; i < n; ++i) b[i] = 1.0 + 0.01 * i;
  partial.solve(b, x_partial);
  full.solve(b, x_full);
  EXPECT_EQ(max_abs_diff(x_partial, x_full), 0.0);
}

// On the paper stack plain RCM scatters the fluid rows across nearly the
// whole ordering (their permuted indices span ~[1, n-2]), so the test
// above restarts from ~row 0 and barely exercises the partial path. This
// synthetic band (identity permutation, dirty rows in the middle) forces
// a deep restart.
TEST(BandedLuPartial, DeepRestartBitwiseOnSyntheticBand) {
  const std::int32_t n = 60;
  std::vector<sparse::Triplet> trips;
  for (std::int32_t i = 0; i < n; ++i) {
    trips.push_back({i, i, 4.0 + 0.01 * i});
    if (i + 1 < n) {
      trips.push_back({i, i + 1, -1.0 - 0.001 * i});
      trips.push_back({i + 1, i, -0.9});
    }
    if (i + 2 < n) trips.push_back({i, i + 2, -0.3});
  }
  sparse::CsrMatrix a =
      sparse::CsrMatrix::from_triplets(n, n, std::move(trips));
  std::vector<std::int32_t> identity(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) identity[i] = i;

  sparse::BandedLu partial(a, identity);
  // Perturb values of rows 30..35 only (pattern unchanged).
  std::vector<std::int32_t> dirty;
  for (std::int32_t r = 30; r < 36; ++r) {
    dirty.push_back(r);
    a.coeff_ref(r, r) *= 1.25;
    a.coeff_ref(r, r + 1) -= 0.05;
  }
  EXPECT_EQ(partial.first_permuted_row(dirty), 30);
  partial.factor_rows(a, dirty);
  sparse::BandedLu full(a, identity);

  std::vector<double> b(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) b[i] = 1.0 + 0.03 * i;
  std::vector<double> x_partial(b.size()), x_full(b.size());
  partial.solve(b, x_partial);
  full.solve(b, x_full);
  EXPECT_EQ(max_abs_diff(x_partial, x_full), 0.0);
}

// The banded solver's factor slots reserve their band at bind and fill
// it on first use: the first round over the pump levels fills every
// slot (each from the active slot's factor), the second is served from
// the slots. Every step must equal a from-scratch factorization of that
// step's operator, solving that step's right-hand side, bit for bit.
TEST(BandedFactorSlots, FirstUseFillMatchesFreshFactorBitwise) {
  auto pump = microchannel::PumpModel::table1();
  ASSERT_EQ(pump.levels(), sparse::kFactorSlots);

  auto soc = make_soc(8, 8);
  load_power(soc);
  soc.model().set_all_flows(pump.q_max());
  thermal::TransientSolver sim(soc.model(), 0.1,
                               sparse::SolverKind::kBandedLu);
  sim.initialize_steady();
  std::vector<double> fresh(sim.temperatures().size());
  for (int i = 0; i < 2 * pump.levels(); ++i) {
    soc.model().set_all_flows(pump.flow_per_cavity(i % pump.levels()));
    sim.step();
    const sparse::BandedLu lu(sim.system_operator().matrix());
    lu.solve(sim.step_rhs(), fresh);
    ASSERT_EQ(std::memcmp(fresh.data(), sim.temperatures().data(),
                          fresh.size() * sizeof(double)),
              0)
        << "step " << i;
  }
  const sparse::SolverStats& stats = sim.solver_stats();
  EXPECT_EQ(stats.refactors, 0u);
  EXPECT_EQ(stats.partial_refactors, 16u);
  EXPECT_EQ(stats.factor_cache_hits, 16u);
}

// The lazy refresh rule's correctness requirement: BiCGSTAB+ILU(0)
// stepping on stale factors must agree with the exact banded-LU
// trajectory (held to fresh factorizations bit for bit above) to 1e-8
// over a full modulation sweep.
TEST(LazyRefreshStepping, MatchesExactBandedTrajectory) {
  auto pump = microchannel::PumpModel::table1();

  auto run = [&](sparse::SolverKind kind) {
    auto soc = make_soc();
    load_power(soc);
    soc.model().set_all_flows(pump.q_max());
    thermal::TransientSolver sim(soc.model(), 0.1, kind);
    sim.initialize_steady();
    for (int i = 0; i < 64; ++i) {
      soc.model().set_all_flows(pump.flow_per_cavity(i % pump.levels()));
      sim.step();
    }
    return std::vector<double>(sim.temperatures().begin(),
                               sim.temperatures().end());
  };

  const std::vector<double> lazy = run(sparse::SolverKind::kBicgstabIlu0);
  const std::vector<double> exact = run(sparse::SolverKind::kBandedLu);
  EXPECT_LT(max_abs_diff(lazy, exact), 1e-8);
}

TEST(LazyRefreshStepping, ActuallyDefersRefactors) {
  auto pump = microchannel::PumpModel::table1();
  auto soc = make_soc();
  load_power(soc);
  soc.model().set_all_flows(pump.q_max());
  thermal::TransientSolver sim(soc.model(), 0.1,
                               sparse::SolverKind::kBicgstabIlu0);
  sim.initialize_steady();
  const int flow_steps = 48;
  for (int i = 0; i < flow_steps; ++i) {
    soc.model().set_all_flows(pump.flow_per_cavity(i % pump.levels()));
    sim.step();
  }
  const sparse::SolverStats& stats = sim.solver_stats();
  // Every step changed the flow; the whole point is refactoring (much)
  // less than once per change.
  EXPECT_LT(stats.refactors, static_cast<std::uint64_t>(flow_steps) / 2)
      << "lazy refresh refactored almost every flow change";
}

TEST(FlowTransitionPredictor, DoesNotChangeResultsBeyondTolerance) {
  auto pump = microchannel::PumpModel::table1();

  auto run = [&](int slots) {
    auto soc = make_soc();
    load_power(soc);
    soc.model().set_all_flows(pump.q_max());
    thermal::TransientSolver::Options opts;
    opts.warm_start_slots = slots;
    thermal::TransientSolver sim(soc.model(), 0.1, opts);
    sim.initialize_steady();
    for (int i = 0; i < 80; ++i) {
      soc.model().set_all_flows(pump.flow_per_cavity(i % pump.levels()));
      sim.step();
    }
    return std::pair<std::vector<double>, std::uint64_t>(
        std::vector<double>(sim.temperatures().begin(),
                            sim.temperatures().end()),
        sim.predictor_hits());
  };

  const auto [with, hits_with] = run(16);
  const auto [without, hits_without] = run(0);
  EXPECT_LT(max_abs_diff(with, without), 1e-8);
  EXPECT_EQ(hits_without, 0u);
  // After the first 16-level cycle every flow state is cached; nearly
  // every subsequent flow change should hit.
  EXPECT_GT(hits_with, 40u);
}

TEST(FlowTransitionPredictor, InterpolatesBetweenBracketingCachedStates) {
  // Continuous modulation (the fuzzy-policy regime) almost never
  // revisits an exact flow state, so the exact-match cache misses every
  // step — but the new state usually lies between two cached ones, and
  // the interpolated jump prediction should engage (residual-guarded,
  // so the answer stays within solver tolerance regardless).
  auto pump = microchannel::PumpModel::table1();
  const double q0 = pump.flow_per_cavity(8);

  auto run = [&](int slots) {
    auto soc = make_soc();
    load_power(soc);
    soc.model().set_all_flows(pump.q_max());
    thermal::TransientSolver::Options opts;
    opts.warm_start_slots = slots;
    thermal::TransientSolver sim(soc.model(), 0.1, opts);
    sim.initialize_steady();
    // Smooth incommensurate oscillation: sin(i) for integer i never
    // repeats, so every step is an exact-cache miss with plenty of
    // bracketing neighbors once the slots fill.
    for (int i = 0; i < 60; ++i) {
      soc.model().set_all_flows(q0 * (1.0 + 0.25 * std::sin(0.7 * i)));
      sim.step();
    }
    return std::pair<std::vector<double>, std::uint64_t>(
        std::vector<double>(sim.temperatures().begin(),
                            sim.temperatures().end()),
        sim.predictor_interpolations());
  };

  const auto [with, interps] = run(16);
  const auto [without, none] = run(0);
  EXPECT_EQ(none, 0u);
  EXPECT_GE(interps, 5u) << "interpolating warm start never engaged";
  EXPECT_LT(max_abs_diff(with, without), 1e-8);
}

TEST(TrajectoryWarmStart, AcceptsExtrapolationAndStaysWithinTolerance) {
  // Drive a power ramp (the closed-loop regime: the RHS changes every
  // step) and check that the guarded extrapolation x0 = 2 T_n - T_{n-1}
  // actually engages, saves Krylov iterations, and never changes the
  // answer beyond solver tolerance.
  auto run = [&](bool trajectory) {
    auto soc = make_soc();
    soc.model().set_all_flows(microchannel::PumpModel::table1().q_max());
    load_power(soc, 0.2);
    thermal::TransientSolver::Options opts;
    opts.trajectory_warm_start = trajectory;
    thermal::TransientSolver sim(soc.model(), 0.1, opts);
    sim.initialize_steady();
    for (int i = 0; i < 60; ++i) {
      load_power(soc, 0.2 + 0.01 * i);  // piecewise-linear-ish ramp
      sim.step();
    }
    struct Out {
      std::vector<double> temps;
      std::uint64_t traj_hits;
      std::uint64_t iterations;
    };
    return Out{{sim.temperatures().begin(), sim.temperatures().end()},
               sim.trajectory_hits(),
               sim.solver_stats().iterations};
  };

  const auto with = run(true);
  const auto without = run(false);
  EXPECT_LT(max_abs_diff(with.temps, without.temps), 1e-8);
  EXPECT_EQ(without.traj_hits, 0u);
  // On a smooth ramp the guard should adopt the extrapolation on most
  // steps and the iteration total should drop, not rise.
  EXPECT_GT(with.traj_hits, 30u);
  EXPECT_LE(with.iterations, without.iterations);
}

TEST(FlowProfile, HydraulicNetworkDrivesColumnShares) {
  auto pump = microchannel::PumpModel::table1();
  auto soc = make_soc();
  load_power(soc);
  soc.model().set_all_flows(pump.q_max());
  const int cols = soc.model().grid().cols();

  // A distributor network that feeds the central channels through twice
  // the hydraulic conductance (fluid focusing a la Fig. 4).
  microchannel::HydraulicNetwork net;
  const auto inlet = net.add_fixed_node(1000.0);
  const auto outlet = net.add_fixed_node(0.0);
  const int channels = 40;
  std::vector<std::int32_t> edges;
  for (int ch = 0; ch < channels; ++ch) {
    const auto entry = net.add_node();
    const bool focused = ch >= channels / 3 && ch < 2 * channels / 3;
    net.add_edge(inlet, entry, (focused ? 2.0 : 1.0) * 1e-12);
    edges.push_back(net.add_edge(entry, outlet, 1e-12));
  }
  const auto fractions =
      microchannel::flow_fractions(net.solve(), edges);
  // Passed as-is: shares landing on fluid-less columns are dropped and
  // renormalized by set_cavity_flow_profile.
  const std::vector<double> shares =
      microchannel::coarsen_fractions(fractions, cols);

  const auto uniform = soc.model().steady_state();
  soc.model().set_cavity_flow_profile(0, shares);
  const auto focused = soc.model().steady_state();

  // The redistribution must actually change the field, flow totals must
  // be preserved, and the operator must pick the change up as a regular
  // indexed update.
  EXPECT_GT(max_abs_diff(uniform, focused), 1e-6);
  EXPECT_DOUBLE_EQ(soc.model().cavity_flow(0), pump.q_max());
  double share_sum = 0.0;
  for (const double s : soc.model().cavity_flow_shares(0)) share_sum += s;
  EXPECT_NEAR(share_sum, 1.0, 1e-12);

  // A profile change must dirty the operator like a flow-rate change.
  thermal::ThermalOperator op(soc.model(), 0.1);
  EXPECT_TRUE(op.in_sync());
  std::vector<double> grid_shares(static_cast<std::size_t>(cols), 0.0);
  for (int c = 0; c < cols; ++c) {
    grid_shares[static_cast<std::size_t>(c)] =
        std::max(0.0, soc.model().grid().column_flow_share(c));
  }
  soc.model().set_cavity_flow_profile(0, grid_shares);
  EXPECT_FALSE(op.in_sync());
  const sparse::ValueUpdate upd = op.update_flow();
  EXPECT_GT(upd.dirty_fraction, 0.0);
  EXPECT_TRUE(op.in_sync());
}

// Width modulation redistributes flow across a cavity's parallel
// channels: narrowed channels have a lower series hydraulic conductance
// and draw less flow at equal pressure head. The full chain
// (ModulatedChannel -> modulated_channel_conductance -> HydraulicNetwork
// -> flow_fractions -> coarsen_fractions -> set_cavity_flow_profile)
// must compose.
TEST(FlowProfile, WidthModulationRedistributesCavityFlow) {
  using namespace microchannel;
  const Coolant fluid = water(celsius_to_kelvin(27.0));
  const int channels = 20;
  const double height = um(100.0);

  HydraulicNetwork net;
  const auto inlet = net.add_fixed_node(1e4);
  const auto outlet = net.add_fixed_node(0.0);
  std::vector<std::int32_t> edges;
  for (int ch = 0; ch < channels; ++ch) {
    // Channels 8..11 narrowed over their central segments (a hot spot).
    ModulatedChannel chan;
    chan.height = height;
    chan.segment_lengths.assign(10, mm(1.0));
    chan.segment_widths.assign(10, um(50.0));
    const bool narrowed = ch >= 8 && ch < 12;
    if (narrowed) {
      for (int s = 4; s < 8; ++s) chan.segment_widths[s] = um(30.0);
    }
    edges.push_back(net.add_edge(
        inlet, outlet, modulated_channel_conductance(chan, fluid)));
  }
  const auto fractions = flow_fractions(net.solve(), edges);
  // Narrowed channels must carry less flow than uniform ones.
  EXPECT_LT(fractions[9], fractions[0]);
  double sum = 0.0;
  for (const double f : fractions) sum += f;
  EXPECT_NEAR(sum, 1.0, 1e-12);

  // And the redistribution must flow through to the RC model.
  auto pump = microchannel::PumpModel::table1();
  auto soc = make_soc();
  load_power(soc);
  soc.model().set_all_flows(pump.q_max());
  const int cols = soc.model().grid().cols();
  const std::vector<double> shares = coarsen_fractions(fractions, cols);
  const auto before = soc.model().steady_state();
  soc.model().set_cavity_flow_profile(0, shares);
  const auto after = soc.model().steady_state();
  EXPECT_GT(max_abs_diff(before, after), 0.0);
}

// Energy bookkeeping stays consistent under a focused profile: the
// advective heat removal uses the share-weighted outlet temperature.
TEST(FlowProfile, AdvectiveRemovalConsistentWithProfile) {
  auto pump = microchannel::PumpModel::table1();
  auto soc = make_soc();
  load_power(soc);
  soc.model().set_all_flows(pump.q_max());
  const int cols = soc.model().grid().cols();
  std::vector<double> shares(static_cast<std::size_t>(cols), 0.0);
  for (int c = 0; c < cols; ++c) {
    if (soc.model().grid().column_flow_share(c) > 0.0) {
      shares[static_cast<std::size_t>(c)] = (c < cols / 2) ? 2.0 : 1.0;
    }
  }
  soc.model().set_cavity_flow_profile(0, shares);
  const auto temps = soc.model().steady_state();
  double removed = 0.0;
  for (int cav = 0; cav < soc.model().n_cavities(); ++cav) {
    removed += soc.model().advective_heat_removal(temps, cav);
  }
  removed += soc.model().sink_heat_removal(temps);
  EXPECT_NEAR(removed, soc.model().total_power(),
              0.02 * soc.model().total_power());
}

}  // namespace
}  // namespace tac3d
