// Regenerates the Section II-D modeling claim in structure: the compact
// (homogenized "porous-media") RC model is orders of magnitude faster
// than a detailed solver while staying within a few percent on maximum
// temperature. The paper compared 3D-ICE against commercial CFD (975x
// speed-up, <= 3.4% max temperature error); our comparator is the
// in-repo detailed per-channel model on a refined grid (see DESIGN.md
// "Substitutions").
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "arch/mpsoc.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "microchannel/pump.hpp"
#include "thermal/transient.hpp"

namespace {

using namespace tac3d;

arch::Mpsoc3D make_soc(const thermal::GridOptions& grid) {
  return arch::Mpsoc3D(arch::Mpsoc3D::Options{
      2, arch::CoolingKind::kLiquidCooled, grid,
      arch::NiagaraConfig::paper()});
}

void load_max_power(arch::Mpsoc3D& soc) {
  soc.model().set_all_flows(microchannel::PumpModel::table1().q_max());
  std::vector<arch::CoreState> cores(soc.n_cores(),
                                     {1.0, soc.chip().vf.max_level()});
  soc.model().set_element_powers(soc.element_powers(cores, {}));
}

thermal::GridOptions compact_grid() { return thermal::GridOptions{16, 16}; }

thermal::GridOptions detailed_grid() {
  thermal::GridOptions g;
  g.rows = 48;
  g.discrete_channels = true;
  g.x_refine = 1;
  g.z_refine = 2;
  return g;
}

void BM_CompactSteadyState(benchmark::State& state) {
  auto soc = make_soc(compact_grid());
  load_max_power(soc);
  for (auto _ : state) {
    benchmark::DoNotOptimize(soc.model().steady_state());
  }
}
BENCHMARK(BM_CompactSteadyState)->Unit(benchmark::kMillisecond);

void BM_DetailedSteadyState(benchmark::State& state) {
  auto soc = make_soc(detailed_grid());
  load_max_power(soc);
  for (auto _ : state) {
    benchmark::DoNotOptimize(soc.model().steady_state());
  }
}
BENCHMARK(BM_DetailedSteadyState)->Unit(benchmark::kMillisecond);

void BM_CompactTransientStep(benchmark::State& state) {
  auto soc = make_soc(compact_grid());
  load_max_power(soc);
  thermal::TransientSolver sim(soc.model(), 0.1);
  sim.initialize_steady();
  for (auto _ : state) {
    sim.step();
  }
}
BENCHMARK(BM_CompactTransientStep)->Unit(benchmark::kMillisecond);

void BM_DetailedTransientStep(benchmark::State& state) {
  auto soc = make_soc(detailed_grid());
  load_max_power(soc);
  thermal::TransientSolver sim(soc.model(), 0.1);
  sim.initialize_steady();
  for (auto _ : state) {
    sim.step();
  }
}
BENCHMARK(BM_DetailedTransientStep)->Unit(benchmark::kMillisecond);

/// Transient-stepping throughput per solver kind, written to
/// BENCH_solver.json so the perf trajectory is tracked across PRs.
/// Measures both regimes of the closed loop: fixed flow (matrix
/// constant, warm-started solves) and flow-modulated (the fuzzy-pump
/// regime: a flow change every step, cycling all pump levels, through
/// the lazy refresh rule, the banded factor slots and the
/// flow-transition warm-start cache). Both loops are warmed up before
/// timing, so the rates are sustained-regime numbers.
void throughput_report() {
  bench::banner(
      "SOLVER - transient stepping throughput (BENCH_solver.json)",
      "sweep scalability: thousands of thermal evaluations per "
      "design-space exploration run");

  auto pump = microchannel::PumpModel::table1();
  bench::JsonObject solvers_json;
  TextTable t;
  t.set_header({"Solver", "steps/s (fixed)", "steps/s (modulated)",
                "iters/step", "refac full/part", "init [ms]"});
  TextTable ap_table;
  ap_table.set_header(
      {"Aperiodic flow (Krylov)", "steps/s", "iters/transition"});

  double nodes = 0.0;
  double dirty_fraction = 0.0;
  for (const auto kind :
       {sparse::SolverKind::kBandedLu, sparse::SolverKind::kBicgstabIlu0}) {
    auto soc = make_soc(compact_grid());
    load_max_power(soc);
    nodes = soc.model().node_count();

    bench::Stopwatch watch;
    thermal::TransientSolver sim(soc.model(), 0.1, kind);
    sim.initialize_steady();
    const double init_ms = watch.millis();

    for (int i = 0; i < 50; ++i) sim.step();  // warm-up
    const int fixed_steps = kind == sparse::SolverKind::kBandedLu ? 500 : 4000;
    watch.reset();
    for (int i = 0; i < fixed_steps; ++i) sim.step();
    const double fixed_rate = fixed_steps / watch.seconds();

    const int mod_steps = 400;
    auto modulated_loop = [&](int steps) {
      for (int i = 0; i < steps; ++i) {
        soc.model().set_all_flows(pump.flow_per_cavity(i % pump.levels()));
        sim.step();
      }
    };
    modulated_loop(4 * pump.levels());  // reach the modulation orbit
    const std::uint64_t iters0 = sim.solver_stats().iterations;
    const std::uint64_t full0 = sim.solver_stats().refactors;
    const std::uint64_t part0 = sim.solver_stats().partial_refactors;
    const std::uint64_t cache0 = sim.solver_stats().factor_cache_hits;
    watch.reset();
    modulated_loop(mod_steps);
    const double mod_rate = mod_steps / watch.seconds();
    const double mod_iters =
        static_cast<double>(sim.solver_stats().iterations - iters0) /
        mod_steps;
    // Kept separate: a full refactor is the expensive rebuild the lazy
    // rule avoids; a partial refresh (banded tail) is the cheap exact
    // one it embraces.
    const std::uint64_t mod_full = sim.solver_stats().refactors - full0;
    const std::uint64_t mod_partial =
        sim.solver_stats().partial_refactors - part0;
    // Lever column of the banded factor-slot cache: modulated flow
    // changes served by switching to a cached factorization (bitwise
    // equal to refactoring) instead of eliminating anything.
    const std::uint64_t mod_cache_hits =
        sim.solver_stats().factor_cache_hits - cache0;
    dirty_fraction = sim.system_operator().last_dirty_fraction();

    const char* name = kind == sparse::SolverKind::kBandedLu
                           ? "banded-lu(rcm)"
                           : "bicgstab+ilu0";

    // Aperiodic-flow leg (Krylov kinds only): each transition drives
    // every cavity to a fresh per-cavity flow from an irrational-
    // rotation sequence, so no two flow states repeat and the exact
    // transition cache never hits — every transition is a first visit,
    // warm-started by the trajectory or the plain warm start alone.
    // Between transitions the loop settles a few constant-flow steps
    // (the closed loop holds flow between policy decisions too), so the
    // Krylov cost measured at each transition step isolates the flow
    // jump itself.
    double ap_rate = 0.0, ap_iters = 0.0;
    const int ap_transitions = 60, ap_settle = 6, ap_warm = 10;
    if (kind != sparse::SolverKind::kBandedLu) {
      const int n_cav = soc.model().n_cavities();
      auto set_aperiodic_flows = [&](int k) {
        for (int cav = 0; cav < n_cav; ++cav) {
          // Distinct irrational stride per cavity; fract() of the
          // rotation never revisits a value and never tracks another
          // cavity proportionally.
          const double stride = 0.618033988749895 + 0.089 * cav;
          const double u = std::fmod(stride * k + 0.1 * (cav + 1), 1.0);
          soc.model().set_cavity_flow(cav, (0.45 + 0.35 * u) * pump.q_max());
        }
      };
      thermal::TransientSolver ap(soc.model(), 0.1, kind);
      ap.set_state(std::vector<double>(sim.temperatures().begin(),
                                       sim.temperatures().end()));
      // Returns mean Krylov iterations spent on the transition step.
      auto aperiodic_run = [&](int from, int transitions) {
        std::uint64_t trans_iters = 0;
        for (int k = 0; k < transitions; ++k) {
          set_aperiodic_flows(from + k);
          const std::uint64_t i0 = ap.solver_stats().iterations;
          ap.step();
          trans_iters += ap.solver_stats().iterations - i0;
          for (int j = 0; j < ap_settle; ++j) ap.step();
        }
        return static_cast<double>(trans_iters) / transitions;
      };
      aperiodic_run(0, ap_warm);
      watch.reset();
      ap_iters = aperiodic_run(ap_warm, ap_transitions);
      ap_rate = ap_transitions * (1 + ap_settle) / watch.seconds();
      ap_table.add_row({name, fmt(ap_rate, 0), fmt(ap_iters, 2)});
    }

    t.add_row({name, fmt(fixed_rate, 0), fmt(mod_rate, 0), fmt(mod_iters, 2),
               fmt(static_cast<double>(mod_full), 0) + "/" +
                   fmt(static_cast<double>(mod_partial), 0),
               fmt(init_ms, 1)});
    bench::JsonObject s;
    s.set("steps_per_sec_fixed_flow", fixed_rate)
        .set("steps_per_sec_flow_modulated", mod_rate)
        .set("modulated_iterations_per_step", mod_iters)
        .set("modulated_full_refactors", static_cast<std::int64_t>(mod_full))
        .set("modulated_partial_refreshes",
             static_cast<std::int64_t>(mod_partial))
        .set("modulated_factor_cache_hits",
             static_cast<std::int64_t>(mod_cache_hits))
        .set("init_steady_ms", init_ms);
    if (kind != sparse::SolverKind::kBandedLu) {
      s.set("aperiodic_steps_per_sec", ap_rate)
          .set("aperiodic_transition_iterations", ap_iters);
    }
    solvers_json.set(name, s);
  }
  std::cout << t << '\n';
  bench::result_line("Flow-update dirty fraction (advection nnz / nnz)",
                     dirty_fraction, "");
  std::cout << '\n';
  std::cout << ap_table << '\n';

  bench::JsonObject root;
  root.set("bench", "bench_solver_speed")
      .set("grid", "16x16 compact, 2-tier liquid-cooled")
      .set("nodes", nodes)
      .set("dt_seconds", 0.1)
      .set("modulated_steps", 400)
      .set("flow_update_dirty_fraction", dirty_fraction)
      .set("solvers", solvers_json);
  bench::write_json("BENCH_solver.json", root);
  std::cout << '\n';
}

void accuracy_report() {
  bench::banner(
      "SOLVER - compact vs detailed model: speed and accuracy",
      "3D-ICE-style compact modeling: large speed-up (paper: up to 975x "
      "vs CFD) at small error (paper: max temperature error 3.4%)");

  auto compact = make_soc(compact_grid());
  auto detailed = make_soc(detailed_grid());
  load_max_power(compact);
  load_max_power(detailed);

  bench::Stopwatch watch;
  const auto temps_c = compact.model().steady_state();
  const double ms_c = watch.millis();
  watch.reset();
  const auto temps_d = detailed.model().steady_state();
  const double ms_d = watch.millis();

  // Compare per-element maximum temperatures (the quantity policies use).
  TextTable t;
  t.set_header({"Element", "Compact [C]", "Detailed [C]", "Error [K]"});
  double max_err = 0.0, max_rise = 0.0;
  const double t_ref = compact.model().grid().spec().coolant_inlet;
  for (int e = 0; e < compact.model().grid().element_count(); ++e) {
    const auto& name = compact.model().grid().element(e).name;
    const double tc = compact.model().element_max(temps_c, e);
    const int ed = detailed.model().grid().element_id(name);
    const double td = detailed.model().element_max(temps_d, ed);
    max_err = std::max(max_err, std::abs(tc - td));
    max_rise = std::max(max_rise, td - t_ref);
    if (e < 6 || std::abs(tc - td) == max_err) {
      t.add_row({name, fmt(kelvin_to_celsius(tc), 2),
                 fmt(kelvin_to_celsius(td), 2), fmt(tc - td, 2)});
    }
  }
  std::cout << t << '\n';
  bench::result_line("Compact nodes",
                     compact.model().node_count(), "");
  bench::result_line("Detailed nodes",
                     detailed.model().node_count(), "");
  bench::result_line("Steady-state speed-up (detailed/compact)",
                     ms_d / ms_c, "x", "paper: up to 975x vs CFD");
  bench::result_line("Max element temperature error",
                     100.0 * max_err / max_rise, "% of rise",
                     "paper: <= 3.4%");
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  accuracy_report();
  throughput_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
