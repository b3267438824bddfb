// Micro-benchmarks of the sparse kernels underlying the RC thermal
// solver: SpMV, ILU(0) refactorization and apply (scalar and batched),
// preconditioned BiCGSTAB and banded LU, swept over grid sizes (the
// matrices are real RC systems assembled from the liquid-cooled stack).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <vector>

#include "arch/mpsoc.hpp"
#include "microchannel/pump.hpp"
#include "sparse/banded_lu.hpp"
#include "sparse/batched.hpp"
#include "sparse/iterative.hpp"
#include "sparse/preconditioner.hpp"

namespace {

using namespace tac3d;

/// Backward-Euler RC matrix of a liquid-cooled stack at grid n x n.
sparse::CsrMatrix rc_matrix(int n, int tiers = 2) {
  arch::Mpsoc3D soc(arch::Mpsoc3D::Options{
      tiers, arch::CoolingKind::kLiquidCooled, thermal::GridOptions{n, n},
      arch::NiagaraConfig::paper()});
  soc.model().set_all_flows(microchannel::PumpModel::table1().q_max());
  // Backward-Euler system: G + C/dt.
  sparse::CsrMatrix a = soc.model().conductance();
  const auto c = soc.model().capacitance();
  for (std::int32_t i = 0; i < a.rows(); ++i) {
    a.coeff_ref(i, i) += c[i] / 0.1;
  }
  return a;
}

void BM_SpMV(benchmark::State& state) {
  const auto a = rc_matrix(static_cast<int>(state.range(0)));
  std::vector<double> x(a.cols(), 1.0), y(a.rows());
  for (auto _ : state) {
    a.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_SpMV)->Arg(8)->Arg(16)->Arg(24)->Arg(32);

void BM_Ilu0Refactor(benchmark::State& state) {
  const auto a = rc_matrix(static_cast<int>(state.range(0)));
  sparse::Ilu0Preconditioner precond(a);
  for (auto _ : state) {
    precond.refactor(a);
  }
}
BENCHMARK(BM_Ilu0Refactor)->Arg(8)->Arg(16)->Arg(24)->Arg(32);

/// Kernel-level view of the ILU(0) triangular solves: time per factor
/// nonzero and lane over the timed loop that began at \p start, the
/// bytes one apply computes on (each array once: factor values, column
/// indices, row order, r read, z written), and the level count of the
/// schedule the solves walk.
void report_ilu_apply(benchmark::State& state, const sparse::IluSchedule& s,
                      int lanes, std::chrono::steady_clock::time_point start) {
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  const double nnz = static_cast<double>(s.nnz);
  const double n = static_cast<double>(s.rows);
  state.counters["ns_per_nnz"] =
      ns / (static_cast<double>(state.iterations()) * nnz * lanes);
  state.counters["bytes_per_apply"] =
      8.0 * nnz * lanes + 4.0 * (nnz - n) + 8.0 * n + 16.0 * n * lanes;
  state.counters["levels"] = s.lower.levels;
}

/// Scalar apply on the paper's 16x16 operator; argument: tiers.
void BM_Ilu0Apply(benchmark::State& state) {
  const auto a = rc_matrix(16, static_cast<int>(state.range(0)));
  const sparse::Ilu0Preconditioner precond(a);
  std::vector<double> r(a.rows()), z(a.rows());
  for (std::int32_t i = 0; i < a.rows(); ++i) r[i] = 1.0 + std::sin(0.1 * i);
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    precond.apply(r, z);
    benchmark::DoNotOptimize(z.data());
    benchmark::ClobberMemory();
  }
  report_ilu_apply(state, precond.schedule(), 1, start);
}
BENCHMARK(BM_Ilu0Apply)->ArgName("tiers")->Arg(2)->Arg(4);

/// Batched apply on the paper's 16x16 operator; arguments: tiers, lanes.
void BM_BatchedIlu0Apply(benchmark::State& state) {
  const auto a = rc_matrix(16, static_cast<int>(state.range(0)));
  const int lanes = static_cast<int>(state.range(1));
  const sparse::BatchedCsr ba(a, lanes);
  const sparse::BatchedIlu0Preconditioner precond(ba);
  const std::size_t total = static_cast<std::size_t>(a.rows()) * lanes;
  std::vector<double> r(total), z(total);
  for (std::size_t i = 0; i < total; ++i) r[i] = 1.0 + std::sin(0.1 * i);
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    precond.apply(r, z);
    benchmark::DoNotOptimize(z.data());
    benchmark::ClobberMemory();
  }
  report_ilu_apply(state, precond.schedule(), lanes, start);
}
BENCHMARK(BM_BatchedIlu0Apply)
    ->ArgNames({"tiers", "lanes"})
    ->ArgsProduct({{2, 4}, {1, 2, 4, 8}});

void BM_BicgstabSolve(benchmark::State& state) {
  const auto a = rc_matrix(static_cast<int>(state.range(0)));
  sparse::Ilu0Preconditioner precond(a);
  std::vector<double> b(a.rows(), 1.0);
  for (auto _ : state) {
    std::vector<double> x(a.rows(), 300.0);
    const auto res = sparse::bicgstab(a, b, x, precond, {1e-10, 2000});
    benchmark::DoNotOptimize(res.iterations);
  }
}
BENCHMARK(BM_BicgstabSolve)->Arg(8)->Arg(16)->Arg(24)->Arg(32);

void BM_BandedLuFactor(benchmark::State& state) {
  const auto a = rc_matrix(static_cast<int>(state.range(0)));
  sparse::BandedLu lu(a);
  for (auto _ : state) {
    lu.factor(a);
  }
}
BENCHMARK(BM_BandedLuFactor)->Arg(8)->Arg(16)->Arg(24);

void BM_BandedLuSolve(benchmark::State& state) {
  const auto a = rc_matrix(static_cast<int>(state.range(0)));
  sparse::BandedLu lu(a);
  std::vector<double> b(a.rows(), 1.0), x(a.rows());
  for (auto _ : state) {
    lu.solve(b, x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_BandedLuSolve)->Arg(8)->Arg(16)->Arg(24);

}  // namespace

BENCHMARK_MAIN();
