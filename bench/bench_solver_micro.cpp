// Micro-benchmarks of the sparse kernels underlying the RC thermal
// solver: SpMV (CSR and sliced-ELL, against an L2-resident triad as the
// bandwidth reference), ILU(0) refactorization and apply (scalar chunk
// kernel and batched lanes), preconditioned BiCGSTAB and banded LU, swept over grid sizes
// (the matrices are real RC systems assembled from the paper's stacks).
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <memory>
#include <vector>

#include "arch/mpsoc.hpp"
#include "microchannel/pump.hpp"
#include "sparse/banded_lu.hpp"
#include "sparse/batched.hpp"
#include "sparse/iterative.hpp"
#include "sparse/kernels.hpp"
#include "sparse/preconditioner.hpp"
#include "sparse/sliced.hpp"

namespace {

using namespace tac3d;

/// Backward-Euler RC matrix of a stack (liquid-cooled unless asked
/// otherwise) at grid n x n.
sparse::CsrMatrix rc_matrix(
    int n, int tiers = 2,
    arch::CoolingKind cooling = arch::CoolingKind::kLiquidCooled) {
  arch::Mpsoc3D soc(arch::Mpsoc3D::Options{tiers, cooling,
                                           thermal::GridOptions{n, n},
                                           arch::NiagaraConfig::paper()});
  if (cooling == arch::CoolingKind::kLiquidCooled) {
    soc.model().set_all_flows(microchannel::PumpModel::table1().q_max());
  }
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

/// The Krylov SpMV + dot (spmv_dot) on the paper's 16x16 operators, CSR
/// against the sliced-ELL copy the solver runs; arguments: sliced (0 =
/// CSR), tiers, air (1 = air-cooled, whose heat-sink row is a long row).
/// ns_per_nnz divides by the CSR nonzeros for both layouts;
/// bytes_per_apply counts what one apply reads and writes, each array
/// once: x and w read, y written, and for CSR the values, column indices
/// and row pointers; for the sliced layout 8 B per value slot (padding
/// included), one 4 B column index per contiguous slice column and eight
/// per gathered one, the slice pointers and contiguity masks, and the long
/// rows' column indices and pointers. padding is the sliced layout's
/// extra slots per nonzero; contiguous is the share of its slice columns
/// that load x in one piece.
void BM_SpmvDot(benchmark::State& state) {
  const bool sliced = state.range(0) != 0;
  const auto a = rc_matrix(16, static_cast<int>(state.range(1)),
                           state.range(2) != 0
                               ? arch::CoolingKind::kAirCooled
                               : arch::CoolingKind::kLiquidCooled);
  const sparse::SlicedMatrix s(a);
  const double n = static_cast<double>(a.rows());
  std::vector<double> x(a.rows()), w(a.rows()), y(a.rows());
  for (std::int32_t i = 0; i < a.rows(); ++i) {
    x[i] = 300.0 + std::sin(0.1 * i);
    w[i] = std::cos(0.1 * i);
  }
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    const double d = sliced ? sparse::spmv_dot(s, x, y, w)
                            : sparse::spmv_dot(a, x, y, w);
    benchmark::DoNotOptimize(d);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  const double nnz = static_cast<double>(a.nnz());
  const sparse::SlicedPattern& p = s.pattern();
  const double slots = static_cast<double>(p.slots());
  double contiguous = 0.0, slice_columns = 0.0;
  for (std::int32_t sl = 0; sl < p.slices(); ++sl) {
    contiguous += std::popcount(p.contiguous[sl]);
    slice_columns +=
        (p.slice_ptr[sl + 1] - p.slice_ptr[sl]) / sparse::kSliceRows;
  }
  const double long_entries =
      static_cast<double>(p.long_ptr.back() - p.long_ptr.front());
  state.counters["ns_per_nnz"] =
      ns / (static_cast<double>(state.iterations()) * nnz);
  state.counters["bytes_per_apply"] =
      sliced ? 8.0 * slots + 4.0 * contiguous +
                   32.0 * (slice_columns - contiguous) +
                   8.0 * p.slices() + 4.0 +
                   4.0 * long_entries +
                   8.0 * static_cast<double>(p.long_rows.size()) + 24.0 * n
             : 12.0 * nnz + 4.0 * (n + 1.0) + 24.0 * n;
  state.counters["padding"] = sliced ? slots / nnz - 1.0 : 0.0;
  state.counters["contiguous"] = sliced ? contiguous / slice_columns : 0.0;
}
BENCHMARK(BM_SpmvDot)
    ->ArgNames({"sliced", "tiers", "air"})
    ->Args({0, 2, 0})
    ->Args({1, 2, 0})
    ->Args({0, 4, 0})
    ->Args({1, 4, 0})
    ->Args({0, 4, 1})
    ->Args({1, 4, 1});

/// Bandwidth reference for the kernels above: the triad a = b + s c over
/// arrays sized to a quarter of this core's L2 together (2 MiB assumed
/// when the size is unknown). The solver's working sets sit in L2 (the
/// 4-tier operator's SpMV touches about 0.15 of a 2 MiB L2), so an
/// L2-resident stream, not DRAM, is their roofline. bytes_per_second
/// counts 24 B per element (two reads, one write).
void BM_TriadL2(benchmark::State& state) {
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const std::size_t bytes =
      static_cast<std::size_t>(l2 > 0 ? l2 : 2L << 20) / 4;
  const std::size_t n = bytes / (3 * sizeof(double));
  std::vector<double> a(n), b(n), c(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = 1.0 + 1e-3 * static_cast<double>(i);
    c[i] = 2.0 - 1e-3 * static_cast<double>(i);
  }
  const double scale = 0.5 + 1e-9 * static_cast<double>(n);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + scale * c[i];
    benchmark::DoNotOptimize(a.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(24 * n));
  state.counters["working_set_bytes"] = static_cast<double>(3 * 8 * n);
  state.SetLabel("L2");
}
BENCHMARK(BM_TriadL2);

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
/// bytes one apply computes on (each array once: factor values — the
/// scalar chunk layout and the batched row-major one both hold exactly
/// nnz slots per lane — the off-diagonal entries' column indices, the
/// row order of both sweeps, r read, z written), and the level count of
/// the schedule the solves walk.
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

/// Scalar apply on a paper operator; arguments: tiers, grid, air (1 =
/// air-cooled). The legs: the 16x16 liquid-cooled stacks, the service's
/// 2-tier 12x12 one and the 4-tier 16x16 air-cooled one, whose heat-sink
/// row has 256 lower entries. kernel is 1 when the build has the AVX-512
/// chunk kernel, and chunked is then the share of the two sweeps' rows
/// it solves 8 at a time (the rest run the per-row loop); without it
/// chunks are one row and chunked reads 1.
void BM_Ilu0Apply(benchmark::State& state) {
  const auto a = rc_matrix(static_cast<int>(state.range(1)),
                           static_cast<int>(state.range(0)),
                           state.range(2) != 0
                               ? arch::CoolingKind::kAirCooled
                               : arch::CoolingKind::kLiquidCooled);
  const sparse::Ilu0Preconditioner precond(a);
  std::vector<double> r(a.rows()), z(a.rows());
  for (std::int32_t i = 0; i < a.rows(); ++i) r[i] = 1.0 + std::sin(0.1 * i);
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    precond.apply(r, z);
    benchmark::DoNotOptimize(z.data());
    benchmark::ClobberMemory();
  }
  const sparse::IluSchedule& s = precond.schedule();
  report_ilu_apply(state, s, 1, start);
  state.counters["chunked"] =
      static_cast<double>(s.chunked_rows()) / (2.0 * s.rows);
  state.counters["kernel"] = sparse::kIluAvx512Apply;
}
BENCHMARK(BM_Ilu0Apply)
    ->ArgNames({"tiers", "grid", "air"})
    ->Args({2, 16, 0})
    ->Args({4, 16, 0})
    ->Args({2, 12, 0})
    ->Args({4, 16, 1});

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
  const sparse::SlicedMatrix sliced(a);
  sparse::Ilu0Preconditioner precond(a);
  std::vector<double> b(a.rows(), 1.0);
  for (auto _ : state) {
    std::vector<double> x(a.rows(), 300.0);
    const auto res = sparse::bicgstab(sliced, b, x, precond, {1e-10, 2000});
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
