// Property tests for the sparse layer: solver-kind agreement on random
// diagonally-dominant SPD systems, RCM permutation validity and
// bandwidth monotonicity, in-place update_values() equivalence with a
// freshly constructed solver, shared symbolic analysis, and the fused
// kernels against their naive formulations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sparse/csr.hpp"
#include "sparse/iterative.hpp"
#include "sparse/kernels.hpp"
#include "sparse/preconditioner.hpp"
#include "sparse/rcm.hpp"
#include "sparse/solver.hpp"
#include "sparse/symbolic.hpp"

namespace tac3d::sparse {
namespace {

constexpr SolverKind kAllKinds[] = {SolverKind::kBandedLu,
                                    SolverKind::kBicgstabIlu0};

/// Random strictly diagonally dominant matrix; symmetric (hence SPD)
/// when requested, asymmetric otherwise (mimicking advection).
CsrMatrix random_dd(std::int32_t n, double density, bool symmetric,
                    Rng& rng) {
  std::vector<Triplet> trips;
  std::vector<double> rowsum(n, 0.0);
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (symmetric && j < i) continue;
      if (rng.uniform() < density) {
        const double v = rng.uniform(-1.0, 1.0);
        trips.push_back({i, j, v});
        rowsum[i] += std::abs(v);
        if (symmetric) {
          trips.push_back({j, i, v});
          rowsum[j] += std::abs(v);
        }
      }
    }
  }
  for (std::int32_t i = 0; i < n; ++i) {
    trips.push_back({i, i, rowsum[i] + 1.0 + rng.uniform()});
  }
  return CsrMatrix::from_triplets(n, n, std::move(trips));
}

std::vector<double> random_vec(std::int32_t n, Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-10.0, 10.0);
  return v;
}

double max_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d = std::max(d, std::abs(a[i] - b[i]));
  }
  return d;
}

// --- solver-kind agreement ----------------------------------------------

TEST(SolverAgreement, AllKindsAgreeOnRandomSpdSystems) {
  for (const std::int32_t n : {12, 60, 150, 300}) {
    Rng rng(100 + n);
    const CsrMatrix a = random_dd(n, 6.0 / n, /*symmetric=*/true, rng);
    ASSERT_TRUE(a.is_diagonally_dominant());
    const std::vector<double> b = random_vec(n, rng);

    std::vector<std::vector<double>> solutions;
    for (const SolverKind kind : kAllKinds) {
      auto solver = make_solver(kind, a);
      std::vector<double> x(n, 0.0);
      solver->solve(b, x);
      solutions.push_back(std::move(x));
    }
    for (std::size_t i = 1; i < solutions.size(); ++i) {
      EXPECT_LT(max_diff(solutions[0], solutions[i]), 1e-8)
          << "n=" << n << " kind " << i << " disagrees with banded LU";
    }
  }
}

TEST(SolverAgreement, AllKindsAgreeOnAsymmetricAdvectionLikeSystems) {
  for (const std::int32_t n : {40, 120}) {
    Rng rng(7000 + n);
    const CsrMatrix a = random_dd(n, 8.0 / n, /*symmetric=*/false, rng);
    const std::vector<double> b = random_vec(n, rng);
    std::vector<std::vector<double>> solutions;
    for (const SolverKind kind : kAllKinds) {
      auto solver = make_solver(kind, a);
      std::vector<double> x(n, 0.0);
      solver->solve(b, x);
      solutions.push_back(std::move(x));
    }
    for (std::size_t i = 1; i < solutions.size(); ++i) {
      EXPECT_LT(max_diff(solutions[0], solutions[i]), 1e-8) << "n=" << n;
    }
  }
}

// --- RCM properties -------------------------------------------------------

TEST(RcmProperties, OutputIsAValidPermutationThatNeverIncreasesBandwidth) {
  for (const std::int32_t n : {5, 30, 80, 200}) {
    for (const double density : {0.02, 0.1, 0.4}) {
      Rng rng(static_cast<std::uint64_t>(n * 1000 + density * 100));
      const CsrMatrix a = random_dd(n, density, /*symmetric=*/true, rng);
      const auto perm = rcm_ordering(a);

      ASSERT_EQ(static_cast<std::int32_t>(perm.size()), n);
      std::vector<std::int32_t> sorted = perm;
      std::sort(sorted.begin(), sorted.end());
      for (std::int32_t i = 0; i < n; ++i) {
        ASSERT_EQ(sorted[i], i) << "not a permutation (n=" << n << ")";
      }

      EXPECT_LE(bandwidth(a, perm), bandwidth(a, {}))
          << "RCM must never increase bandwidth (n=" << n
          << ", density=" << density << ")";
    }
  }
}

TEST(RcmProperties, HandlesDisconnectedComponents) {
  // Two disjoint paths with shuffled labels.
  const std::int32_t n = 40;
  std::vector<Triplet> trips;
  for (std::int32_t i = 0; i < n; ++i) trips.push_back({i, i, 2.0});
  for (std::int32_t i = 0; i + 1 < n / 2; ++i) {
    trips.push_back({i, i + 1, -1.0});
    trips.push_back({i + 1, i, -1.0});
  }
  for (std::int32_t i = n / 2; i + 1 < n; ++i) {
    trips.push_back({i, i + 1, -1.0});
    trips.push_back({i + 1, i, -1.0});
  }
  const auto a = CsrMatrix::from_triplets(n, n, std::move(trips));
  const auto perm = rcm_ordering(a);
  std::vector<std::int32_t> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (std::int32_t i = 0; i < n; ++i) EXPECT_EQ(sorted[i], i);
  EXPECT_LE(bandwidth(a, perm), bandwidth(a, {}));
}

// --- update_values equivalence -------------------------------------------

TEST(UpdateValues, InPlaceEditMatchesFreshlyConstructedSolver) {
  for (const SolverKind kind : kAllKinds) {
    Rng rng(42);
    CsrMatrix a = random_dd(80, 0.08, /*symmetric=*/false, rng);
    auto solver = make_solver(kind, a);

    // Perturb the values in place, keeping diagonal dominance.
    auto v = a.values_mut();
    Rng perturb(43);
    for (auto& x : v) x *= 1.0 + 0.1 * perturb.uniform();
    for (std::int32_t i = 0; i < a.rows(); ++i) {
      a.coeff_ref(i, i) = std::abs(a.coeff_ref(i, i)) + 5.0;
    }
    solver->update_values(a, ValueUpdate{{}, 1.0});  // unknown rows

    auto fresh = make_solver(kind, a);
    const std::vector<double> b = random_vec(a.rows(), rng);
    std::vector<double> x_updated(a.rows(), 0.0), x_fresh(a.rows(), 0.0);
    solver->solve(b, x_updated);
    fresh->solve(b, x_fresh);
    // Same factors, same iteration sequence: bit-identical results.
    EXPECT_EQ(max_diff(x_updated, x_fresh), 0.0) << fresh->name();
  }
}

// --- shared symbolic analysis --------------------------------------------

TEST(SymbolicStructureTest, SharedStructureGivesBitIdenticalSolutions) {
  Rng rng(31);
  const CsrMatrix a = random_dd(120, 0.05, /*symmetric=*/false, rng);
  const std::vector<double> b = random_vec(a.rows(), rng);
  const auto structure = analyze_structure(a);
  for (const SolverKind kind : kAllKinds) {
    auto plain = make_solver(kind, a);
    auto shared = make_solver(kind, a, structure);
    std::vector<double> x_plain(a.rows(), 0.0), x_shared(a.rows(), 0.0);
    plain->solve(b, x_plain);
    shared->solve(b, x_shared);
    EXPECT_EQ(max_diff(x_plain, x_shared), 0.0) << plain->name();
  }
}

TEST(SymbolicStructureTest, AnalysisWithoutOrderingServesOnlyIlu0) {
  // A session on ILU(0) analyzes its pattern without the RCM ordering:
  // the Krylov solver it serves is bit-identical, and a banded LU, which
  // needs the ordering, refuses it.
  Rng rng(37);
  const CsrMatrix a = random_dd(120, 0.05, /*symmetric=*/false, rng);
  const std::vector<double> b = random_vec(a.rows(), rng);
  const auto krylov = analyze_structure(a, /*ordering=*/false);
  EXPECT_TRUE(krylov->rcm_perm.empty());
  ASSERT_NE(krylov->ilu_schedule, nullptr);
  auto plain = make_solver(SolverKind::kBicgstabIlu0, a);
  auto shared = make_solver(SolverKind::kBicgstabIlu0, a, krylov);
  std::vector<double> x_plain(a.rows(), 0.0), x_shared(a.rows(), 0.0);
  plain->solve(b, x_plain);
  shared->solve(b, x_shared);
  EXPECT_EQ(max_diff(x_plain, x_shared), 0.0);
  EXPECT_THROW(make_solver(SolverKind::kBandedLu, a, krylov),
               InvalidArgument);
}

// --- fused kernels --------------------------------------------------------

TEST(Kernels, FusedOperationsMatchNaiveFormulations) {
  Rng rng(55);
  const std::int32_t n = 90;
  const CsrMatrix a = random_dd(n, 0.07, /*symmetric=*/false, rng);
  const std::vector<double> x = random_vec(n, rng);
  const std::vector<double> b = random_vec(n, rng);
  const std::vector<double> w = random_vec(n, rng);

  std::vector<double> ax(n);
  a.multiply(x, ax);

  std::vector<double> y(n);
  spmv(a, x, y);
  EXPECT_EQ(max_diff(y, ax), 0.0);

  double yy_naive = 0.0, wy_naive = 0.0;
  for (std::int32_t i = 0; i < n; ++i) {
    yy_naive += ax[i] * ax[i];
    wy_naive += w[i] * ax[i];
  }

  std::vector<double> y2(n);
  const double wy = spmv_dot(a, x, y2, w);
  EXPECT_EQ(max_diff(y2, ax), 0.0);
  EXPECT_NEAR(wy, wy_naive, 1e-9 * std::abs(wy) + 1e-12);

  // The sliced kernel sums its dots in natural row order: exact.
  std::vector<double> y3(n);
  double wy2 = 0.0;
  const double yy = spmv_dot2(SlicedMatrix(a), x, y3, w, &wy2);
  EXPECT_EQ(max_diff(y3, ax), 0.0);
  EXPECT_EQ(yy, yy_naive);
  EXPECT_EQ(wy2, wy_naive);

  std::vector<double> s(n);
  waxpy(s, b, -0.5, x);
  for (std::int32_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(s[i], b[i] - 0.5 * x[i]);
  }
}

TEST(Kernels, SolverArraysStartOnACacheLine) {
  // The sliced values, the ILU(0) factors and the Krylov vectors are
  // streamed in runs of 8 doubles from multiples of 8: each run is one
  // cache line only from a 64-byte-aligned base.
  const auto line = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) % kCacheLineBytes;
  };
  Rng rng(43);
  for (const std::int32_t n : {1, 7, 25, 90}) {
    const CsrMatrix a = random_dd(n, 0.1, /*symmetric=*/false, rng);
    EXPECT_EQ(line(SlicedMatrix(a).values().data()), 0u) << n;
    EXPECT_EQ(line(Ilu0Preconditioner(a).factor_values().data()), 0u) << n;
    KrylovWorkspace ws;
    ws.resize(static_cast<std::size_t>(n));
    for (const auto* v : {&ws.r, &ws.r0, &ws.p, &ws.v, &ws.s, &ws.t, &ws.ph,
                          &ws.sh}) {
      EXPECT_EQ(line(v->data()), 0u) << n;
    }
  }
}

TEST(Kernels, WorkspaceReuseAcrossSizesAndSolves) {
  KrylovWorkspace ws;
  ws.resize(10);
  EXPECT_EQ(ws.size(), 10u);
  EXPECT_EQ(ws.r.size(), 10u);
  ws.resize(25);
  EXPECT_EQ(ws.t.size(), 25u);
  ws.resize(25);  // no-op
  EXPECT_EQ(ws.sh.size(), 25u);

  // The same workspace drives repeated solves correctly.
  Rng rng(77);
  const CsrMatrix a = random_dd(25, 0.2, /*symmetric=*/false, rng);
  const SlicedMatrix sliced(a);
  Ilu0Preconditioner m(a);
  for (int trial = 0; trial < 3; ++trial) {
    const std::vector<double> b = random_vec(25, rng);
    std::vector<double> x(25, 0.0);
    const auto res = bicgstab(sliced, b, x, m, {1e-12, 2000}, ws);
    EXPECT_TRUE(res.converged);
    std::vector<double> r(25);
    double bb = 0.0;
    EXPECT_LT(std::sqrt(residual_norms(sliced, x, b, r, &bb)), 1e-6);
  }
}

}  // namespace
}  // namespace tac3d::sparse
