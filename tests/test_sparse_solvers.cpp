// Direct and iterative solver tests, including property sweeps on random
// diagonally dominant systems (the class produced by the RC assembly),
// and the lazy refresh rule at its thresholds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sparse/banded_lu.hpp"
#include "sparse/csr.hpp"
#include "sparse/iterative.hpp"
#include "sparse/preconditioner.hpp"
#include "sparse/rcm.hpp"
#include "sparse/refresh.hpp"
#include "sparse/solver.hpp"

namespace tac3d::sparse {
namespace {

/// Random strictly diagonally dominant sparse matrix; asymmetric if
/// requested (mimicking advection terms).
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

double residual_inf(const CsrMatrix& a, const std::vector<double>& x,
                    const std::vector<double>& b) {
  std::vector<double> ax(b.size());
  a.multiply(x, ax);
  double r = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    r = std::max(r, std::abs(ax[i] - b[i]));
  }
  return r;
}

TEST(Rcm, ReducesBandwidthOfALongPath) {
  // A path graph numbered randomly has large bandwidth; RCM restores ~1.
  const std::int32_t n = 50;
  std::vector<std::int32_t> label(n);
  for (std::int32_t i = 0; i < n; ++i) label[i] = i;
  Rng rng(7);
  for (std::int32_t i = n - 1; i > 0; --i) {
    std::swap(label[i], label[rng.uniform_index(i + 1)]);
  }
  std::vector<Triplet> trips;
  for (std::int32_t i = 0; i < n; ++i) trips.push_back({label[i], label[i], 2.0});
  for (std::int32_t i = 0; i + 1 < n; ++i) {
    trips.push_back({label[i], label[i + 1], -1.0});
    trips.push_back({label[i + 1], label[i], -1.0});
  }
  const auto a = CsrMatrix::from_triplets(n, n, std::move(trips));
  const auto perm = rcm_ordering(a);
  EXPECT_GT(bandwidth(a, {}), 5);
  EXPECT_EQ(bandwidth(a, perm), 1);
}

TEST(BandedLu, SolvesSmallSystemExactly) {
  const CsrMatrix a = CsrMatrix::from_triplets(
      2, 2, {{0, 0, 2.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 3.0}});
  BandedLu lu(a);
  const std::vector<double> b{5.0, 10.0};
  std::vector<double> x(2);
  lu.solve(b, x);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(BandedLu, RefactorAfterValueUpdate) {
  CsrMatrix a = CsrMatrix::from_triplets(
      2, 2, {{0, 0, 2.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 3.0}});
  BandedLu lu(a);
  a.coeff_ref(0, 0) = 4.0;
  lu.factor(a);
  const std::vector<double> b{9.0, 10.0};
  std::vector<double> x(2);
  lu.solve(b, x);
  EXPECT_NEAR(4.0 * x[0] + x[1], 9.0, 1e-12);
  EXPECT_NEAR(x[0] + 3.0 * x[1], 10.0, 1e-12);
}

struct SolverCase {
  std::int32_t n;
  double density;
  bool symmetric;
};

class SolverSweep : public ::testing::TestWithParam<SolverCase> {};

TEST_P(SolverSweep, BandedLuResidualSmall) {
  const auto p = GetParam();
  Rng rng(42 + p.n);
  const CsrMatrix a = random_dd(p.n, p.density, p.symmetric, rng);
  std::vector<double> b(p.n);
  for (auto& v : b) v = rng.uniform(-10.0, 10.0);
  BandedLu lu(a);
  std::vector<double> x(p.n);
  lu.solve(b, x);
  EXPECT_LT(residual_inf(a, x, b), 1e-8);
}

TEST_P(SolverSweep, BicgstabIlu0ResidualSmall) {
  const auto p = GetParam();
  Rng rng(1042 + p.n);
  const CsrMatrix a = random_dd(p.n, p.density, p.symmetric, rng);
  std::vector<double> b(p.n);
  for (auto& v : b) v = rng.uniform(-10.0, 10.0);
  std::vector<double> x(p.n, 0.0);
  Ilu0Preconditioner m(a);
  const auto res = bicgstab(SlicedMatrix(a), b, x, m, {1e-12, 2000});
  EXPECT_TRUE(res.converged);
  EXPECT_LT(residual_inf(a, x, b), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    RandomSystems, SolverSweep,
    ::testing::Values(SolverCase{10, 0.3, true}, SolverCase{10, 0.3, false},
                      SolverCase{50, 0.1, true}, SolverCase{50, 0.1, false},
                      SolverCase{200, 0.02, true},
                      SolverCase{200, 0.02, false},
                      SolverCase{400, 0.01, false}));

TEST(SolverFacade, AllKindsSolveTheSameSystem) {
  Rng rng(9);
  const CsrMatrix a = random_dd(64, 0.1, false, rng);
  std::vector<double> b(64);
  for (auto& v : b) v = rng.uniform(-5.0, 5.0);
  for (const auto kind : {SolverKind::kBandedLu, SolverKind::kBicgstabIlu0}) {
    auto solver = make_solver(kind, a);
    std::vector<double> x(64, 0.0);
    solver->solve(b, x);
    EXPECT_LT(residual_inf(a, x, b), 1e-6) << solver->name();
  }
}

TEST(SolverFacade, UpdateValuesTracksMatrixChanges) {
  Rng rng(11);
  CsrMatrix a = random_dd(32, 0.15, false, rng);
  auto solver = make_solver(SolverKind::kBandedLu, a);
  // Change a diagonal value and refresh with the rows unknown.
  a.coeff_ref(5, 5) *= 3.0;
  solver->update_values(a, ValueUpdate{{}, 1.0});
  std::vector<double> b(32, 1.0), x(32, 0.0);
  solver->solve(b, x);
  EXPECT_LT(residual_inf(a, x, b), 1e-8);
}

TEST(Ilu0, ExactForTriangularPattern) {
  // For a lower-triangular matrix the ILU(0) factorization is exact.
  const CsrMatrix a = CsrMatrix::from_triplets(
      3, 3,
      {{0, 0, 2.0}, {1, 0, -1.0}, {1, 1, 3.0}, {2, 1, -1.0}, {2, 2, 4.0}});
  Ilu0Preconditioner m(a);
  std::vector<double> b{2.0, 2.0, 3.0}, z(3);
  m.apply(b, z);
  EXPECT_NEAR(z[0], 1.0, 1e-12);
  EXPECT_NEAR(z[1], 1.0, 1e-12);
  EXPECT_NEAR(z[2], 1.0, 1e-12);
}

// --- LazyRefresh: the refresh rule at its thresholds ----------------------

static_assert(kMaxDirtyFraction == 0.5 && kMaxIterationGrowth == 3.0 &&
                  kIterationSlack == 8,
              "the threshold tests below are written for these values");

TEST(LazyRefresh, DirtyFractionFiresPastHalfTheRows) {
  LazyRefresh refresh(10);
  SolverStats stats;
  const std::vector<std::int32_t> five{0, 1, 2, 3, 4}, sixth{5};
  EXPECT_FALSE(refresh.update(ValueUpdate{five, 0.5}, stats));  // 5/10
  EXPECT_TRUE(refresh.stale());
  EXPECT_TRUE(refresh.update(ValueUpdate{sixth, 0.1}, stats));  // 6/10
}

TEST(LazyRefresh, RepeatedRowsCountOnce) {
  LazyRefresh refresh(10);
  SolverStats stats;
  const std::vector<std::int32_t> five{0, 1, 2, 3, 4}, again{4, 3};
  EXPECT_FALSE(refresh.update(ValueUpdate{five, 0.5}, stats));
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(refresh.update(ValueUpdate{again, 0.2}, stats));
  }
  EXPECT_EQ(stats.deferred_updates, 9u);
}

TEST(LazyRefresh, UnknownRowsFire) {
  LazyRefresh refresh(10);
  SolverStats stats;
  EXPECT_TRUE(refresh.update(ValueUpdate{{}, 1.0}, stats));
  EXPECT_EQ(stats.deferred_updates, 0u);
}

TEST(LazyRefresh, EmptyUpdateDoesNothing) {
  LazyRefresh refresh(10);
  SolverStats stats;
  EXPECT_FALSE(refresh.update(ValueUpdate{{}, 0.0}, stats));
  EXPECT_FALSE(refresh.stale());
  EXPECT_EQ(stats.deferred_updates, 0u);
  EXPECT_EQ(stats.refactors, 0u);
}

TEST(LazyRefresh, UpdateThatForcesARebuildIsNotDeferred) {
  LazyRefresh refresh(10);
  SolverStats stats;
  const std::vector<std::int32_t> first{0, 1, 2}, second{3, 4, 5};
  EXPECT_FALSE(refresh.update(ValueUpdate{first, 0.3}, stats));
  EXPECT_TRUE(refresh.update(ValueUpdate{second, 0.3}, stats));
  refresh.refactored(stats);
  EXPECT_FALSE(refresh.stale());
  EXPECT_EQ(stats.deferred_updates, 1u);
  EXPECT_EQ(stats.refactors, 1u);
}

TEST(LazyRefresh, FirstCleanSolveAfterRefactorSetsTheBaseline) {
  LazyRefresh refresh(10);
  SolverStats stats;
  const std::vector<std::int32_t> row{0};
  refresh.refactored(stats);
  EXPECT_FALSE(refresh.solved(4, stats));   // baseline 4
  EXPECT_FALSE(refresh.solved(30, stats));  // later clean solves keep it
  ASSERT_FALSE(refresh.update(ValueUpdate{row, 0.1}, stats));
  EXPECT_FALSE(refresh.solved(20, stats));  // limit 3 * 4 + 8 = 20
  EXPECT_TRUE(refresh.solved(21, stats));

  refresh.refactored(stats);
  EXPECT_FALSE(refresh.solved(10, stats));  // re-baselined at 10
  ASSERT_FALSE(refresh.update(ValueUpdate{row, 0.1}, stats));
  EXPECT_FALSE(refresh.solved(38, stats));  // limit 3 * 10 + 8 = 38
  EXPECT_TRUE(refresh.solved(39, stats));
  EXPECT_EQ(stats.solves, 7u);
  EXPECT_EQ(stats.iterations, 4u + 30u + 20u + 21u + 10u + 38u + 39u);
}

TEST(LazyRefresh, ZeroBaselineUsesAFloorOfOne) {
  LazyRefresh refresh(10);
  SolverStats stats;
  const std::vector<std::int32_t> row{0};
  EXPECT_FALSE(refresh.solved(0, stats));  // baseline 0
  ASSERT_FALSE(refresh.update(ValueUpdate{row, 0.1}, stats));
  EXPECT_FALSE(refresh.solved(11, stats));  // limit 3 * max(1, 0) + 8 = 11
  EXPECT_TRUE(refresh.solved(12, stats));
}

}  // namespace
}  // namespace tac3d::sparse
