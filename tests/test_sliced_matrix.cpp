// Tests of the sliced-ELL (SELL-8) layout. The layout itself: slices are
// aligned by column offset, with interior and out-of-range padding, and
// fall back to the positional layout when the offsets do not fit; on the
// backward-Euler operators of the 12 paper stacks the slot count and the
// contiguous slice columns are pinned. Bitwise properties: on random
// patterns (row lengths 0-9, one dense row above the slicing cap, sizes
// with n % 8 in {0, 1, 7}), 2D 5-point and 3D 7-point stencils (cavity
// layers without lateral couplings, a two-layer bypass, a sink column)
// and vectors holding negative entries and ±0.0, every sliced kernel
// must equal a natural-order CSR loop kept here, byte for byte, in its
// output vector and in its returned sums; an incremental refill must
// equal a full one; and sparse::bicgstab must equal the natural-CSR
// BiCGSTAB loop it replaced (separate dot(r0, r), reporting residual) in
// x and in iteration count, with fresh and with stale ILU(0) factors.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "arch/mpsoc.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "sparse/csr.hpp"
#include "sparse/iterative.hpp"
#include "sparse/preconditioner.hpp"
#include "sparse/sliced.hpp"
#include "sparse/solver.hpp"
#include "sparse/symbolic.hpp"
#include "thermal/operator.hpp"

namespace tac3d::sparse {
namespace {

constexpr std::int32_t kSizes[] = {40, 57, 63, 120, 121, 127};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Random square matrix: row lengths 0-9 with random columns, plus one
/// dense row (every column) above the slicing cap. Values take both
/// signs and, one in ten, ±0.0. \p solvable adds a dominant diagonal to
/// every row instead (so row lengths run 1-10) and keeps the
/// off-diagonals nonzero.
CsrMatrix random_matrix(std::int32_t n, bool solvable, Rng& rng) {
  const std::int32_t dense = static_cast<std::int32_t>(rng.uniform_index(n));
  std::vector<Triplet> t;
  for (std::int32_t i = 0; i < n; ++i) {
    std::vector<std::int32_t> cols;
    if (i == dense) {
      for (std::int32_t j = 0; j < n; ++j) cols.push_back(j);
    } else {
      const int len = static_cast<int>(rng.uniform_index(10));
      while (static_cast<int>(cols.size()) < len) {
        const auto j = static_cast<std::int32_t>(rng.uniform_index(n));
        if (std::find(cols.begin(), cols.end(), j) == cols.end()) {
          cols.push_back(j);
        }
      }
    }
    double rowsum = 0.0;
    for (const std::int32_t j : cols) {
      if (solvable && j == i) continue;
      double v = rng.uniform(-1.0, 1.0);
      if (!solvable && rng.uniform() < 0.1) {
        v = rng.uniform() < 0.5 ? 0.0 : -0.0;
      }
      rowsum += std::abs(v);
      t.push_back({i, j, v});
    }
    if (solvable) t.push_back({i, i, rowsum + 1.0 + rng.uniform()});
  }
  return CsrMatrix::from_triplets(n, n, std::move(t));
}

/// 5-point stencil on an nx x ny grid plus a sink node (last) whose row
/// couples to every node (a long row). One row in ten drops a random
/// coupling, so most slice columns read consecutive columns and some do
/// not. Values as in random_matrix.
CsrMatrix stencil_matrix(int nx, int ny, bool solvable, Rng& rng) {
  const std::int32_t sink = nx * ny;
  std::vector<Triplet> t;
  for (std::int32_t i = 0; i <= sink; ++i) {
    std::vector<std::int32_t> cols;
    if (i == sink) {
      for (std::int32_t j = 0; j <= sink; ++j) cols.push_back(j);
    } else {
      const int x = i % nx, y = i / nx;
      if (y > 0) cols.push_back(i - nx);
      if (x > 0) cols.push_back(i - 1);
      cols.push_back(i);
      if (x + 1 < nx) cols.push_back(i + 1);
      if (y + 1 < ny) cols.push_back(i + nx);
      if (rng.uniform() < 0.1) {
        cols.erase(cols.begin() +
                   static_cast<std::ptrdiff_t>(rng.uniform_index(cols.size())));
      }
    }
    double rowsum = 0.0;
    for (const std::int32_t j : cols) {
      if (solvable && j == i) continue;
      double v = rng.uniform(-1.0, 1.0);
      if (!solvable && rng.uniform() < 0.1) {
        v = rng.uniform() < 0.5 ? 0.0 : -0.0;
      }
      rowsum += std::abs(v);
      t.push_back({i, j, v});
    }
    if (solvable) t.push_back({i, i, rowsum + 1.0 + rng.uniform()});
  }
  return CsrMatrix::from_triplets(sink + 1, sink + 1, std::move(t));
}

/// 7-point stencil on an nx x ny x nz grid, node (x, y, z) at
/// (z ny + y) nx + x, shaped like the RC operators: layers z % 3 == 1
/// are cavity-like (no ±1 couplings across the flow, only ±nx along it)
/// and bypass to the layers two up and two down; the top layer couples
/// to a sink node (last), whose row couples back to every top-layer node
/// (a long row when the layer holds more than 15 nodes). One row in ten
/// drops a random coupling. Values as in random_matrix.
CsrMatrix stencil3d_matrix(int nx, int ny, int nz, bool solvable, Rng& rng) {
  const std::int32_t layer = nx * ny;
  const std::int32_t sink = layer * nz;
  std::vector<Triplet> t;
  for (std::int32_t i = 0; i <= sink; ++i) {
    std::vector<std::int32_t> cols;
    if (i == sink) {
      for (std::int32_t j = sink - layer; j <= sink; ++j) cols.push_back(j);
    } else {
      const int x = i % nx, y = (i / nx) % ny, z = i / layer;
      const bool cavity = z % 3 == 1;
      for (const int dz : {-2, -1, 1, 2}) {
        if ((dz == -2 || dz == 2) && !cavity) continue;
        if (z + dz >= 0 && z + dz < nz) cols.push_back(i + dz * layer);
      }
      if (y > 0) cols.push_back(i - nx);
      if (y + 1 < ny) cols.push_back(i + nx);
      if (!cavity && x > 0) cols.push_back(i - 1);
      if (!cavity && x + 1 < nx) cols.push_back(i + 1);
      cols.push_back(i);
      if (z == nz - 1) cols.push_back(sink);
      if (rng.uniform() < 0.1) {
        cols.erase(cols.begin() +
                   static_cast<std::ptrdiff_t>(rng.uniform_index(cols.size())));
      }
    }
    double rowsum = 0.0;
    for (const std::int32_t j : cols) {
      if (solvable && j == i) continue;
      double v = rng.uniform(-1.0, 1.0);
      if (!solvable && rng.uniform() < 0.1) {
        v = rng.uniform() < 0.5 ? 0.0 : -0.0;
      }
      rowsum += std::abs(v);
      t.push_back({i, j, v});
    }
    if (solvable) t.push_back({i, i, rowsum + 1.0 + rng.uniform()});
  }
  return CsrMatrix::from_triplets(sink + 1, sink + 1, std::move(t));
}

/// The matrices every test runs on: random patterns of kSizes, 2D
/// stencils of 65, 64 and 71 rows, then 3D stencils of 64, 55, 65 and
/// 121 rows (sink rows of 22, 10, 17 and 31 entries).
std::vector<CsrMatrix> test_matrices(bool solvable, Rng& rng) {
  std::vector<CsrMatrix> out;
  for (const std::int32_t n : kSizes) {
    out.push_back(random_matrix(n, solvable, rng));
  }
  for (const auto& [nx, ny] : {std::pair{8, 8}, {7, 9}, {10, 7}}) {
    out.push_back(stencil_matrix(nx, ny, solvable, rng));
  }
  for (const auto& [nx, ny, nz] :
       {std::tuple{7, 3, 3}, {3, 3, 6}, {4, 4, 4}, {6, 5, 4}}) {
    out.push_back(stencil3d_matrix(nx, ny, nz, solvable, rng));
  }
  return out;
}

/// Entries in [-10, 10]; one in ten +0.0, one in ten -0.0.
std::vector<double> random_vec(std::int32_t n, Rng& rng) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) {
    const double u = rng.uniform();
    x = u < 0.1 ? 0.0 : u < 0.2 ? -0.0 : rng.uniform(-10.0, 10.0);
  }
  return v;
}

/// (A x)_row, the natural CSR row loop.
double csr_row(const CsrMatrix& a, std::int32_t row,
               std::span<const double> x) {
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto v = a.values();
  double acc = 0.0;
  for (std::int32_t k = rp[row]; k < rp[row + 1]; ++k) acc += v[k] * x[ci[k]];
  return acc;
}

/// Does slice \p s of \p p keep the positional layout? A slice column
/// then holds entries of two rows at different offsets, which the
/// offset layout never does.
bool positional(const SlicedPattern& p, std::int32_t s) {
  for (std::int32_t e = p.slice_ptr[s], k = 0; e < p.slice_ptr[s + 1];
       e += kSliceRows, ++k) {
    bool seen = false;
    std::int32_t offset = 0;
    for (int j = 0; j < kSliceRows; ++j) {
      const std::int32_t r = s * kSliceRows + j;
      if (r >= p.rows || ((p.row_columns[r] >> k) & 1u) == 0) continue;
      if (seen && p.cols[e + j] - r != offset) return true;
      seen = true;
      offset = p.cols[e + j] - r;
    }
  }
  return false;
}

TEST(SlicedPattern, AlignsSlicesByOffsetAndFallsBackByPosition) {
  // Slice 0 (rows 0-7): tridiagonal, except that row 3 lacks its +1 and
  // row 5 its diagonal. Slice 1 (rows 8-15): tridiagonal plus column 15
  // in every row, nine offsets for a longest row of four entries.
  std::vector<Triplet> t;
  for (std::int32_t i = 0; i < 16; ++i) {
    for (std::int32_t j = i - 1; j <= i + 1; ++j) {
      if (j < 0 || j > 15 || (i == 3 && j == 4) || (i == 5 && j == 5)) {
        continue;
      }
      t.push_back({i, j, 1.0});
    }
    if (i >= 8 && i < 14) t.push_back({i, 15, 1.0});
  }
  const CsrMatrix a = CsrMatrix::from_triplets(16, 16, std::move(t));
  const auto p = build_sliced_pattern(a.row_ptr(), a.col_idx());
  ASSERT_EQ(p->slice_ptr, (std::vector<std::int32_t>{0, 24, 56}));
  ASSERT_EQ(p->slots(), 56);
  const auto column = [&](std::int32_t s, int k) {
    const auto first = p->cols.begin() + p->slice_ptr[s] + k * kSliceRows;
    return std::vector<std::int32_t>(first, first + kSliceRows);
  };
  using V = std::vector<std::int32_t>;
  // Offsets -1, 0, +1. Row 0 has no column -1: it pads at its last
  // column (1) and the slice column is gathered. Rows 3 and 5 pad at
  // their offset (4 and 5), inside contiguous slice columns.
  EXPECT_EQ(column(0, 0), (V{1, 0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(column(0, 1), (V{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(column(0, 2), (V{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(p->contiguous[0], 0b110u);
  EXPECT_EQ(p->row_columns[0], 0b110u);
  EXPECT_EQ(p->row_columns[3], 0b011u);
  EXPECT_EQ(p->row_columns[5], 0b101u);
  EXPECT_EQ(p->row_columns[7], 0b111u);
  // Positional: entry k of each row in slice column k, padding at the
  // row's last column.
  EXPECT_EQ(column(1, 0), (V{7, 8, 9, 10, 11, 12, 13, 14}));
  EXPECT_EQ(column(1, 1), (V{8, 9, 10, 11, 12, 13, 14, 15}));
  EXPECT_EQ(column(1, 2), (V{9, 10, 11, 12, 13, 14, 15, 15}));
  EXPECT_EQ(column(1, 3), (V{15, 15, 15, 15, 15, 15, 15, 15}));
  EXPECT_EQ(p->contiguous[1], 0b0011u);
  EXPECT_EQ(p->row_columns[8], 0b1111u);
  EXPECT_EQ(p->row_columns[15], 0b0011u);
  EXPECT_FALSE(positional(*p, 0));
  EXPECT_TRUE(positional(*p, 1));
  for (std::int32_t r = 0; r < 16; ++r) {
    EXPECT_EQ(p->row_first[r], p->slice_ptr[r / kSliceRows] + r % kSliceRows);
  }

  // A row whose columns are not ascending would meet them out of CSR
  // order: its slice keeps the positional layout.
  std::vector<std::int32_t> rp(a.row_ptr().begin(), a.row_ptr().end());
  std::vector<std::int32_t> ci(a.col_idx().begin(), a.col_idx().end());
  std::swap(ci[rp[2]], ci[rp[2] + 2]);  // row 2: 3, 2, 1
  const auto unsorted = build_sliced_pattern(rp, ci);
  EXPECT_TRUE(positional(*unsorted, 0));
  EXPECT_EQ(unsorted->row_columns[5], 0b011u);
}

TEST(SlicedPattern, PaperStacksAreContiguous) {
  // Backward-Euler operators of the paper stacks (2 and 4 tiers, air and
  // liquid cooled, 8x8 to 16x16 grids): the offset layout keeps the
  // positional layout's slot count and loads nearly every slice column
  // in one piece.
  struct Stack {
    int tiers;
    arch::CoolingKind cooling;
    int grid;
    std::int64_t slots;
    int columns, contiguous;
  };
  const auto ac = arch::CoolingKind::kAirCooled;
  const auto lc = arch::CoolingKind::kLiquidCooled;
  const Stack stacks[] = {
      {2, ac, 8, 2593, 316, 276},     {2, ac, 12, 5953, 726, 647},
      {2, ac, 16, 10561, 1288, 1162}, {2, lc, 8, 2784, 348, 346},
      {2, lc, 12, 6384, 798, 794},    {2, lc, 16, 11328, 1416, 1414},
      {4, ac, 8, 5617, 694, 654},     {4, ac, 12, 12897, 1594, 1515},
      {4, ac, 16, 22881, 2828, 2702}, {4, lc, 8, 5264, 658, 656},
      {4, lc, 12, 12064, 1508, 1504}, {4, lc, 16, 21408, 2676, 2674},
  };
  for (const Stack& st : stacks) {
    const arch::Mpsoc3D soc(arch::Mpsoc3D::Options{
        st.tiers, st.cooling, thermal::GridOptions{st.grid, st.grid},
        arch::NiagaraConfig::paper()});
    const thermal::ThermalOperator op(soc.model(), 0.1);
    const SlicedMatrix s(op.matrix());
    const SlicedPattern& p = s.pattern();
    int columns = 0, contiguous = 0;
    for (std::int32_t sl = 0; sl < p.slices(); ++sl) {
      columns += (p.slice_ptr[sl + 1] - p.slice_ptr[sl]) / kSliceRows;
      contiguous += std::popcount(p.contiguous[sl]);
    }
    const std::string what = std::to_string(st.tiers) + "-tier " +
                             (st.cooling == ac ? "AC " : "LC ") +
                             std::to_string(st.grid);
    EXPECT_EQ(p.slots(), st.slots) << what;
    EXPECT_EQ(columns, st.columns) << what;
    EXPECT_EQ(contiguous, st.contiguous) << what;

    // And the kernels on it are the CSR row loop's, bit for bit.
    const std::int32_t n = s.rows();
    std::vector<double> x(static_cast<std::size_t>(n));
    for (std::int32_t i = 0; i < n; ++i) x[i] = 300.0 + std::sin(0.1 * i);
    std::vector<double> y(static_cast<std::size_t>(n));
    const double xy = spmv_dot(s, x, y, x);
    double xy_ref = 0.0;
    for (std::int32_t i = 0; i < n; ++i) {
      const double ax = csr_row(op.matrix(), i, x);
      EXPECT_TRUE(same_bits(y[i], ax)) << what << " row " << i;
      xy_ref += x[i] * ax;
    }
    EXPECT_TRUE(same_bits(xy, xy_ref)) << what;
  }
}

TEST(SlicedMatrix, KernelsMatchNaturalCsrBitwise) {
  Rng rng(2024);
  int contiguous = 0, gathered = 0, positional_slices = 0;
  int interior_padding = 0, out_of_range_padding = 0;
  for (int trial = 0; trial < 4; ++trial) {
    for (const CsrMatrix& a : test_matrices(false, rng)) {
      const std::int32_t n = a.rows();
      const SlicedMatrix s(a);
      const SlicedPattern& p = s.pattern();
      for (std::int32_t sl = 0; sl < p.slices(); ++sl) {
        const int width = (p.slice_ptr[sl + 1] - p.slice_ptr[sl]) / kSliceRows;
        const int runs = std::popcount(p.contiguous[sl]);
        contiguous += runs;
        gathered += width - runs;
        if (positional(p, sl)) {
          ++positional_slices;
          continue;
        }
        // Offset layout: a gathered column pads out of range; a row
        // whose slice columns have a hole pads inside its entries.
        out_of_range_padding += width - runs;
        for (std::int32_t r = sl * kSliceRows;
             r < std::min(n, (sl + 1) * kSliceRows); ++r) {
          const std::uint32_t m = p.row_columns[r];
          interior_padding += (m & (m + 1)) != 0;
        }
      }
      // Rows above the cap stay out of the slices.
      std::size_t long_rows = 0;
      for (std::int32_t i = 0; i < n; ++i) {
        long_rows += a.row_ptr()[i + 1] - a.row_ptr()[i] > kSliceMaxRowLength;
      }
      ASSERT_EQ(p.long_rows.size(), long_rows + 1) << "n " << n;
      ASSERT_EQ(p.slices(), (n + kSliceRows - 1) / kSliceRows);
      const std::vector<double> x = random_vec(n, rng);
      const std::vector<double> w = random_vec(n, rng);
      const std::vector<double> b = random_vec(n, rng);
      const std::string what = "n " + std::to_string(n) + " trial " +
                               std::to_string(trial);

      std::vector<double> y_ref(n), r_ref(n);
      double wy_ref = 0.0, yy_ref = 0.0, rr_ref = 0.0, bb_ref = 0.0;
      for (std::int32_t i = 0; i < n; ++i) {
        const double ax = csr_row(a, i, x);
        y_ref[i] = ax;
        wy_ref += w[i] * ax;
        yy_ref += ax * ax;
        const double res = b[i] - ax;
        r_ref[i] = res;
        rr_ref += res * res;
        bb_ref += b[i] * b[i];
      }

      std::vector<double> y(n, 7.0);
      const double wy = spmv_dot(s, x, y, w);
      EXPECT_TRUE(same_bits(y, y_ref)) << what;
      EXPECT_TRUE(same_bits(wy, wy_ref)) << what;

      std::vector<double> y2(n, 7.0);
      double wy2 = 0.0;
      const double yy = spmv_dot2(s, x, y2, w, &wy2);
      EXPECT_TRUE(same_bits(y2, y_ref)) << what;
      EXPECT_TRUE(same_bits(yy, yy_ref)) << what;
      EXPECT_TRUE(same_bits(wy2, wy_ref)) << what;

      std::vector<double> r(n, 7.0);
      double bb = 0.0;
      const double rr = residual_norms(s, x, b, r, &bb);
      EXPECT_TRUE(same_bits(r, r_ref)) << what;
      EXPECT_TRUE(same_bits(rr, rr_ref)) << what;
      EXPECT_TRUE(same_bits(bb, bb_ref)) << what;

      // The layout shared through a SymbolicStructure is the same one.
      const auto structure = analyze_structure(a);
      const SlicedMatrix shared(a, structure.get());
      EXPECT_TRUE(same_bits(shared.values(), s.values())) << what;
      EXPECT_EQ(shared.pattern().cols, s.pattern().cols) << what;
    }
  }
  // Both ways of reading x, both layouts and both kinds of padding were
  // exercised.
  EXPECT_GT(contiguous, 0);
  EXPECT_GT(gathered, 0);
  EXPECT_GT(positional_slices, 0);
  EXPECT_GT(interior_padding, 0);
  EXPECT_GT(out_of_range_padding, 0);
}

TEST(SlicedMatrix, IncrementalRefillEqualsFullRefill) {
  Rng rng(77);
  for (CsrMatrix& a : test_matrices(false, rng)) {
    const std::int32_t n = a.rows();
    SlicedMatrix s(a);
    const std::vector<double> before(s.values().begin(), s.values().end());
    // A few rows: the first, the dense one (the last row when none is
    // long), a middle one, the last (in the partial slice when
    // n % 8 != 0).
    const std::int32_t dense = s.pattern().long_rows.size() > 1
                                   ? s.pattern().long_rows.front()
                                   : n - 1;
    const std::vector<std::int32_t> rows = {0, dense, n / 2, n - 1};
    const auto rp = a.row_ptr();
    auto v = a.values_mut();
    for (const std::int32_t r : rows) {
      for (std::int32_t k = rp[r]; k < rp[r + 1]; ++k) v[k] += 0.5;
    }
    s.refill_rows(a, rows);
    EXPECT_FALSE(same_bits(s.values(), before)) << "n " << n;
    const SlicedMatrix fresh(a);
    EXPECT_TRUE(same_bits(s.values(), fresh.values())) << "n " << n;
    SlicedMatrix full(a);
    full.refill(a);
    EXPECT_TRUE(same_bits(full.values(), fresh.values())) << "n " << n;
  }
}

TEST(SlicedMatrix, RejectsAnotherPatternsStructure) {
  Rng rng(5);
  const CsrMatrix a = random_matrix(40, false, rng);
  const CsrMatrix b = random_matrix(40, false, rng);
  const auto structure = analyze_structure(a);
  EXPECT_THROW(SlicedMatrix(b, structure.get()), InvalidArgument);
}

/// Which exit a reference solve took.
struct ReferenceResult {
  bool converged = false;
  std::int32_t iterations = 0;
  bool mid_exit = false;  ///< converged on ||s||
};

/// BiCGSTAB as it ran before the sliced layout, on natural-order CSR
/// arithmetic: dot(r0, r) as its own pass every iteration, and a
/// reporting residual b - A x on the mid-iteration exit.
ReferenceResult reference_bicgstab(const CsrMatrix& a,
                                   const std::vector<double>& b,
                                   std::vector<double>& x,
                                   const Ilu0Preconditioner& m, double tol,
                                   std::int32_t max_iterations) {
  const std::int32_t n = a.rows();
  std::vector<double> r(n), r0(n), p(n, 0.0), v(n, 0.0), s(n), t(n), ph(n),
      sh(n);
  double rr = 0.0, bb = 0.0;
  for (std::int32_t i = 0; i < n; ++i) {
    const double res = b[i] - csr_row(a, i, x);
    r[i] = res;
    rr += res * res;
    bb += b[i] * b[i];
  }
  const double bnorm = std::max(std::sqrt(bb), 1e-300);
  ReferenceResult out;
  if (std::sqrt(rr) / bnorm <= tol) {
    out.converged = true;
    return out;
  }
  r0 = r;
  double rho = 1.0, alpha = 1.0, omega = 1.0;
  for (std::int32_t it = 1; it <= max_iterations; ++it) {
    double rho_new = 0.0;
    for (std::int32_t i = 0; i < n; ++i) rho_new += r0[i] * r[i];
    if (rho_new == 0.0) break;
    const double beta = (rho_new / rho) * (alpha / omega);
    rho = rho_new;
    for (std::int32_t i = 0; i < n; ++i) {
      p[i] = r[i] + beta * (p[i] - omega * v[i]);
    }
    m.apply(p, ph);
    double r0v = 0.0;
    for (std::int32_t i = 0; i < n; ++i) {
      v[i] = csr_row(a, i, ph);
      r0v += r0[i] * v[i];
    }
    if (r0v == 0.0) break;
    alpha = rho / r0v;
    double ss = 0.0;
    for (std::int32_t i = 0; i < n; ++i) {
      s[i] = r[i] + -alpha * v[i];
      ss += s[i] * s[i];
    }
    out.iterations = it;
    if (std::sqrt(ss) / bnorm <= tol) {
      for (std::int32_t i = 0; i < n; ++i) x[i] += alpha * ph[i];
      for (std::int32_t i = 0; i < n; ++i) r[i] = b[i] - csr_row(a, i, x);
      out.converged = true;
      out.mid_exit = true;
      return out;
    }
    m.apply(s, sh);
    double tt = 0.0, ts = 0.0;
    for (std::int32_t i = 0; i < n; ++i) {
      t[i] = csr_row(a, i, sh);
      tt += t[i] * t[i];
      ts += s[i] * t[i];
    }
    if (tt == 0.0) break;
    omega = ts / tt;
    rr = 0.0;
    for (std::int32_t i = 0; i < n; ++i) {
      x[i] += alpha * ph[i] + omega * sh[i];
      r[i] = s[i] - omega * t[i];
      rr += r[i] * r[i];
    }
    if (std::sqrt(rr) / bnorm <= tol) {
      out.converged = true;
      return out;
    }
    if (omega == 0.0) break;
  }
  return out;
}

/// Rewrite the values of a third of the rows (every third one).
std::vector<std::int32_t> perturb_rows(CsrMatrix& a) {
  std::vector<std::int32_t> rows;
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  auto v = a.values_mut();
  for (std::int32_t r = 1; r < a.rows(); r += 3) {
    rows.push_back(r);
    for (std::int32_t k = rp[r]; k < rp[r + 1]; ++k) {
      v[k] *= ci[k] == r ? 1.3 : 0.6;
    }
  }
  return rows;
}

TEST(SlicedBicgstab, MatchesNaturalCsrReferenceWithFreshAndStaleFactors) {
  Rng rng(99);
  int mid_exits = 0, final_exits = 0;
  for (const CsrMatrix& before : test_matrices(true, rng)) {
    const std::int32_t n = before.rows();
    CsrMatrix after = before;
    perturb_rows(after);
    const std::vector<double> b = random_vec(n, rng);
    const std::vector<double> x0 = random_vec(n, rng);
    const Ilu0Preconditioner fresh(after);
    const Ilu0Preconditioner stale(before);
    const SlicedMatrix s(after);
    for (const Ilu0Preconditioner* m : {&fresh, &stale}) {
      for (const double tol : {1e-4, 1e-8, 1e-12}) {
        const std::string what = "n " + std::to_string(n) + " tol " +
                                 std::to_string(tol) +
                                 (m == &stale ? " stale" : " fresh");
        std::vector<double> x_ref = x0;
        const ReferenceResult ref =
            reference_bicgstab(after, b, x_ref, *m, tol, 500);
        std::vector<double> x = x0;
        const IterativeResult res = bicgstab(s, b, x, *m, {tol, 500});
        ASSERT_TRUE(ref.converged) << what;
        EXPECT_EQ(res.converged, ref.converged) << what;
        EXPECT_EQ(res.iterations, ref.iterations) << what;
        EXPECT_TRUE(same_bits(x, x_ref)) << what;
        (ref.mid_exit ? mid_exits : final_exits) += 1;
      }
    }
  }
  // Both convergence exits were exercised.
  EXPECT_GT(mid_exits, 0);
  EXPECT_GT(final_exits, 0);

  // ILU(0) of a tridiagonal matrix is its exact LU, so iteration 1's
  // s = r - alpha A M^{-1} r is rounding noise: the solve exits at the
  // ||s|| check of its first iteration, discarding the M^{-1} s that
  // was formed ahead of it.
  const std::int32_t n = 40;
  std::vector<Triplet> t;
  for (std::int32_t i = 0; i < n; ++i) {
    t.push_back({i, i, rng.uniform(4.0, 5.0)});
    if (i > 0) t.push_back({i, i - 1, -rng.uniform(0.5, 1.5)});
    if (i + 1 < n) t.push_back({i, i + 1, -rng.uniform(0.5, 1.5)});
  }
  const CsrMatrix tri = CsrMatrix::from_triplets(n, n, std::move(t));
  const std::vector<double> b = random_vec(n, rng);
  const Ilu0Preconditioner m(tri);
  std::vector<double> x_ref = random_vec(n, rng);
  std::vector<double> x = x_ref;
  const ReferenceResult ref = reference_bicgstab(tri, b, x_ref, m, 1e-8, 500);
  const IterativeResult res = bicgstab(SlicedMatrix(tri), b, x, m, {1e-8, 500});
  ASSERT_TRUE(ref.converged);
  ASSERT_TRUE(ref.mid_exit);
  ASSERT_EQ(ref.iterations, 1);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 1);
  EXPECT_TRUE(same_bits(x, x_ref));
}

TEST(SlicedBicgstab, SolverSolvesTheUpdatedValues) {
  Rng rng(31);
  for (const CsrMatrix& before : test_matrices(true, rng)) {
    const std::int32_t n = before.rows();
    const std::vector<double> b = random_vec(n, rng);
    const std::vector<double> x0 = random_vec(n, rng);
    // Incremental update (lazy: the factors stay those of `before`) and
    // an update with unknown rows (full refill and refactor).
    for (const bool known_rows : {true, false}) {
      CsrMatrix a = before;
      auto solver = make_solver(SolverKind::kBicgstabIlu0, a);
      const std::vector<std::int32_t> rows = perturb_rows(a);
      ValueUpdate update;
      if (known_rows) update.rows = rows;
      update.dirty_fraction = 0.3;
      solver->update_values(a, update);
      std::vector<double> x = x0;
      solver->solve(b, x);

      const Ilu0Preconditioner m(known_rows ? before : a);
      std::vector<double> x_ref = x0;
      const ReferenceResult ref = reference_bicgstab(a, b, x_ref, m, 1e-12,
                                                     5000);
      ASSERT_TRUE(ref.converged);
      EXPECT_TRUE(same_bits(x, x_ref))
          << "n " << n << (known_rows ? " incremental" : " unknown rows");
      EXPECT_EQ(solver->stats().last_iterations, ref.iterations);
    }
  }
}

}  // namespace
}  // namespace tac3d::sparse
