// Bitwise property tests of the level-scheduled ILU(0) solves: on random
// patterns (3D stencils with one-directional advection rows, a dense
// sink row and column, rows with no lower or no upper entries; layered
// patterns whose groups hold 1 to 17 rows) and on the paper's stacks,
// the scalar apply — the AVX-512 chunk kernel with its per-row loop for
// leftover rows in builds with __AVX512F__, the per-row loop over
// one-row chunks in builds without — the batched apply at every
// dispatch width and the compacted apply must equal a natural-order
// ILU(0) kept here as the reference, byte for byte, before and after a
// value change. The chunk-major layout must hold exactly nnz slots.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "arch/mpsoc.hpp"
#include "common/rng.hpp"
#include "microchannel/pump.hpp"
#include "sparse/batched.hpp"
#include "sparse/csr.hpp"
#include "sparse/ilu_schedule.hpp"
#include "sparse/preconditioner.hpp"
#include "sparse/symbolic.hpp"
#include "thermal/operator.hpp"

namespace tac3d::sparse {
namespace {

constexpr int kDispatchWidths[] = {1, 2, 3, 4, 5, 6, 7, 8, 16};

/// Natural-order ILU(0): the IKJ factorization on A's pattern and the
/// row-after-row substitutions, written as plainly as possible.
struct NaturalIlu0 {
  explicit NaturalIlu0(const CsrMatrix& a) : lu(a) {
    const auto rp = lu.row_ptr();
    const auto ci = lu.col_idx();
    auto v = lu.values_mut();
    diag.assign(static_cast<std::size_t>(lu.rows()), -1);
    for (std::int32_t i = 0; i < lu.rows(); ++i) {
      for (std::int32_t k = rp[i]; k < rp[i + 1]; ++k) {
        if (ci[k] == i) diag[i] = k;
      }
    }
    for (std::int32_t i = 0; i < lu.rows(); ++i) {
      for (std::int32_t kk = rp[i]; kk < rp[i + 1]; ++kk) {
        const std::int32_t k = ci[kk];
        if (k >= i) break;
        const double l = v[kk] / v[diag[k]];
        v[kk] = l;
        std::int32_t pi = kk + 1;
        for (std::int32_t pk = diag[k] + 1; pk < rp[k + 1]; ++pk) {
          while (pi < rp[i + 1] && ci[pi] < ci[pk]) ++pi;
          if (pi < rp[i + 1] && ci[pi] == ci[pk]) v[pi] -= l * v[pk];
        }
      }
    }
  }

  std::vector<double> apply(const std::vector<double>& r) const {
    const std::int32_t n = lu.rows();
    const auto rp = lu.row_ptr();
    const auto ci = lu.col_idx();
    const auto v = lu.values();
    std::vector<double> z(static_cast<std::size_t>(n));
    for (std::int32_t i = 0; i < n; ++i) {
      double acc = r[i];
      for (std::int32_t k = rp[i]; k < rp[i + 1] && ci[k] < i; ++k) {
        acc -= v[k] * z[ci[k]];
      }
      z[i] = acc;
    }
    for (std::int32_t i = n - 1; i >= 0; --i) {
      double acc = z[i];
      double dii = 0.0;
      for (std::int32_t k = rp[i + 1] - 1; k >= rp[i] && ci[k] >= i; --k) {
        if (ci[k] == i) {
          dii = v[k];
        } else {
          acc -= v[k] * z[ci[k]];
        }
      }
      z[i] = acc / dii;
    }
    return z;
  }

  CsrMatrix lu;
  std::vector<std::int32_t> diag;
};

/// Random pattern on an nx x ny x nz grid plus one sink node: each
/// stencil coupling is present with some probability, some rows carry
/// one-directional (upwind-only) advection couplings, the sink row and
/// column are dense, and a few rows keep no lower or no upper entries.
/// The sink sits first or last, so its dense row is all-upper or
/// all-lower. Strictly diagonally dominant, so no pivot vanishes.
CsrMatrix random_pattern(Rng& rng) {
  const int nx = 2 + static_cast<int>(rng.uniform() * 5);
  const int ny = 2 + static_cast<int>(rng.uniform() * 5);
  const int nz = 1 + static_cast<int>(rng.uniform() * 4);
  const std::int32_t cells = nx * ny * nz;
  const std::int32_t n = cells + 1;
  const bool sink_first = rng.uniform() < 0.5;
  const std::int32_t sink = sink_first ? 0 : cells;
  const std::int32_t base = sink_first ? 1 : 0;
  const auto id = [&](int x, int y, int z) {
    return base + (z * ny + y) * nx + x;
  };
  std::vector<Triplet> t;
  const auto couple = [&](std::int32_t i, std::int32_t j) {
    t.push_back({i, j, -rng.uniform(0.1, 1.0)});
  };
  for (int z = 0; z < nz; ++z) {
    for (int y = 0; y < ny; ++y) {
      for (int x = 0; x < nx; ++x) {
        const std::int32_t i = id(x, y, z);
        const double mode = rng.uniform();
        const bool no_lower = mode < 0.08;
        const bool no_upper = mode >= 0.08 && mode < 0.16;
        const bool advect = mode >= 0.16 && mode < 0.4;
        const int nb[6][3] = {{x - 1, y, z}, {x + 1, y, z}, {x, y - 1, z},
                              {x, y + 1, z}, {x, y, z - 1}, {x, y, z + 1}};
        for (const auto& c : nb) {
          if (c[0] < 0 || c[0] >= nx || c[1] < 0 || c[1] >= ny || c[2] < 0 ||
              c[2] >= nz) {
            continue;
          }
          const std::int32_t j = id(c[0], c[1], c[2]);
          if ((no_lower && j < i) || (no_upper && j > i)) continue;
          // Advection rows read only their upstream (x - 1) neighbor.
          if (advect && j != id(x - 1, y, z)) continue;
          if (rng.uniform() < 0.85) couple(i, j);
        }
        if (!(no_lower && sink < i) && !(no_upper && sink > i) &&
            rng.uniform() < 0.7) {
          couple(i, sink);
        }
        if (rng.uniform() < 0.9) couple(sink, i);
      }
    }
  }
  std::vector<double> rowsum(static_cast<std::size_t>(n), 0.0);
  for (const Triplet& e : t) rowsum[e.row] += std::abs(e.value);
  for (std::int32_t i = 0; i < n; ++i) {
    t.push_back({i, i, rowsum[i] + 0.5 + rng.uniform()});
  }
  return CsrMatrix::from_triplets(n, n, std::move(t));
}

/// Same pattern, new diagonally dominant values.
CsrMatrix revalue(const CsrMatrix& a, Rng& rng) {
  CsrMatrix b = a;
  auto v = b.values_mut();
  for (double& x : v) x *= rng.uniform(0.5, 1.5);
  for (std::int32_t i = 0; i < b.rows(); ++i) {
    double off = 0.0;
    for (std::int32_t k = b.row_ptr()[i]; k < b.row_ptr()[i + 1]; ++k) {
      if (b.col_idx()[k] != i) off += std::abs(v[k]);
    }
    b.coeff_ref(i, i) = off + 0.25 + rng.uniform();
  }
  return b;
}

/// Random layered pattern: levels of 1 to 17 rows, numbered level by
/// level, each row reading one row of the level before and 0 to 2 more
/// rows further back, with one entry count per level, so each forward
/// group is a whole level of 1 to 17 rows (full chunks, partial chunks
/// and single-row groups). Every lower entry has its transpose, so the
/// backward sweep's groups vary too. Strictly diagonally dominant.
CsrMatrix layered_pattern(Rng& rng) {
  const int levels = 3 + static_cast<int>(rng.uniform() * 8);
  std::vector<std::int32_t> level_begin{0};
  for (int l = 0; l < levels; ++l) {
    level_begin.push_back(level_begin.back() + 1 +
                          static_cast<int>(rng.uniform() * 17));
  }
  const std::int32_t n = level_begin.back();
  std::vector<Triplet> t;
  for (int l = 1; l < levels; ++l) {
    const std::int32_t prev = level_begin[l - 1];
    const int extra = std::min<int>(prev, static_cast<int>(rng.uniform() * 3));
    for (std::int32_t i = level_begin[l]; i < level_begin[l + 1]; ++i) {
      std::set<std::int32_t> cols{
          prev + static_cast<std::int32_t>(rng.uniform() *
                                           (level_begin[l] - prev))};
      while (static_cast<int>(cols.size()) < 1 + extra) {
        cols.insert(static_cast<std::int32_t>(rng.uniform() * prev));
      }
      for (const std::int32_t j : cols) {
        t.push_back({i, j, -rng.uniform(0.1, 1.0)});
        t.push_back({j, i, -rng.uniform(0.1, 1.0)});
      }
    }
  }
  std::vector<double> rowsum(static_cast<std::size_t>(n), 0.0);
  for (const Triplet& e : t) rowsum[e.row] += std::abs(e.value);
  for (std::int32_t i = 0; i < n; ++i) {
    t.push_back({i, i, rowsum[i] + 0.5 + rng.uniform()});
  }
  return CsrMatrix::from_triplets(n, n, std::move(t));
}

/// Backward-Euler operator of a paper stack (liquid-cooled ones at the
/// maximum pump flow).
CsrMatrix paper_operator(int tiers, arch::CoolingKind cooling, int grid) {
  arch::Mpsoc3D soc(arch::Mpsoc3D::Options{tiers, cooling,
                                           thermal::GridOptions{grid, grid},
                                           arch::NiagaraConfig::paper()});
  if (cooling == arch::CoolingKind::kLiquidCooled) {
    soc.model().set_all_flows(microchannel::PumpModel::table1().q_max());
  }
  return thermal::ThermalOperator(soc.model(), 0.25).matrix();
}

std::vector<double> random_vec(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-5.0, 5.0);
  return v;
}

bool same_bytes(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

/// Lane \p lane of an interleaved buffer of width \p width.
std::vector<double> column(const std::vector<double>& v, int width, int lane,
                           std::int32_t n) {
  std::vector<double> out(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) {
    out[i] = v[static_cast<std::size_t>(i) * width + lane];
  }
  return out;
}

TEST(IluSchedule, LevelsRespectEveryDependency) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const CsrMatrix a = random_pattern(rng);
    const auto s = build_ilu_schedule(a.row_ptr(), a.col_idx());
    const auto rp = a.row_ptr();
    const auto ci = a.col_idx();
    for (const bool upper : {false, true}) {
      const IluSweep& sw = upper ? s->upper : s->lower;
      std::vector<int> pos(static_cast<std::size_t>(a.rows()), -1);
      for (std::size_t t = 0; t < sw.rows.size(); ++t) pos[sw.rows[t]] = t;
      for (std::int32_t i = 0; i < a.rows(); ++i) {
        ASSERT_GE(pos[i], 0) << "row " << i << " never visited";
        for (std::int32_t k = rp[i]; k < rp[i + 1]; ++k) {
          if (upper ? ci[k] > i : ci[k] < i) {
            EXPECT_LT(pos[ci[k]], pos[i]) << "row " << i << " reads row "
                                          << ci[k] << " before it is solved";
          }
        }
      }
      for (const IluGroup& g : sw.groups) {
        for (std::int32_t t = g.begin; t < g.end; ++t) {
          const std::int32_t i = sw.rows[t];
          const std::int32_t d = s->diag[i];
          EXPECT_EQ(g.entries, upper ? rp[i + 1] - d - 1 : d - rp[i]);
        }
      }
    }
  }
}

TEST(IluSchedule, ScalarApplyIsBitwiseNatural) {
  Rng rng(11);
  for (int trial = 0; trial < 25; ++trial) {
    const CsrMatrix a = random_pattern(rng);
    const std::int32_t n = a.rows();
    const std::string what = "trial " + std::to_string(trial);
    Ilu0Preconditioner plain(a);
    const auto structure = analyze_structure(a);
    Ilu0Preconditioner shared(a, structure.get());
    const std::vector<double> r = random_vec(static_cast<std::size_t>(n), rng);
    std::vector<double> z(static_cast<std::size_t>(n)),
        zs(static_cast<std::size_t>(n));

    NaturalIlu0 ref(a);
    const auto check_factors = [&](const Ilu0Preconditioner& m) {
      const auto f = m.factor_values();
      const auto slot = m.schedule().chunk_slot;
      for (std::int64_t k = 0; k < a.nnz(); ++k) {
        ASSERT_TRUE(same_bytes(&f[slot[k]], &ref.lu.values()[k], 1))
            << what << " factor entry " << k;
      }
    };
    check_factors(plain);
    plain.apply(r, z);
    shared.apply(r, zs);
    const std::vector<double> want = ref.apply(r);
    EXPECT_TRUE(same_bytes(z.data(), want.data(), want.size())) << what;
    EXPECT_TRUE(same_bytes(zs.data(), want.data(), want.size())) << what;

    // Refactor after a value change: the schedule-ordered factors must
    // be refreshed in place, not left at the old values.
    const CsrMatrix b = revalue(a, rng);
    plain.refactor(b);
    ref = NaturalIlu0(b);
    check_factors(plain);
    plain.apply(r, z);
    const std::vector<double> want_b = ref.apply(r);
    EXPECT_TRUE(same_bytes(z.data(), want_b.data(), want_b.size())) << what;
  }
}

/// Batched apply at \p width lanes (each lane its own values), then
/// apply_compacted for each narrower dispatch width over a random lane
/// subset — every lane column against the natural reference on that
/// lane's matrix. Every other lane then gets new values through
/// load_lane + refactor_lane and the checks repeat.
void batched_case(const CsrMatrix& a, int width, Rng& rng,
                  const SymbolicStructure* structure) {
  const std::int32_t n = a.rows();
  const std::size_t total = static_cast<std::size_t>(n) * width;
  std::vector<CsrMatrix> mats;
  BatchedCsr ba(a, width);
  for (int l = 0; l < width; ++l) {
    mats.push_back(revalue(a, rng));
    ba.load_lane(l, mats.back());
  }
  BatchedIlu0Preconditioner m(ba, structure);
  const std::vector<double> r = random_vec(total, rng);
  const std::string what = "width " + std::to_string(width);

  for (const bool refactored : {false, true}) {
    if (refactored) {
      for (int l = 0; l < width; l += 2) {
        mats[static_cast<std::size_t>(l)] = revalue(a, rng);
        ba.load_lane(l, mats[static_cast<std::size_t>(l)]);
        m.refactor_lane(l, ba);
      }
    }
    std::vector<NaturalIlu0> refs;
    std::vector<std::vector<double>> want;
    for (int l = 0; l < width; ++l) {
      refs.emplace_back(mats[static_cast<std::size_t>(l)]);
      want.push_back(refs.back().apply(column(r, width, l, n)));
    }
    const std::string tag = what + (refactored ? " after refactor" : "");

    std::vector<double> z(total);
    m.apply(r, z);
    for (int l = 0; l < width; ++l) {
      const std::vector<double> got = column(z, width, l, n);
      EXPECT_TRUE(same_bytes(got.data(), want[l].data(), got.size()))
          << tag << " lane " << l;
    }

    for (const int cw : kDispatchWidths) {
      if (cw >= width) break;
      // A random ascending lane subset, as batched_bicgstab compacts.
      std::vector<int> lanes(static_cast<std::size_t>(width));
      for (int l = 0; l < width; ++l) lanes[l] = l;
      for (int l = width - 1; l > 0; --l) {
        std::swap(lanes[l], lanes[static_cast<int>(rng.uniform() * (l + 1))]);
      }
      lanes.resize(static_cast<std::size_t>(cw));
      std::sort(lanes.begin(), lanes.end());
      m.compact_lanes(lanes);
      std::vector<double> cr(static_cast<std::size_t>(n) * cw),
          cz(static_cast<std::size_t>(n) * cw);
      for (std::int32_t i = 0; i < n; ++i) {
        for (int c = 0; c < cw; ++c) {
          cr[static_cast<std::size_t>(i) * cw + c] =
              r[static_cast<std::size_t>(i) * width + lanes[c]];
        }
      }
      m.apply_compacted(cr.data(), cz.data());
      for (int c = 0; c < cw; ++c) {
        const std::vector<double> got = column(cz, cw, c, n);
        EXPECT_TRUE(same_bytes(got.data(), want[lanes[c]].data(), got.size()))
            << tag << " compacted to " << cw << ", lane " << lanes[c];
      }
    }
  }
}

TEST(IluSchedule, BatchedAndCompactedApplyAreBitwiseNatural) {
  Rng rng(23);
  for (int trial = 0; trial < 6; ++trial) {
    const CsrMatrix a = random_pattern(rng);
    const auto structure = analyze_structure(a);
    for (const int width : kDispatchWidths) {
      SCOPED_TRACE("trial " + std::to_string(trial));
      batched_case(a, width, rng, trial % 2 == 0 ? structure.get() : nullptr);
    }
  }
}

/// The chunk-major layout of \p s is a permutation of [0, nnz) — no
/// padding — whose slots hold the CSR entries' columns.
void check_chunk_layout(const CsrMatrix& a, const IluSchedule& s,
                        const std::string& what) {
  ASSERT_EQ(s.chunk_slot.size(), static_cast<std::size_t>(a.nnz())) << what;
  ASSERT_EQ(s.chunk_cols.size(), static_cast<std::size_t>(a.nnz())) << what;
  std::vector<char> seen(static_cast<std::size_t>(a.nnz()), 0);
  for (std::int64_t k = 0; k < a.nnz(); ++k) {
    const std::int32_t at = s.chunk_slot[k];
    ASSERT_TRUE(at >= 0 && at < a.nnz() && !seen[at]) << what << " " << k;
    seen[at] = 1;
    EXPECT_EQ(s.chunk_cols[at], a.col_idx()[k]) << what << " entry " << k;
  }
}

/// The chunk-major apply of this build, with and without the folded sum
/// of squares, against the natural-order reference on \p a's factors;
/// then again after a refactor to new values.
void check_chunk_apply(const CsrMatrix& a, Rng& rng, const std::string& what) {
  const std::int32_t n = a.rows();
  Ilu0Preconditioner m(a);
  check_chunk_layout(a, m.schedule(), what);
  for (const bool refactored : {false, true}) {
    const CsrMatrix values = refactored ? revalue(a, rng) : a;
    if (refactored) m.refactor(values);
    const NaturalIlu0 ref(values);
    const std::string tag = what + (refactored ? " after refactor" : "");
    const auto f = m.factor_values();
    for (std::int64_t k = 0; k < a.nnz(); ++k) {
      ASSERT_TRUE(same_bytes(&f[m.schedule().chunk_slot[k]],
                             &ref.lu.values()[k], 1))
          << tag << " factor entry " << k;
    }
    const std::vector<double> r = random_vec(static_cast<std::size_t>(n), rng);
    const std::vector<double> want = ref.apply(r);
    double want_ss = 0.0;
    for (const double ri : r) want_ss += ri * ri;
    std::vector<double> z(static_cast<std::size_t>(n), -1.0);
    EXPECT_EQ(ilu0_apply_chunks(m.schedule(), f.data(), r.data(), z.data(),
                                false),
              0.0);
    EXPECT_TRUE(same_bytes(z.data(), want.data(), want.size())) << tag;
    std::fill(z.begin(), z.end(), -1.0);
    const double ss = m.apply_sum_squares(r, z);
    EXPECT_TRUE(same_bytes(&ss, &want_ss, 1)) << tag << " sum";
    EXPECT_TRUE(same_bytes(z.data(), want.data(), want.size()))
        << tag << " folded";
    // In place, as the preconditioner may be applied.
    std::vector<double> zr = r;
    m.apply(zr, zr);
    EXPECT_TRUE(same_bytes(zr.data(), want.data(), want.size()))
        << tag << " in place";
  }
}

TEST(IluChunks, LayeredGroupsOfOneToSeventeenRowsAreBitwiseNatural) {
  Rng rng(57);
  std::set<std::int32_t> sizes;
  for (int trial = 0; trial < 40; ++trial) {
    const CsrMatrix a = layered_pattern(rng);
    check_chunk_apply(a, rng, "layered trial " + std::to_string(trial));
    const auto s = build_ilu_schedule(a.row_ptr(), a.col_idx());
    for (const IluGroup& g : s->lower.groups) sizes.insert(g.end - g.begin);
  }
  // Single-row groups, partial chunks, exactly one chunk, a chunk plus
  // leftovers and two full chunks all occurred.
  for (const std::int32_t size : {1, 5, 8, 11, 16, 17}) {
    EXPECT_EQ(sizes.count(size), 1u) << "no forward group of " << size;
  }
}

TEST(IluChunks, RandomPatternsAreBitwiseNatural) {
  Rng rng(61);
  for (int trial = 0; trial < 25; ++trial) {
    check_chunk_apply(random_pattern(rng), rng,
                      "random trial " + std::to_string(trial));
  }
}

TEST(IluChunks, PaperStacksAreBitwiseNatural) {
  // 2 and 4 tiers, air and liquid cooled, 8x8 to 16x16 grids.
  Rng rng(67);
  for (const int tiers : {2, 4}) {
    for (const arch::CoolingKind cooling :
         {arch::CoolingKind::kAirCooled, arch::CoolingKind::kLiquidCooled}) {
      for (const int grid : {8, 12, 16}) {
        const std::string what =
            std::to_string(tiers) + "-tier " +
            (cooling == arch::CoolingKind::kAirCooled ? "AC " : "LC ") +
            std::to_string(grid);
        check_chunk_apply(paper_operator(tiers, cooling, grid), rng, what);
      }
    }
  }
}

TEST(IluChunks, LongSinkRowIsStoredOnce) {
  // The air-cooled 16x16 heat-sink node, numbered last, has 256 lower
  // entries: its group is one row, stored once in 256 consecutive slots
  // (in the leftover stream when chunks are 8 rows), not padded to a
  // chunk.
  const CsrMatrix a = paper_operator(2, arch::CoolingKind::kAirCooled, 16);
  const auto s = build_ilu_schedule(a.row_ptr(), a.col_idx());
  const std::int32_t sink = a.rows() - 1;
  const std::int32_t lower = s->diag[sink] - a.row_ptr()[sink];
  ASSERT_EQ(lower, 256);
  check_chunk_layout(a, *s, "2-tier AC 16");
  for (std::int32_t j = 0; j < lower; ++j) {
    const std::int32_t k = a.row_ptr()[sink] + j;
    EXPECT_EQ(s->chunk_slot[k], s->chunk_slot[a.row_ptr()[sink]] + j);
    if (kIluChunkRows > 1) {
      EXPECT_GE(s->chunk_slot[k], s->lower.rest_first);
    }
  }
  // Over all stacks, most rows are solved in full chunks.
  EXPECT_GT(static_cast<double>(s->chunked_rows()) / (2.0 * a.rows()), 0.5);
}

TEST(IluChunks, Avx512KernelIsBuiltAndBitwiseNatural) {
  // States which apply this build tested: a library built without
  // __AVX512F__ has only the per-row loop, and says so here.
  if (!kIluAvx512Apply) {
    GTEST_SKIP() << "library built without __AVX512F__: the applies ran "
                    "the per-row loop over one-row chunks, not the AVX-512 "
                    "kernel";
  }
  ASSERT_EQ(kIluChunkRows, 8);
  Rng rng(71);
  check_chunk_apply(paper_operator(4, arch::CoolingKind::kLiquidCooled, 16),
                    rng, "4-tier LC 16");
  check_chunk_apply(layered_pattern(rng), rng, "layered");
}

TEST(IluSchedule, SharedStructureSharesOneSchedule) {
  Rng rng(41);
  const CsrMatrix a = random_pattern(rng);
  const auto s = analyze_structure(a);
  ASSERT_NE(s->ilu_schedule, nullptr);
  Ilu0Preconditioner m1(a, s.get());
  Ilu0Preconditioner m2(revalue(a, rng), s.get());
  EXPECT_EQ(&m1.schedule(), s->ilu_schedule.get());
  EXPECT_EQ(&m2.schedule(), s->ilu_schedule.get());
}

}  // namespace
}  // namespace tac3d::sparse
