#include "sparse/batched.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <type_traits>

#include "common/error.hpp"
#include "sparse/ilu_schedule.hpp"
#include "sparse/symbolic.hpp"

namespace tac3d::sparse {

// ---------------------------------------------------------------------------
// BatchedCsr
// ---------------------------------------------------------------------------

BatchedCsr::BatchedCsr(const CsrMatrix& pattern, int lanes)
    : rows_(pattern.rows()), nnz_(pattern.nnz()), lanes_(lanes) {
  require(lanes >= 1 && lanes <= kMaxBatchLanes,
          "BatchedCsr: lane count out of range");
  require(pattern.rows() == pattern.cols(),
          "BatchedCsr: pattern must be square");
  row_ptr_.assign(pattern.row_ptr().begin(), pattern.row_ptr().end());
  col_idx_.assign(pattern.col_idx().begin(), pattern.col_idx().end());
  values_.assign(static_cast<std::size_t>(nnz_) * lanes_, 0.0);
  const std::span<const double> pv = pattern.values();
  for (std::int64_t k = 0; k < nnz_; ++k) {
    for (int l = 0; l < lanes_; ++l) {
      values_[static_cast<std::size_t>(k) * lanes_ + l] =
          pv[static_cast<std::size_t>(k)];
    }
  }
}

void BatchedCsr::load_lane(int lane, const CsrMatrix& a) {
  require(lane >= 0 && lane < lanes_, "BatchedCsr::load_lane: bad lane");
  require(a.nnz() == nnz_ && a.rows() == rows_,
          "BatchedCsr::load_lane: pattern mismatch");
  const double* __restrict src = a.values().data();
  double* __restrict dst = values_.data();
  const int L = lanes_;
  for (std::int64_t k = 0; k < nnz_; ++k) {
    dst[k * L + lane] = src[k];
  }
}

void BatchedCsr::load_lane_rows(int lane, const CsrMatrix& a,
                                std::span<const std::int32_t> rows) {
  require(lane >= 0 && lane < lanes_, "BatchedCsr::load_lane_rows: bad lane");
  require(a.nnz() == nnz_ && a.rows() == rows_,
          "BatchedCsr::load_lane_rows: pattern mismatch");
  const std::int32_t* __restrict rp = row_ptr_.data();
  const double* __restrict src = a.values().data();
  double* __restrict dst = values_.data();
  const int L = lanes_;
  for (const std::int32_t r : rows) {
    for (std::int32_t k = rp[r]; k < rp[r + 1]; ++k) {
      dst[static_cast<std::int64_t>(k) * L + lane] = src[k];
    }
  }
}

bool BatchedCsr::matches(const CsrMatrix& a) const {
  return a.rows() == rows_ && a.nnz() == nnz_ &&
         std::equal(row_ptr_.begin(), row_ptr_.end(), a.row_ptr().begin()) &&
         std::equal(col_idx_.begin(), col_idx_.end(), a.col_idx().begin());
}

void pack_lane(std::span<double> dst, int lanes, int lane,
               std::span<const double> src) {
  require(dst.size() == src.size() * static_cast<std::size_t>(lanes),
          "pack_lane: size mismatch");
  double* __restrict d = dst.data();
  const double* __restrict s = src.data();
  const std::size_t n = src.size();
  for (std::size_t i = 0; i < n; ++i) d[i * lanes + lane] = s[i];
}

void unpack_lane(std::span<const double> src, int lanes, int lane,
                 std::span<double> dst) {
  require(src.size() == dst.size() * static_cast<std::size_t>(lanes),
          "unpack_lane: size mismatch");
  const double* __restrict s = src.data();
  double* __restrict d = dst.data();
  const std::size_t n = dst.size();
  for (std::size_t i = 0; i < n; ++i) d[i] = s[i * lanes + lane];
}

void pack_lanes(std::span<double> dst, int lanes,
                const double* const* srcs, std::size_t n) {
  require(dst.size() == n * static_cast<std::size_t>(lanes),
          "pack_lanes: size mismatch");
  double* __restrict d = dst.data();
  for (std::size_t i = 0; i < n; ++i) {
    for (int l = 0; l < lanes; ++l) {
      if (srcs[l] != nullptr) d[i * lanes + l] = srcs[l][i];
    }
  }
}

void unpack_lanes(std::span<const double> src, int lanes,
                  double* const* dsts, std::size_t n) {
  require(src.size() == n * static_cast<std::size_t>(lanes),
          "unpack_lanes: size mismatch");
  const double* __restrict s = src.data();
  for (std::size_t i = 0; i < n; ++i) {
    for (int l = 0; l < lanes; ++l) {
      if (dsts[l] != nullptr) dsts[l][i] = s[i * lanes + l];
    }
  }
}

void BatchedKrylovWorkspace::resize(std::size_t n, int lanes,
                                    std::int64_t nnz) {
  if (n_ == n && lanes_ == lanes && nnz_ == nnz) return;
  n_ = n;
  lanes_ = lanes;
  nnz_ = nnz;
  const std::size_t total = n * static_cast<std::size_t>(lanes);
  for (auto* vec : {&r, &r0, &p, &v, &s, &t, &ph, &sh, &snap}) {
    vec->assign(total, 0.0);
  }
  cx.assign(total, 0.0);
  av.assign(static_cast<std::size_t>(nnz) * static_cast<std::size_t>(lanes),
            0.0);
}

// ---------------------------------------------------------------------------
// Fused batched kernels. Each mirrors its serial counterpart in
// kernels.cpp or sliced.cpp (whose SpMVs are bitwise the CSR row loops)
// with the lane dimension as the inner loop: per lane, the
// floating-point expression shapes and accumulation order are identical,
// which is what keeps a batched lane bitwise equal to a serial solve.
// ---------------------------------------------------------------------------

namespace {

/// The fused batched kernels are templated on a compile-time lane count
/// CL (0 = generic runtime width): with the width known, the lane inner
/// loops have constant trip counts, so the compiler unrolls them into
/// SIMD lanes and keeps the per-lane accumulators in registers — the
/// actual mechanism by which one pattern traversal advances K systems at
/// roughly the cost of one. dispatch_lanes() selects the instantiation.
template <typename F>
void dispatch_lanes(int lanes, F&& f) {
  switch (lanes) {
    case 1: f(std::integral_constant<int, 1>{}); return;
    case 2: f(std::integral_constant<int, 2>{}); return;
    case 3: f(std::integral_constant<int, 3>{}); return;
    case 4: f(std::integral_constant<int, 4>{}); return;
    case 5: f(std::integral_constant<int, 5>{}); return;
    case 6: f(std::integral_constant<int, 6>{}); return;
    case 7: f(std::integral_constant<int, 7>{}); return;
    case 8: f(std::integral_constant<int, 8>{}); return;
    case 16: f(std::integral_constant<int, 16>{}); return;
    default: f(std::integral_constant<int, 0>{}); return;
  }
}

/// The SpMV-shaped kernels work on raw (row_ptr, col_idx, values)
/// pointers with an explicit lane stride so the compaction path can
/// point them at the gathered-value scratch at a narrower width.
///
/// Width-16 cache blocking: at stride 16 a lane group spans two cache
/// lines, so the <16, 8, OFF> instantiations process lane halves
/// [0, 8) and [8, 16) in two passes — each pass touches exactly one
/// line per group and carries a width-8 live vector window, which is
/// what keeps width 16 from spilling L2. Per lane the row order and
/// accumulation chains are unchanged, so the bitwise contract holds.
///
/// CL = compile-time stride (0 = runtime), W = lanes processed per pass
/// (0 = runtime = all), OFF = first lane of the pass.

/// r = b - A x per lane; rr[l] = dot(r, r), bb[l] = dot(b, b)
/// (residual_norms).
template <int CL, int W, int OFF>
void t_residual_norms_part(const std::int32_t* __restrict rp,
                           const std::int32_t* __restrict ci,
                           const double* __restrict v, std::int32_t n,
                           int lanes, const double* __restrict x,
                           const double* __restrict b, double* __restrict r,
                           double* __restrict rr, double* __restrict bb) {
  const int L = CL > 0 ? CL : lanes;
  const int Wr = W > 0 ? W : lanes;
  for (int l = 0; l < Wr; ++l) {
    rr[OFF + l] = 0.0;
    bb[OFF + l] = 0.0;
  }
  double acc[kMaxBatchLanes];
  for (std::int32_t row = 0; row < n; ++row) {
    for (int l = 0; l < Wr; ++l) acc[l] = 0.0;
    for (std::int32_t k = rp[row]; k < rp[row + 1]; ++k) {
      const std::int64_t vk = static_cast<std::int64_t>(k) * L + OFF;
      const std::int64_t xk = static_cast<std::int64_t>(ci[k]) * L + OFF;
      for (int l = 0; l < Wr; ++l) acc[l] += v[vk + l] * x[xk + l];
    }
    const std::int64_t rk = static_cast<std::int64_t>(row) * L + OFF;
    for (int l = 0; l < Wr; ++l) {
      const double bi = b[rk + l];
      const double res = bi - acc[l];
      r[rk + l] = res;
      rr[OFF + l] += res * res;
      bb[OFF + l] += bi * bi;
    }
  }
}

template <int CL>
void t_residual_norms(const std::int32_t* rp, const std::int32_t* ci,
                      const double* v, std::int32_t n, int lanes,
                      const double* x, const double* b, double* r, double* rr,
                      double* bb) {
  if constexpr (CL == 16) {
    t_residual_norms_part<16, 8, 0>(rp, ci, v, n, lanes, x, b, r, rr, bb);
    t_residual_norms_part<16, 8, 8>(rp, ci, v, n, lanes, x, b, r, rr, bb);
  } else {
    t_residual_norms_part<CL, CL, 0>(rp, ci, v, n, lanes, x, b, r, rr, bb);
  }
}

void b_residual_norms(const std::int32_t* rp, const std::int32_t* ci,
                      const double* v, std::int32_t n, int lanes,
                      const double* x, const double* b, double* r, double* rr,
                      double* bb) {
  dispatch_lanes(lanes, [&](auto cl) {
    t_residual_norms<cl.value>(rp, ci, v, n, lanes, x, b, r, rr, bb);
  });
}

/// p = r + beta * (p - omega * v) per lane (bicgstab_p_update).
template <int CL>
void t_p_update(std::size_t n, int lanes, const double* __restrict r,
                const double* __restrict beta, const double* __restrict omega,
                const double* __restrict v, double* __restrict p) {
  const int L = CL > 0 ? CL : lanes;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = i * L;
    for (int l = 0; l < L; ++l) {
      p[k + l] = r[k + l] + beta[l] * (p[k + l] - omega[l] * v[k + l]);
    }
  }
}

void b_p_update(std::size_t n, int lanes, const double* r, const double* beta,
                const double* omega, const double* v, double* p) {
  dispatch_lanes(lanes, [&](auto cl) {
    t_p_update<cl.value>(n, lanes, r, beta, omega, v, p);
  });
}

/// y = A x per lane; out[l] = dot(w, y) (spmv_dot).
template <int CL, int W, int OFF>
void t_spmv_dot_part(const std::int32_t* __restrict rp,
                     const std::int32_t* __restrict ci,
                     const double* __restrict v, std::int32_t n, int lanes,
                     const double* __restrict x, double* __restrict y,
                     const double* __restrict w, double* __restrict out) {
  const int L = CL > 0 ? CL : lanes;
  const int Wr = W > 0 ? W : lanes;
  for (int l = 0; l < Wr; ++l) out[OFF + l] = 0.0;
  double acc[kMaxBatchLanes];
  for (std::int32_t row = 0; row < n; ++row) {
    for (int l = 0; l < Wr; ++l) acc[l] = 0.0;
    for (std::int32_t k = rp[row]; k < rp[row + 1]; ++k) {
      const std::int64_t vk = static_cast<std::int64_t>(k) * L + OFF;
      const std::int64_t xk = static_cast<std::int64_t>(ci[k]) * L + OFF;
      for (int l = 0; l < Wr; ++l) acc[l] += v[vk + l] * x[xk + l];
    }
    const std::int64_t rk = static_cast<std::int64_t>(row) * L + OFF;
    for (int l = 0; l < Wr; ++l) {
      y[rk + l] = acc[l];
      out[OFF + l] += w[rk + l] * acc[l];
    }
  }
}

template <int CL>
void t_spmv_dot(const std::int32_t* rp, const std::int32_t* ci,
                const double* v, std::int32_t n, int lanes, const double* x,
                double* y, const double* w, double* out) {
  if constexpr (CL == 16) {
    t_spmv_dot_part<16, 8, 0>(rp, ci, v, n, lanes, x, y, w, out);
    t_spmv_dot_part<16, 8, 8>(rp, ci, v, n, lanes, x, y, w, out);
  } else {
    t_spmv_dot_part<CL, CL, 0>(rp, ci, v, n, lanes, x, y, w, out);
  }
}

void b_spmv_dot(const std::int32_t* rp, const std::int32_t* ci,
                const double* v, std::int32_t n, int lanes, const double* x,
                double* y, const double* w, double* out) {
  dispatch_lanes(lanes, [&](auto cl) {
    t_spmv_dot<cl.value>(rp, ci, v, n, lanes, x, y, w, out);
  });
}

/// y = A x per lane; yy[l] = dot(y, y), wy[l] = dot(w, y) (spmv_dot2).
template <int CL, int W, int OFF>
void t_spmv_dot2_part(const std::int32_t* __restrict rp,
                      const std::int32_t* __restrict ci,
                      const double* __restrict v, std::int32_t n, int lanes,
                      const double* __restrict x, double* __restrict y,
                      const double* __restrict w, double* __restrict yy,
                      double* __restrict wy) {
  const int L = CL > 0 ? CL : lanes;
  const int Wr = W > 0 ? W : lanes;
  for (int l = 0; l < Wr; ++l) {
    yy[OFF + l] = 0.0;
    wy[OFF + l] = 0.0;
  }
  double acc[kMaxBatchLanes];
  for (std::int32_t row = 0; row < n; ++row) {
    for (int l = 0; l < Wr; ++l) acc[l] = 0.0;
    for (std::int32_t k = rp[row]; k < rp[row + 1]; ++k) {
      const std::int64_t vk = static_cast<std::int64_t>(k) * L + OFF;
      const std::int64_t xk = static_cast<std::int64_t>(ci[k]) * L + OFF;
      for (int l = 0; l < Wr; ++l) acc[l] += v[vk + l] * x[xk + l];
    }
    const std::int64_t rk = static_cast<std::int64_t>(row) * L + OFF;
    for (int l = 0; l < Wr; ++l) {
      y[rk + l] = acc[l];
      yy[OFF + l] += acc[l] * acc[l];
      wy[OFF + l] += w[rk + l] * acc[l];
    }
  }
}

template <int CL>
void t_spmv_dot2(const std::int32_t* rp, const std::int32_t* ci,
                 const double* v, std::int32_t n, int lanes, const double* x,
                 double* y, const double* w, double* yy, double* wy) {
  if constexpr (CL == 16) {
    t_spmv_dot2_part<16, 8, 0>(rp, ci, v, n, lanes, x, y, w, yy, wy);
    t_spmv_dot2_part<16, 8, 8>(rp, ci, v, n, lanes, x, y, w, yy, wy);
  } else {
    t_spmv_dot2_part<CL, CL, 0>(rp, ci, v, n, lanes, x, y, w, yy, wy);
  }
}

void b_spmv_dot2(const std::int32_t* rp, const std::int32_t* ci,
                 const double* v, std::int32_t n, int lanes, const double* x,
                 double* y, const double* w, double* yy, double* wy) {
  dispatch_lanes(lanes, [&](auto cl) {
    t_spmv_dot2<cl.value>(rp, ci, v, n, lanes, x, y, w, yy, wy);
  });
}

/// w = x + alpha * y per lane; out[l] = dot(w, w) (waxpby).
template <int CL>
void t_waxpby(std::size_t n, int lanes, double* __restrict w,
              const double* __restrict x, const double* __restrict alpha,
              const double* __restrict y, double* __restrict out) {
  const int L = CL > 0 ? CL : lanes;
  for (int l = 0; l < L; ++l) out[l] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = i * L;
    for (int l = 0; l < L; ++l) {
      const double wi = x[k + l] + alpha[l] * y[k + l];
      w[k + l] = wi;
      out[l] += wi * wi;
    }
  }
}

void b_waxpby(std::size_t n, int lanes, double* w, const double* x,
              const double* alpha, const double* y, double* out) {
  dispatch_lanes(lanes, [&](auto cl) {
    t_waxpby<cl.value>(n, lanes, w, x, alpha, y, out);
  });
}

/// x += alpha * ph + omega * sh; r = s - omega * t; rr[l] = dot(r, r),
/// r0r[l] = dot(r0, r) per lane (bicgstab_final_update).
template <int CL>
void t_final_update(std::size_t n, int lanes, const double* __restrict alpha,
                    const double* __restrict ph,
                    const double* __restrict omega,
                    const double* __restrict sh, const double* __restrict s,
                    const double* __restrict t, const double* __restrict r0,
                    double* __restrict x, double* __restrict r,
                    double* __restrict rr, double* __restrict r0r) {
  const int L = CL > 0 ? CL : lanes;
  for (int l = 0; l < L; ++l) {
    rr[l] = 0.0;
    r0r[l] = 0.0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = i * L;
    for (int l = 0; l < L; ++l) {
      x[k + l] += alpha[l] * ph[k + l] + omega[l] * sh[k + l];
      const double ri = s[k + l] - omega[l] * t[k + l];
      r[k + l] = ri;
      rr[l] += ri * ri;
      r0r[l] += r0[k + l] * ri;
    }
  }
}

void b_final_update(std::size_t n, int lanes, const double* alpha,
                    const double* ph, const double* omega, const double* sh,
                    const double* s, const double* t, const double* r0,
                    double* x, double* r, double* rr, double* r0r) {
  dispatch_lanes(lanes, [&](auto cl) {
    t_final_update<cl.value>(n, lanes, alpha, ph, omega, sh, s, t, r0, x, r,
                             rr, r0r);
  });
}

static_assert(kMaxBatchLanes <= kMaxIluLanes,
              "the ILU(0) kernel's accumulators must hold a whole batch");

/// ILU(0) solve over all lanes of a stride; width 16 runs as two
/// cache-blocked halves like the SpMV kernels above.
template <int CL>
void t_ilu_apply(const IluSchedule& s, int lanes, const double* f,
                 const double* r, double* z) {
  if constexpr (CL == 16) {
    ilu0_apply_lanes<16, 8, 0>(s, lanes, f, r, z);
    ilu0_apply_lanes<16, 8, 8>(s, lanes, f, r, z);
  } else {
    ilu0_apply_lanes<CL, CL, 0>(s, lanes, f, r, z);
  }
}

}  // namespace

void batched_residual_norms(const BatchedCsr& a, std::span<const double> x,
                            std::span<const double> b, std::span<double> r,
                            std::span<double> rr, std::span<double> bb) {
  const std::size_t total =
      static_cast<std::size_t>(a.rows()) * static_cast<std::size_t>(a.lanes());
  require(x.size() == total && b.size() == total && r.size() == total &&
              rr.size() == static_cast<std::size_t>(a.lanes()) &&
              bb.size() == rr.size(),
          "batched_residual_norms: size mismatch");
  b_residual_norms(a.row_ptr().data(), a.col_idx().data(), a.values().data(),
                   a.rows(), a.lanes(), x.data(), b.data(), r.data(),
                   rr.data(), bb.data());
}

// ---------------------------------------------------------------------------
// BatchedIlu0Preconditioner
// ---------------------------------------------------------------------------

BatchedIlu0Preconditioner::BatchedIlu0Preconditioner(
    const BatchedCsr& a, const SymbolicStructure* structure)
    : lanes_(a.lanes()), rows_(a.rows()) {
  if (structure != nullptr) {
    require(structure->matches(a.row_ptr(), a.col_idx()),
            "BatchedIlu0Preconditioner: structure does not match the matrix");
    require(structure->ilu_schedule != nullptr,
            "BatchedIlu0Preconditioner: missing diagonal entry");
    schedule_ = structure->ilu_schedule;
  } else {
    schedule_ = build_ilu_schedule(a.row_ptr(), a.col_idx());
  }
  lu_.assign(static_cast<std::size_t>(a.nnz()) * lanes_, 0.0);
  clu_.assign(lu_.size(), 0.0);  // compaction scratch, preallocated
  for (int l = 0; l < lanes_; ++l) refactor_lane(l, a);
}

void BatchedIlu0Preconditioner::refactor_lane(int lane, const BatchedCsr& a) {
  require(a.lanes() == lanes_,
          "BatchedIlu0Preconditioner::refactor_lane: lane count mismatch");
  // Identical per-lane arithmetic to the scalar Ilu0Preconditioner
  // (only the lane stride and the row-major slot order differ).
  ilu0_factor_lane(*schedule_, schedule_->slot, a.row_ptr(), a.col_idx(),
                   a.values().data(), lu_.data(), lanes_, lane);
}

void BatchedIlu0Preconditioner::apply(std::span<const double> r,
                                      std::span<double> z) const {
  require(r.size() == static_cast<std::size_t>(rows_) * lanes_ &&
              z.size() == r.size(),
          "BatchedIlu0Preconditioner: size mismatch");
  dispatch_lanes(lanes_, [&](auto cl) {
    t_ilu_apply<cl.value>(*schedule_, lanes_, lu_.data(), r.data(), z.data());
  });
}

void BatchedIlu0Preconditioner::compact_lanes(
    std::span<const int> lanes) const {
  cwidth_ = static_cast<int>(lanes.size());
  const double* __restrict src = lu_.data();
  double* __restrict dst = clu_.data();
  const int L = lanes_;
  const int W = cwidth_;
  const std::int64_t nnz =
      static_cast<std::int64_t>(lu_.size()) / static_cast<std::int64_t>(L);
  for (std::int64_t k = 0; k < nnz; ++k) {
    for (int c = 0; c < W; ++c) dst[k * W + c] = src[k * L + lanes[c]];
  }
}

void BatchedIlu0Preconditioner::apply_compacted(const double* r,
                                                double* z) const {
  dispatch_lanes(cwidth_, [&](auto cl) {
    t_ilu_apply<cl.value>(*schedule_, cwidth_, clu_.data(), r, z);
  });
}

// ---------------------------------------------------------------------------
// batched_bicgstab
// ---------------------------------------------------------------------------

namespace {

/// Narrowest fused-kernel dispatch width that holds \p k live lanes
/// (every width in [1, 8] has a dedicated instantiation; above that the
/// next stop is the cache-blocked 16).
int compaction_width(int k) {
  return k <= 8 ? std::max(k, 1) : 16;
}

}  // namespace

int batched_bicgstab(const BatchedCsr& a, std::span<const double> b,
                     std::span<double> x, const BatchedIlu0Preconditioner& m,
                     std::span<const double> rel_tolerance,
                     std::int32_t max_iterations,
                     std::span<const std::uint8_t> active,
                     BatchedKrylovWorkspace& ws,
                     std::span<BatchedLaneResult> results) {
  const std::int32_t n = a.rows();
  const int L = a.lanes();
  const std::size_t total = static_cast<std::size_t>(n) * L;
  require(b.size() == total && x.size() == total &&
              rel_tolerance.size() == static_cast<std::size_t>(L) &&
              active.size() == static_cast<std::size_t>(L) &&
              results.size() == static_cast<std::size_t>(L),
          "batched_bicgstab: size mismatch");
  ws.resize(static_cast<std::size_t>(n), L, a.nnz());
  const std::int32_t* __restrict rp = a.row_ptr().data();
  const std::int32_t* __restrict ci = a.col_idx().data();

  // Everything below runs in SLOT space: slot s carries original lane
  // slot_lane[s] at the current kernel width W. Before the first
  // compaction W == L and slots are the identity; a compaction event
  // repacks the surviving lanes into slots [0, live) of the next
  // narrower dispatch width (padding slots stream garbage exactly like
  // finished lanes always did). x is viewed through xv (the caller's
  // buffer until the first compaction moves it into ws.cx) and the
  // matrix values through mv (a's interleaved values until the first
  // compaction gathers the survivors into ws.av).
  double rr[kMaxBatchLanes], bb[kMaxBatchLanes], bnorm[kMaxBatchLanes];
  double rho[kMaxBatchLanes], alpha[kMaxBatchLanes], omega[kMaxBatchLanes];
  double beta[kMaxBatchLanes], rho_new[kMaxBatchLanes], r0v[kMaxBatchLanes];
  double neg_alpha[kMaxBatchLanes], ss[kMaxBatchLanes];
  double tt[kMaxBatchLanes], ts[kMaxBatchLanes], ctol[kMaxBatchLanes];
  std::uint8_t running[kMaxBatchLanes];
  int slot_lane[kMaxBatchLanes];
  int n_running = 0;
  int W = L;
  int events = 0;
  bool compacted = false;
  double* xv = x.data();
  const double* mv = a.values().data();

  for (int l = 0; l < L; ++l) {
    slot_lane[l] = l;
    ctol[l] = rel_tolerance[l];
  }

  // Freeze slot s's current column of x into the snapshot buffer (which
  // stays at the caller's stride L, keyed by original lane).
  const auto snap_x = [&](int s) {
    const int lane = slot_lane[s];
    for (std::int32_t i = 0; i < n; ++i) {
      ws.snap[static_cast<std::size_t>(i) * L + lane] =
          xv[static_cast<std::size_t>(i) * W + s];
    }
  };
  // Mid-iteration convergence exit: the serial solver finishes with
  // axpy(alpha, ph, x) — freeze x + alpha*ph without disturbing x.
  const auto snap_x_plus_alpha_ph = [&](int s) {
    const int lane = slot_lane[s];
    for (std::int32_t i = 0; i < n; ++i) {
      const std::size_t k = static_cast<std::size_t>(i) * W + s;
      ws.snap[static_cast<std::size_t>(i) * L + lane] =
          xv[k] + alpha[s] * ws.ph[k];
    }
  };
  const auto finish = [&](int s, bool converged) {
    results[slot_lane[s]].converged = converged;
    running[s] = 0;
    --n_running;
  };
  const auto apply_m = [&](const std::vector<double>& src,
                           std::vector<double>& dst) {
    if (!compacted) {
      m.apply(src, dst);
    } else {
      m.apply_compacted(src.data(), dst.data());
    }
  };

  // Repack the surviving lanes' solver state to the next narrower
  // dispatch width. Whole lane columns move — no per-lane arithmetic —
  // so each lane's bitwise trajectory is unchanged; the per-iteration
  // kernels just stop paying for finished lanes.
  const auto compact = [&]() {
    const int nw = compaction_width(n_running);
    int keep[kMaxBatchLanes];
    int live = 0;
    for (int s = 0; s < W; ++s) {
      if (running[s]) keep[live++] = s;
    }
    // Scalars: keep[] ascends, so in-place moves read ahead of writes.
    for (int c = 0; c < live; ++c) {
      const int s = keep[c];
      rr[c] = rr[s];
      rho_new[c] = rho_new[s];
      bnorm[c] = bnorm[s];
      rho[c] = rho[s];
      alpha[c] = alpha[s];
      omega[c] = omega[s];
      ctol[c] = ctol[s];
      slot_lane[c] = slot_lane[s];
      running[c] = 1;
    }
    for (int c = live; c < nw; ++c) {
      // Padding slots: finite scalars, slot 0's lane data — they stream
      // through the kernels like finished lanes always did and are never
      // read back.
      rr[c] = 0.0;
      rho_new[c] = 1.0;
      bnorm[c] = 1.0;
      rho[c] = 1.0;
      alpha[c] = 1.0;
      omega[c] = 1.0;
      ctol[c] = 1.0;
      slot_lane[c] = slot_lane[0];
      running[c] = 0;
    }
    // State vectors that live across iterations: x (via cx), r, r0, p,
    // v. (s, t, ph, sh are rebuilt every iteration before use; b is only
    // read by the initial residual.) Row-by-row with a bounce buffer:
    // row i's writes land at or before its reads, ascending.
    double tmp[kMaxBatchLanes];
    const auto repack = [&](double* vec) {
      for (std::int32_t i = 0; i < n; ++i) {
        const std::int64_t src = static_cast<std::int64_t>(i) * W;
        const std::int64_t dst = static_cast<std::int64_t>(i) * nw;
        for (int c = 0; c < live; ++c) tmp[c] = vec[src + keep[c]];
        for (int c = 0; c < live; ++c) vec[dst + c] = tmp[c];
      }
    };
    if (!compacted) {
      for (std::int32_t i = 0; i < n; ++i) {
        const std::int64_t src = static_cast<std::int64_t>(i) * W;
        const std::int64_t dst = static_cast<std::int64_t>(i) * nw;
        for (int c = 0; c < live; ++c) ws.cx[dst + c] = xv[src + keep[c]];
      }
      xv = ws.cx.data();
    } else {
      repack(ws.cx.data());
    }
    repack(ws.r.data());
    repack(ws.r0.data());
    repack(ws.p.data());
    repack(ws.v.data());
    // Gather the survivors' matrix values (always from the original
    // interleave) and preconditioner factors at the new width.
    {
      const double* __restrict src = a.values().data();
      double* __restrict dst = ws.av.data();
      const std::int64_t nnz = a.nnz();
      for (std::int64_t k = 0; k < nnz; ++k) {
        for (int c = 0; c < nw; ++c) {
          dst[k * nw + c] = src[k * L + slot_lane[c]];
        }
      }
      mv = ws.av.data();
    }
    m.compact_lanes(std::span<const int>(slot_lane, static_cast<std::size_t>(nw)));
    compacted = true;
    W = nw;
  };

  b_residual_norms(rp, ci, mv, n, L, xv, b.data(), ws.r.data(), rr, bb);
  for (int l = 0; l < L; ++l) {
    results[l] = BatchedLaneResult{};
    running[l] = 0;
    if (!active[l]) continue;
    bnorm[l] = std::max(std::sqrt(bb[l]), 1e-300);
    results[l].residual_norm = std::sqrt(rr[l]);
    if (results[l].residual_norm / bnorm[l] <= rel_tolerance[l]) {
      results[l].converged = true;  // warm start was good enough
    } else {
      running[l] = 1;
      ++n_running;
    }
  }
  // Every warm start was good enough: x is untouched (only the residual
  // scratch was written), so skip the snapshot/restore machinery and the
  // workspace setup entirely — the common case of well-warm-started
  // lockstep batches.
  if (n_running == 0) return 0;
  for (int l = 0; l < L; ++l) {
    if (active[l] && !running[l]) snap_x(l);
  }

  std::copy(ws.r.begin(), ws.r.end(), ws.r0.begin());
  for (int l = 0; l < L; ++l) {
    rho[l] = 1.0;
    alpha[l] = 1.0;
    omega[l] = 1.0;
    // dot(r0, r): with r0 == r, rho_1 is element for element the sum
    // residual_norms accumulated in the same order; later ones come out
    // of the fused final update.
    rho_new[l] = rr[l];
  }
  std::fill(ws.p.begin(), ws.p.end(), 0.0);
  std::fill(ws.v.begin(), ws.v.end(), 0.0);

  for (std::int32_t it = 1; it <= max_iterations && n_running > 0; ++it) {
    if (compaction_width(n_running) < W) {
      compact();
      ++events;
    }
    for (int s = 0; s < W; ++s) {
      if (running[s] && rho_new[s] == 0.0) {
        snap_x(s);  // breakdown; report non-convergence
        finish(s, false);
      }
    }
    if (n_running == 0) break;
    for (int s = 0; s < W; ++s) {
      beta[s] = (rho_new[s] / rho[s]) * (alpha[s] / omega[s]);
      rho[s] = rho_new[s];
    }
    b_p_update(static_cast<std::size_t>(n), W, ws.r.data(), beta, omega,
               ws.v.data(), ws.p.data());
    apply_m(ws.p, ws.ph);
    b_spmv_dot(rp, ci, mv, n, W, ws.ph.data(), ws.v.data(), ws.r0.data(),
               r0v);
    for (int s = 0; s < W; ++s) {
      if (running[s] && r0v[s] == 0.0) {
        snap_x(s);
        finish(s, false);
      }
    }
    if (n_running == 0) break;
    for (int s = 0; s < W; ++s) {
      alpha[s] = rho[s] / r0v[s];
      neg_alpha[s] = -alpha[s];
    }
    b_waxpby(static_cast<std::size_t>(n), W, ws.s.data(), ws.r.data(),
             neg_alpha, ws.v.data(), ss);
    for (int s = 0; s < W; ++s) {
      if (!running[s]) continue;
      results[slot_lane[s]].iterations = it;
      const double snorm = std::sqrt(ss[s]);
      if (snorm / bnorm[s] <= ctol[s]) {
        // Serial exit point "s is small": x += alpha * ph.
        snap_x_plus_alpha_ph(s);
        results[slot_lane[s]].residual_norm = snorm;
        finish(s, true);
      }
    }
    if (n_running == 0) break;
    apply_m(ws.s, ws.sh);
    b_spmv_dot2(rp, ci, mv, n, W, ws.sh.data(), ws.t.data(), ws.s.data(), tt,
                ts);
    for (int s = 0; s < W; ++s) {
      if (running[s] && tt[s] == 0.0) {
        snap_x(s);
        finish(s, false);
      }
    }
    if (n_running == 0) break;
    for (int s = 0; s < W; ++s) omega[s] = ts[s] / tt[s];
    b_final_update(static_cast<std::size_t>(n), W, alpha, ws.ph.data(), omega,
                   ws.sh.data(), ws.s.data(), ws.t.data(), ws.r0.data(), xv,
                   ws.r.data(), rr, rho_new);
    for (int s = 0; s < W; ++s) {
      if (!running[s]) continue;
      const double rnorm = std::sqrt(rr[s]);
      results[slot_lane[s]].residual_norm = rnorm;
      if (rnorm / bnorm[s] <= ctol[s]) {
        snap_x(s);
        finish(s, true);
      } else if (omega[s] == 0.0) {
        snap_x(s);  // stagnation breakdown, same as the serial break
        finish(s, false);
      }
    }
  }

  // Iteration budget exhausted with lanes still running: their current
  // iterate is the answer the serial solver would have returned too.
  for (int s = 0; s < W; ++s) {
    if (running[s]) {
      snap_x(s);
      finish(s, false);
    }
  }
  // Restore every active lane's frozen solution (later kernels kept
  // streaming garbage through finished lanes' slots; compaction may have
  // moved the live columns out of x entirely). One fused pass.
  {
    double* __restrict xs = x.data();
    const double* __restrict snap = ws.snap.data();
    for (std::int32_t i = 0; i < n; ++i) {
      const std::size_t k = static_cast<std::size_t>(i) * L;
      for (int l = 0; l < L; ++l) {
        if (active[l]) xs[k + l] = snap[k + l];
      }
    }
  }
  return events;
}

// ---------------------------------------------------------------------------
// BatchedBicgstabSolver
// ---------------------------------------------------------------------------

BatchedBicgstabSolver::BatchedBicgstabSolver(const BatchedCsr& a,
                                             const SymbolicStructure* structure)
    : precond_(a, structure) {
  const std::size_t L = static_cast<std::size_t>(a.lanes());
  refresh_.assign(L, LazyRefresh(a.rows()));
  stats_.resize(L);
  tol_.assign(L, 1e-12);
  warm_save_.assign(static_cast<std::size_t>(a.rows()) * L, 0.0);
  results_.resize(L);
  retry_.assign(L, 0);
  ws_.resize(static_cast<std::size_t>(a.rows()), a.lanes(), a.nnz());
}

void BatchedBicgstabSolver::set_tolerance(int lane, double rel_tolerance) {
  tol_[static_cast<std::size_t>(lane)] = rel_tolerance;
}

void BatchedBicgstabSolver::refactor_lane_now(int lane, const BatchedCsr& a) {
  precond_.refactor_lane(lane, a);
  const std::size_t l = static_cast<std::size_t>(lane);
  refresh_[l].refactored(stats_[l]);
}

void BatchedBicgstabSolver::update_lane_values(int lane, const BatchedCsr& a,
                                               const ValueUpdate& update) {
  const std::size_t l = static_cast<std::size_t>(lane);
  if (refresh_[l].update(update, stats_[l])) refactor_lane_now(lane, a);
}

void BatchedBicgstabSolver::solve(const BatchedCsr& a,
                                  std::span<const double> b,
                                  std::span<double> x,
                                  std::span<const std::uint8_t> active,
                                  std::span<std::uint8_t> failed) {
  const int L = lanes();
  const std::int32_t n = a.rows();
  require(active.size() == static_cast<std::size_t>(L) &&
              failed.size() == static_cast<std::size_t>(L),
          "BatchedBicgstabSolver::solve: mask size mismatch");
  std::fill(failed.begin(), failed.end(), std::uint8_t{0});

  // Save stale lanes' warm starts so a diverged stale attempt (which
  // mutates x, possibly to NaN) can be retried cleanly.
  std::uint8_t stale[kMaxBatchLanes] = {};
  for (int l = 0; l < L; ++l) {
    if (active[l] && refresh_[static_cast<std::size_t>(l)].stale()) {
      stale[l] = 1;
      for (std::int32_t i = 0; i < n; ++i) {
        const std::size_t k = static_cast<std::size_t>(i) * L + l;
        warm_save_[k] = x[k];
      }
    }
  }

  compaction_events_ += static_cast<std::uint64_t>(
      batched_bicgstab(a, b, x, precond_, tol_, 5000, active, ws_, results_));

  // Stale-factor retry, per lane: refresh, restore the warm start, and
  // give the failed lanes one more batched pass together.
  bool any_retry = false;
  std::fill(retry_.begin(), retry_.end(), std::uint8_t{0});
  for (int l = 0; l < L; ++l) {
    if (!active[l] || results_[l].converged || !stale[l]) continue;
    try {
      refactor_lane_now(l, a);
    } catch (...) {
      // Refactor blew up on this lane's values (zero pivot); fail the
      // lane alone — its batchmates' solves are already committed.
      failed[l] = 1;
      continue;
    }
    ++stats_[static_cast<std::size_t>(l)].retries;
    for (std::int32_t i = 0; i < n; ++i) {
      const std::size_t k = static_cast<std::size_t>(i) * L + l;
      x[k] = warm_save_[k];
    }
    retry_[static_cast<std::size_t>(l)] = 1;
    any_retry = true;
  }
  if (any_retry) {
    // The retry pass streams every lane's x column through the fused
    // kernels again (lanes never mix, but finished batchmates' columns
    // do get overwritten and only retried lanes are restored from the
    // snapshot) — save the non-retried lanes' committed solutions and
    // put them back afterwards.
    if (x_save_.size() != x.size()) x_save_.assign(x.size(), 0.0);
    std::copy(x.begin(), x.end(), x_save_.begin());
    std::array<BatchedLaneResult, kMaxBatchLanes> retry_results;
    compaction_events_ += static_cast<std::uint64_t>(batched_bicgstab(
        a, b, x, precond_, tol_, 5000, retry_, ws_,
        std::span<BatchedLaneResult>(retry_results.data(),
                                     static_cast<std::size_t>(L))));
    for (std::int32_t i = 0; i < n; ++i) {
      const std::size_t k = static_cast<std::size_t>(i) * L;
      for (int l = 0; l < L; ++l) {
        if (!retry_[static_cast<std::size_t>(l)]) x[k + l] = x_save_[k + l];
      }
    }
    for (int l = 0; l < L; ++l) {
      if (retry_[static_cast<std::size_t>(l)]) {
        results_[l] = retry_results[static_cast<std::size_t>(l)];
      }
    }
  }

  for (int l = 0; l < L; ++l) {
    if (!active[l]) continue;
    if (!results_[l].converged) {
      failed[l] = 1;  // serial path: NumericalError
      continue;
    }
    const std::size_t s = static_cast<std::size_t>(l);
    if (refresh_[s].solved(results_[l].iterations, stats_[s])) {
      try {
        refactor_lane_now(l, a);
      } catch (...) {
        // The serial path would throw out of solve() here; fail only
        // this lane (its solution this step was still committed).
        failed[l] = 1;
      }
    }
  }
}

}  // namespace tac3d::sparse
