#include "sparse/iterative.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "sparse/kernels.hpp"

namespace tac3d::sparse {

void KrylovWorkspace::resize(std::size_t n) {
  if (n_ == n) return;
  n_ = n;
  for (auto* vec : {&r, &r0, &p, &v, &s, &t, &ph, &sh}) {
    vec->assign(n, 0.0);
  }
}

IterativeResult bicgstab(const SlicedMatrix& a, std::span<const double> b,
                         std::span<double> x, const Ilu0Preconditioner& m,
                         const IterativeOptions& opts, KrylovWorkspace& ws) {
  const std::size_t n = b.size();
  require(static_cast<std::size_t>(a.rows()) == n && x.size() == n,
          "bicgstab: size mismatch");
  ws.resize(n);
  auto& r = ws.r;
  auto& r0 = ws.r0;
  auto& p = ws.p;
  auto& v = ws.v;
  auto& s = ws.s;
  auto& t = ws.t;
  auto& ph = ws.ph;
  auto& sh = ws.sh;

  double bb = 0.0;
  const double rr = residual_norms(a, x, b, r, &bb);

  const double bnorm = std::max(std::sqrt(bb), 1e-300);
  IterativeResult res;
  res.residual_norm = std::sqrt(rr);
  if (res.residual_norm / bnorm <= opts.rel_tolerance) {
    res.converged = true;  // warm start was good enough; skip all setup
    return res;
  }
  std::copy(r.begin(), r.end(), r0.begin());

  double rho = 1.0, alpha = 1.0, omega = 1.0;
  std::fill(p.begin(), p.end(), 0.0);
  std::fill(v.begin(), v.end(), 0.0);
  // dot(r0, r): with r0 == r, rho_1 is element for element the sum
  // residual_norms accumulated in the same order; later ones come out
  // of the fused final update.
  double rho_new = rr;

  for (std::int32_t it = 1; it <= opts.max_iterations; ++it) {
    if (rho_new == 0.0) break;  // breakdown; report non-convergence
    const double beta = (rho_new / rho) * (alpha / omega);
    rho = rho_new;
    bicgstab_p_update(r, beta, omega, v, p);
    m.apply(p, ph);
    const double r0v = spmv_dot(a, ph, v, r0);
    if (r0v == 0.0) break;
    alpha = rho / r0v;
    waxpy(s, r, -alpha, v);
    // sh = M^{-1} s ahead of the ||s|| check, whose sum rides in its
    // forward sweep; the exit below discards it.
    const double ss = m.apply_sum_squares(s, sh);
    res.iterations = it;
    if (std::sqrt(ss) / bnorm <= opts.rel_tolerance) {
      axpy(alpha, ph, x);
      res.residual_norm = std::sqrt(ss);
      res.converged = true;
      return res;
    }
    double ts = 0.0;
    const double tt = spmv_dot2(a, sh, t, s, &ts);
    if (tt == 0.0) break;
    omega = ts / tt;
    const double rr_new =
        bicgstab_final_update(alpha, ph, omega, sh, s, t, r0, x, r, &rho_new);
    res.residual_norm = std::sqrt(rr_new);
    if (res.residual_norm / bnorm <= opts.rel_tolerance) {
      res.converged = true;
      return res;
    }
    if (omega == 0.0) break;
  }
  return res;
}

IterativeResult bicgstab(const SlicedMatrix& a, std::span<const double> b,
                         std::span<double> x, const Ilu0Preconditioner& m,
                         const IterativeOptions& opts) {
  KrylovWorkspace ws;
  return bicgstab(a, b, x, m, opts, ws);
}

}  // namespace tac3d::sparse
