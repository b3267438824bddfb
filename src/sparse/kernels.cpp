#include "sparse/kernels.hpp"

#include "common/error.hpp"

namespace tac3d::sparse {

namespace {

/// Shared size check for the n-vector kernels.
inline void check(bool ok, const char* what) { require(ok, what); }

}  // namespace

void spmv(const CsrMatrix& a, std::span<const double> x,
          std::span<double> y) {
  check(static_cast<std::int32_t>(x.size()) == a.cols() &&
            static_cast<std::int32_t>(y.size()) == a.rows(),
        "spmv: size mismatch");
  const std::int32_t* __restrict rp = a.row_ptr().data();
  const std::int32_t* __restrict ci = a.col_idx().data();
  const double* __restrict v = a.values().data();
  const double* __restrict xs = x.data();
  double* __restrict ys = y.data();
  const std::int32_t n = a.rows();
  for (std::int32_t r = 0; r < n; ++r) {
    double acc = 0.0;
    for (std::int32_t k = rp[r]; k < rp[r + 1]; ++k) {
      acc += v[k] * xs[ci[k]];
    }
    ys[r] = acc;
  }
}

double spmv_dot(const CsrMatrix& a, std::span<const double> x,
                std::span<double> y, std::span<const double> w) {
  check(static_cast<std::int32_t>(x.size()) == a.cols() &&
            static_cast<std::int32_t>(y.size()) == a.rows() &&
            w.size() == y.size(),
        "spmv_dot: size mismatch");
  const std::int32_t* __restrict rp = a.row_ptr().data();
  const std::int32_t* __restrict ci = a.col_idx().data();
  const double* __restrict v = a.values().data();
  const double* __restrict xs = x.data();
  const double* __restrict ws = w.data();
  double* __restrict ys = y.data();
  const std::int32_t n = a.rows();
  double acc_dot = 0.0;
  for (std::int32_t r = 0; r < n; ++r) {
    double acc = 0.0;
    for (std::int32_t k = rp[r]; k < rp[r + 1]; ++k) {
      acc += v[k] * xs[ci[k]];
    }
    ys[r] = acc;
    acc_dot += ws[r] * acc;
  }
  return acc_dot;
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  check(x.size() == y.size(), "axpy: size mismatch");
  const double* __restrict xs = x.data();
  double* __restrict ys = y.data();
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) ys[i] += alpha * xs[i];
}

void waxpy(std::span<double> w, std::span<const double> x, double alpha,
           std::span<const double> y) {
  check(w.size() == x.size() && y.size() == x.size(), "waxpy: size mismatch");
  double* __restrict ws = w.data();
  const double* __restrict xs = x.data();
  const double* __restrict ys = y.data();
  const std::size_t n = w.size();
  for (std::size_t i = 0; i < n; ++i) ws[i] = xs[i] + alpha * ys[i];
}

void bicgstab_p_update(std::span<const double> r, double beta, double omega,
                       std::span<const double> v, std::span<double> p) {
  check(r.size() == p.size() && v.size() == p.size(),
        "bicgstab_p_update: size mismatch");
  const double* __restrict rs = r.data();
  const double* __restrict vs = v.data();
  double* __restrict ps = p.data();
  const std::size_t n = p.size();
  for (std::size_t i = 0; i < n; ++i) {
    ps[i] = rs[i] + beta * (ps[i] - omega * vs[i]);
  }
}

double bicgstab_final_update(double alpha, std::span<const double> ph,
                             double omega, std::span<const double> sh,
                             std::span<const double> s,
                             std::span<const double> t,
                             std::span<const double> r0, std::span<double> x,
                             std::span<double> r, double* r0r) {
  check(ph.size() == x.size() && sh.size() == x.size() &&
            s.size() == x.size() && t.size() == x.size() &&
            r0.size() == x.size() && r.size() == x.size() && r0r != nullptr,
        "bicgstab_final_update: size mismatch");
  const double* __restrict phs = ph.data();
  const double* __restrict shs = sh.data();
  const double* __restrict ss = s.data();
  const double* __restrict ts = t.data();
  const double* __restrict r0s = r0.data();
  double* __restrict xs = x.data();
  double* __restrict rs = r.data();
  const std::size_t n = x.size();
  double acc = 0.0;
  double acc_r0r = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] += alpha * phs[i] + omega * shs[i];
    const double ri = ss[i] - omega * ts[i];
    rs[i] = ri;
    acc += ri * ri;
    acc_r0r += r0s[i] * ri;
  }
  *r0r = acc_r0r;
  return acc;
}

}  // namespace tac3d::sparse
