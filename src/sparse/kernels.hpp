#pragma once
/// \file kernels.hpp
/// \brief Fused, allocation-free linear-algebra kernels for the solver
/// hot path.
///
/// The transient thermal loop spends nearly all of its time in SpMV,
/// dot products and vector updates. These kernels work on raw contiguous
/// arrays (no virtual dispatch, no bounds checks beyond a debug-style
/// require at the span level in callers), fuse passes that the naive
/// formulation would run separately (SpMV + dot, the BiCGSTAB final
/// update + residual), and never allocate — callers
/// provide every output buffer. Inner loops are written so the compiler
/// can auto-vectorize them.

#include <span>

#include "sparse/csr.hpp"

namespace tac3d::sparse {

/// y = A x (plain SpMV on the CSR arrays).
void spmv(const CsrMatrix& a, std::span<const double> x, std::span<double> y);

/// y = A x, returning dot(w, y) from the same pass (fused SpMV + dot).
double spmv_dot(const CsrMatrix& a, std::span<const double> x,
                std::span<double> y, std::span<const double> w);

/// y += alpha * x.
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// w = x + alpha * y.
void waxpy(std::span<double> w, std::span<const double> x, double alpha,
           std::span<const double> y);

/// BiCGSTAB direction update p = r + beta * (p - omega * v).
void bicgstab_p_update(std::span<const double> r, double beta, double omega,
                       std::span<const double> v, std::span<double> p);

/// BiCGSTAB tail fused into one pass:
///   x += alpha * ph + omega * sh,  r = s - omega * t;
/// returns dot(r, r) and sets *r0r = dot(r0, r), the next iteration's
/// rho.
double bicgstab_final_update(double alpha, std::span<const double> ph,
                             double omega, std::span<const double> sh,
                             std::span<const double> s,
                             std::span<const double> t,
                             std::span<const double> r0, std::span<double> x,
                             std::span<double> r, double* r0r);

}  // namespace tac3d::sparse
