#include "sparse/sliced.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "sparse/symbolic.hpp"

namespace tac3d::sparse {

namespace {

bool is_long(std::int32_t len) { return len > kSliceMaxRowLength; }

/// The one traversal behind the three kernels: per slice, the rows'
/// accumulators side by side (long rows by the CSR row loop), then
/// row(i, (A x)_i) for each row of the slice in natural order.
template <typename Row>
inline void traverse(const SlicedMatrix& a, const double* __restrict x,
                     Row&& row) {
  const SlicedPattern& p = a.pattern();
  const std::int32_t n = p.rows;
  const std::int32_t* __restrict sp = p.slice_ptr.data();
  const std::int32_t* __restrict cols = p.cols.data();
  const std::int32_t* __restrict lr = p.long_rows.data();
  const std::int32_t* __restrict lp = p.long_ptr.data();
  const std::uint32_t* __restrict contiguous = p.contiguous.data();
  const double* __restrict v = a.values().data();
  const std::int32_t slices = p.slices();
  std::int32_t next = 0;  // index of the next long row
  for (std::int32_t s = 0; s < slices; ++s) {
    double acc[kSliceRows] = {};
    std::uint32_t mask = contiguous[s];
    for (std::int32_t e = sp[s]; e < sp[s + 1]; e += kSliceRows, mask >>= 1) {
      double xs[kSliceRows];
      if (mask & 1u) {
        std::copy_n(x + cols[e], kSliceRows, xs);
      } else {
        for (int j = 0; j < kSliceRows; ++j) xs[j] = x[cols[e + j]];
      }
      for (int j = 0; j < kSliceRows; ++j) acc[j] += v[e + j] * xs[j];
    }
    const std::int32_t base = s * kSliceRows;
    for (; lr[next] < base + kSliceRows; ++next) {
      double sum = 0.0;
      for (std::int32_t e = lp[next]; e < lp[next + 1]; ++e) {
        sum += v[e] * x[cols[e]];
      }
      acc[lr[next] - base] = sum;
    }
    // A full slice gets the fixed trip count (unrolled); the lanes of a
    // partial last slice past row n - 1 are padding.
    if (n - base >= kSliceRows) {
      for (int j = 0; j < kSliceRows; ++j) row(base + j, acc[j]);
    } else {
      for (int j = 0; j < n - base; ++j) row(base + j, acc[j]);
    }
  }
}

}  // namespace

std::shared_ptr<const SlicedPattern> build_sliced_pattern(
    std::span<const std::int32_t> rp, std::span<const std::int32_t> ci) {
  require(!rp.empty() && rp.front() == 0 &&
              static_cast<std::size_t>(rp.back()) == ci.size(),
          "sliced pattern: malformed CSR pattern");
  const std::int32_t n = static_cast<std::int32_t>(rp.size() - 1);
  for (const std::int32_t c : ci) {
    require(c >= 0 && c < n, "sliced pattern: matrix must be square");
  }
  const auto len = [&](std::int32_t r) { return rp[r + 1] - rp[r]; };
  auto p = std::make_shared<SlicedPattern>();
  p->rows = n;
  p->nnz = static_cast<std::int64_t>(ci.size());

  // Slice widths: the longest row of the slice that is not a long row.
  const std::int32_t slices = (n + kSliceRows - 1) / kSliceRows;
  p->slice_ptr.assign(static_cast<std::size_t>(slices) + 1, 0);
  std::int64_t total = 0;
  for (std::int32_t s = 0; s < slices; ++s) {
    std::int32_t width = 0;
    for (std::int32_t r = s * kSliceRows;
         r < std::min(n, (s + 1) * kSliceRows); ++r) {
      if (!is_long(len(r))) width = std::max(width, len(r));
    }
    total += static_cast<std::int64_t>(width) * kSliceRows;
    require(total <= std::numeric_limits<std::int32_t>::max(),
            "sliced pattern: too many slots");
    p->slice_ptr[s + 1] = static_cast<std::int32_t>(total);
  }
  for (std::int32_t r = 0; r < n; ++r) {
    if (!is_long(len(r))) continue;
    p->long_rows.push_back(r);
    p->long_ptr.push_back(static_cast<std::int32_t>(total));
    total += len(r);
    require(total <= std::numeric_limits<std::int32_t>::max(),
            "sliced pattern: too many slots");
  }
  p->long_rows.push_back(std::numeric_limits<std::int32_t>::max());
  p->long_ptr.push_back(static_cast<std::int32_t>(total));

  // Columns. Padding reads the row's last column (the row's own index
  // for an empty row; column 0 for the lanes past the last row).
  p->cols.assign(static_cast<std::size_t>(total), 0);
  p->row_first.assign(static_cast<std::size_t>(n), 0);
  std::size_t next_long = 0;
  for (std::int32_t s = 0; s < slices; ++s) {
    const std::int32_t width =
        (p->slice_ptr[s + 1] - p->slice_ptr[s]) / kSliceRows;
    for (int j = 0; j < kSliceRows; ++j) {
      const std::int32_t r = s * kSliceRows + j;
      if (r >= n) break;
      const std::int32_t first = p->slice_ptr[s] + j;
      const std::int32_t pad = len(r) > 0 ? ci[rp[r + 1] - 1] : r;
      std::int32_t k = 0;
      if (is_long(len(r))) {
        p->row_first[r] = p->long_ptr[next_long++];
        std::copy(ci.begin() + rp[r], ci.begin() + rp[r + 1],
                  p->cols.begin() + p->row_first[r]);
      } else {
        p->row_first[r] = first;
        for (; k < len(r); ++k) {
          p->cols[first + k * kSliceRows] = ci[rp[r] + k];
        }
      }
      for (; k < width; ++k) p->cols[first + k * kSliceRows] = pad;
    }
  }
  p->contiguous.assign(static_cast<std::size_t>(slices), 0);
  for (std::int32_t s = 0; s < slices; ++s) {
    for (std::int32_t e = p->slice_ptr[s], k = 0; e < p->slice_ptr[s + 1];
         e += kSliceRows, ++k) {
      bool run = true;
      for (int j = 1; j < kSliceRows; ++j) {
        run = run && p->cols[e + j] == p->cols[e] + j;
      }
      if (run) p->contiguous[s] |= 1u << k;
    }
  }
  return p;
}

SlicedMatrix::SlicedMatrix(const CsrMatrix& a,
                           const SymbolicStructure* structure) {
  if (structure != nullptr) {
    require(structure->matches(a) && structure->sliced != nullptr,
            "SlicedMatrix: structure does not match the matrix");
    pattern_ = structure->sliced;
  } else {
    require(a.rows() == a.cols(), "SlicedMatrix: matrix must be square");
    pattern_ = build_sliced_pattern(a.row_ptr(), a.col_idx());
  }
  values_.assign(static_cast<std::size_t>(pattern_->slots()), 0.0);
  refill(a);
}

void SlicedMatrix::refill(const CsrMatrix& a) {
  require(a.rows() == pattern_->rows && a.nnz() == pattern_->nnz,
          "SlicedMatrix::refill: pattern mismatch");
  const std::int32_t* __restrict rp = a.row_ptr().data();
  const std::int32_t* __restrict first = pattern_->row_first.data();
  const double* __restrict src = a.values().data();
  double* __restrict dst = values_.data();
  for (std::int32_t r = 0; r < pattern_->rows; ++r) {
    const std::int32_t len = rp[r + 1] - rp[r];
    const std::int32_t stride = is_long(len) ? 1 : kSliceRows;
    for (std::int32_t k = 0; k < len; ++k) {
      dst[first[r] + k * stride] = src[rp[r] + k];
    }
  }
}

void SlicedMatrix::refill_rows(const CsrMatrix& a,
                               std::span<const std::int32_t> rows) {
  require(a.rows() == pattern_->rows && a.nnz() == pattern_->nnz,
          "SlicedMatrix::refill_rows: pattern mismatch");
  const std::int32_t* __restrict rp = a.row_ptr().data();
  const std::int32_t* __restrict first = pattern_->row_first.data();
  const double* __restrict src = a.values().data();
  double* __restrict dst = values_.data();
  for (const std::int32_t r : rows) {
    const std::int32_t len = rp[r + 1] - rp[r];
    const std::int32_t stride = is_long(len) ? 1 : kSliceRows;
    for (std::int32_t k = 0; k < len; ++k) {
      dst[first[r] + k * stride] = src[rp[r] + k];
    }
  }
}

double residual_norms(const SlicedMatrix& a, std::span<const double> x,
                      std::span<const double> b, std::span<double> r,
                      double* bb) {
  require(static_cast<std::int32_t>(x.size()) == a.rows() &&
              static_cast<std::int32_t>(r.size()) == a.rows() &&
              b.size() == r.size() && bb != nullptr,
          "residual_norms: size mismatch");
  const double* __restrict bs = b.data();
  double* __restrict rs = r.data();
  double acc_rr = 0.0;
  double acc_bb = 0.0;
  traverse(a, x.data(), [&](std::int32_t row, double ax) {
    const double bi = bs[row];
    const double res = bi - ax;
    rs[row] = res;
    acc_rr += res * res;
    acc_bb += bi * bi;
  });
  *bb = acc_bb;
  return acc_rr;
}

double spmv_dot(const SlicedMatrix& a, std::span<const double> x,
                std::span<double> y, std::span<const double> w) {
  require(static_cast<std::int32_t>(x.size()) == a.rows() &&
              static_cast<std::int32_t>(y.size()) == a.rows() &&
              w.size() == y.size(),
          "spmv_dot: size mismatch");
  const double* __restrict ws = w.data();
  double* __restrict ys = y.data();
  double acc_dot = 0.0;
  traverse(a, x.data(), [&](std::int32_t row, double ax) {
    ys[row] = ax;
    acc_dot += ws[row] * ax;
  });
  return acc_dot;
}

double spmv_dot2(const SlicedMatrix& a, std::span<const double> x,
                 std::span<double> y, std::span<const double> w, double* wy) {
  require(static_cast<std::int32_t>(x.size()) == a.rows() &&
              static_cast<std::int32_t>(y.size()) == a.rows() &&
              w.size() == y.size() && wy != nullptr,
          "spmv_dot2: size mismatch");
  const double* __restrict ws = w.data();
  double* __restrict ys = y.data();
  double acc_yy = 0.0;
  double acc_wy = 0.0;
  traverse(a, x.data(), [&](std::int32_t row, double ax) {
    ys[row] = ax;
    acc_yy += ax * ax;
    acc_wy += ws[row] * ax;
  });
  *wy = acc_wy;
  return acc_yy;
}

}  // namespace tac3d::sparse
