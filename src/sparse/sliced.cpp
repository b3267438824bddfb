#include "sparse/sliced.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <type_traits>

#include "common/error.hpp"
#include "sparse/symbolic.hpp"

namespace tac3d::sparse {

namespace {

bool is_long(std::int32_t len) { return len > kSliceMaxRowLength; }

/// acc[j] += v * x over the slice columns of a slice whose columns are
/// all contiguous (\p v and \p cols point at its first slot). W > 0 is
/// the column count as a compile-time trip count; W = -1 reads it from
/// \p width.
template <int W>
inline void accumulate_contiguous(std::int32_t width,
                                  const double* __restrict v,
                                  const std::int32_t* __restrict cols,
                                  const double* __restrict x,
                                  double* __restrict acc) {
  const std::int32_t w = W > 0 ? W : width;
  for (std::int32_t k = 0; k < w; ++k) {
    const double* __restrict xs = x + cols[k * kSliceRows];
    for (int j = 0; j < kSliceRows; ++j) {
      acc[j] += v[k * kSliceRows + j] * xs[j];
    }
  }
}

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
    const std::int32_t e0 = sp[s];
    const std::int32_t width = (sp[s + 1] - e0) / kSliceRows;
    std::uint32_t mask = contiguous[s];
    if (mask == (1u << width) - 1u) {
      // Every slice column is one load: fixed trip count, no branch.
      const auto run = [&](auto w) {
        accumulate_contiguous<decltype(w)::value>(width, v + e0, cols + e0,
                                                  x, acc);
      };
      switch (width) {
        case 0: break;
        case 1: run(std::integral_constant<int, 1>{}); break;
        case 2: run(std::integral_constant<int, 2>{}); break;
        case 3: run(std::integral_constant<int, 3>{}); break;
        case 4: run(std::integral_constant<int, 4>{}); break;
        case 5: run(std::integral_constant<int, 5>{}); break;
        case 6: run(std::integral_constant<int, 6>{}); break;
        case 7: run(std::integral_constant<int, 7>{}); break;
        case 8: run(std::integral_constant<int, 8>{}); break;
        default: run(std::integral_constant<int, -1>{}); break;
      }
    } else {
      for (std::int32_t e = e0; e < sp[s + 1]; e += kSliceRows, mask >>= 1) {
        double xs[kSliceRows];
        if (mask & 1u) {
          std::copy_n(x + cols[e], kSliceRows, xs);
        } else {
          for (int j = 0; j < kSliceRows; ++j) xs[j] = x[cols[e + j]];
        }
        for (int j = 0; j < kSliceRows; ++j) acc[j] += v[e + j] * xs[j];
      }
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

/// Lay slice \p s out by column offset (see sliced.hpp): its columns
/// and its rows' row_columns. Returns false, with p.cols of the slice
/// partly written and row_columns untouched, when the offsets of its
/// rows do not fit its width or a row's columns are not strictly
/// ascending.
bool lay_out_by_offset(std::span<const std::int32_t> rp,
                       std::span<const std::int32_t> ci, std::int32_t s,
                       SlicedPattern& p) {
  constexpr std::int32_t kPlaced = std::numeric_limits<std::int32_t>::max();
  const std::int32_t n = p.rows;
  const std::int32_t base = s * kSliceRows;
  const std::int32_t width =
      (p.slice_ptr[s + 1] - p.slice_ptr[s]) / kSliceRows;
  std::int32_t* cols = p.cols.data() + p.slice_ptr[s];
  // Per lane: the next CSR entry to place and the end of those entries
  // (none for long rows and the lanes past the last row, which hold only
  // padding), the offset of that entry (kPlaced when none is left), the
  // column out-of-range padding reads, and the slice columns that hold
  // the row's entries.
  std::int32_t next[kSliceRows], end[kSliceRows], head[kSliceRows];
  std::int32_t pad[kSliceRows];
  std::uint32_t used[kSliceRows] = {};
  const auto advance = [&](int j) {
    head[j] = next[j] < end[j] ? ci[next[j]] - (base + j) : kPlaced;
  };
  for (int j = 0; j < kSliceRows; ++j) {
    const std::int32_t r = base + j;
    const std::int32_t len = r < n ? rp[r + 1] - rp[r] : 0;
    next[j] = r < n ? rp[r] : 0;
    end[j] = is_long(len) ? next[j] : next[j] + len;
    pad[j] = len > 0 ? ci[rp[r + 1] - 1] : r < n ? r : 0;
    advance(j);
  }
  for (std::int32_t k = 0;; ++k) {
    // Slice column k takes the smallest offset not yet placed.
    std::int32_t d = kPlaced;
    for (int j = 0; j < kSliceRows; ++j) d = std::min(d, head[j]);
    if (d == kPlaced) break;
    if (k == width) return false;  // wider than the slice's longest row
    for (int j = 0; j < kSliceRows; ++j) {
      if (head[j] == d) {
        ++next[j];
        advance(j);
        // A row whose columns do not ascend would meet them out of CSR
        // order.
        if (head[j] <= d) return false;
        used[j] |= 1u << k;
      }
      const std::int64_t c = static_cast<std::int64_t>(base) + j + d;
      cols[k * kSliceRows + j] =
          c >= 0 && c < n ? static_cast<std::int32_t>(c) : pad[j];
    }
  }
  for (int j = 0; j < kSliceRows && base + j < n; ++j) {
    p.row_columns[base + j] = static_cast<std::uint16_t>(used[j]);
  }
  return true;
}

/// Lay slice \p s out by entry position: entry k of each row in slice
/// column k, padding at the row's last column (column 0 past the last
/// row).
void lay_out_by_position(std::span<const std::int32_t> rp,
                         std::span<const std::int32_t> ci, std::int32_t s,
                         SlicedPattern& p) {
  const std::int32_t n = p.rows;
  const std::int32_t width =
      (p.slice_ptr[s + 1] - p.slice_ptr[s]) / kSliceRows;
  for (int j = 0; j < kSliceRows; ++j) {
    const std::int32_t r = s * kSliceRows + j;
    const std::int32_t e = p.slice_ptr[s] + j;
    std::int32_t k = 0;
    std::int32_t pad = 0;
    if (r < n) {
      const std::int32_t len = rp[r + 1] - rp[r];
      pad = len > 0 ? ci[rp[r + 1] - 1] : r;
      if (!is_long(len)) {
        for (; k < len; ++k) p.cols[e + k * kSliceRows] = ci[rp[r] + k];
        p.row_columns[r] = static_cast<std::uint16_t>((1u << len) - 1u);
      }
    }
    for (; k < width; ++k) p.cols[e + k * kSliceRows] = pad;
  }
}

/// Copy row \p r's CSR values \p src into the mirror \p dst.
inline void copy_row(const SlicedPattern& p, const std::int32_t* rp,
                     const double* __restrict src, double* __restrict dst,
                     std::int32_t r) {
  const double* __restrict in = src + rp[r];
  double* __restrict out = dst + p.row_first[r];
  const std::int32_t len = rp[r + 1] - rp[r];
  if (is_long(len)) {
    std::copy_n(in, len, out);
    return;
  }
  for (std::uint32_t m = p.row_columns[r]; m != 0; m &= m - 1) {
    out[std::countr_zero(m) * kSliceRows] = *in++;
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

  p->cols.assign(static_cast<std::size_t>(total), 0);
  p->row_first.assign(static_cast<std::size_t>(n), 0);
  p->row_columns.assign(static_cast<std::size_t>(n), 0);
  p->contiguous.assign(static_cast<std::size_t>(slices), 0);
  for (std::size_t i = 0; i + 1 < p->long_rows.size(); ++i) {
    const std::int32_t r = p->long_rows[i];
    p->row_first[r] = p->long_ptr[i];
    std::copy(ci.begin() + rp[r], ci.begin() + rp[r + 1],
              p->cols.begin() + p->row_first[r]);
  }
  for (std::int32_t s = 0; s < slices; ++s) {
    for (std::int32_t r = s * kSliceRows;
         r < std::min(n, (s + 1) * kSliceRows); ++r) {
      if (!is_long(len(r))) p->row_first[r] = p->slice_ptr[s] + r % kSliceRows;
    }
    if (!lay_out_by_offset(rp, ci, s, *p)) lay_out_by_position(rp, ci, s, *p);
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
  for (std::int32_t r = 0; r < pattern_->rows; ++r) {
    copy_row(*pattern_, a.row_ptr().data(), a.values().data(),
             values_.data(), r);
  }
}

void SlicedMatrix::refill_rows(const CsrMatrix& a,
                               std::span<const std::int32_t> rows) {
  require(a.rows() == pattern_->rows && a.nnz() == pattern_->nnz,
          "SlicedMatrix::refill_rows: pattern mismatch");
  for (const std::int32_t r : rows) {
    copy_row(*pattern_, a.row_ptr().data(), a.values().data(),
             values_.data(), r);
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
