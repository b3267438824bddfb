#include "sparse/ilu_schedule.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "common/error.hpp"

namespace tac3d::sparse {

namespace {

constexpr int kChunk = kIluChunkRows;

/// Order the rows by (level, entry count, row) — a counting sort over
/// the (level, count) keys, stable in row order — and cut them into
/// groups of equal key; assigns the off-diagonal slots of each visited
/// row's entries (as listed by \p entries_of) from \p next_slot on.
template <typename Entries>
void schedule_sweep(IluSweep& sw, const std::vector<std::int32_t>& level,
                    const std::vector<std::int32_t>& count,
                    Entries&& entries_of, std::int32_t& next_slot) {
  const std::int32_t n = static_cast<std::int32_t>(level.size());
  std::int32_t levels = 0, width = 0;
  for (std::int32_t i = 0; i < n; ++i) {
    levels = std::max(levels, level[i] + 1);
    width = std::max(width, count[i] + 1);
  }
  const auto key = [&](std::int32_t i) {
    return static_cast<std::size_t>(level[i]) * width + count[i];
  };
  std::vector<std::int32_t> start(static_cast<std::size_t>(levels) * width + 1,
                                  0);
  for (std::int32_t i = 0; i < n; ++i) ++start[key(i) + 1];
  for (std::size_t b = 1; b < start.size(); ++b) start[b] += start[b - 1];
  sw.levels = levels;
  sw.rows.resize(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) sw.rows[start[key(i)]++] = i;
  for (std::int32_t t = 0; t < n; ++t) {
    const std::int32_t i = sw.rows[t];
    if (t == 0 || key(i) != key(sw.rows[t - 1])) {
      sw.groups.push_back(IluGroup{t, t, count[i], next_slot});
    }
    sw.groups.back().end = t + 1;
    entries_of(i, next_slot);
  }
}

/// Chunk-major slots one sweep takes in its two streams: full chunks
/// and leftover rows (the backward sweep's rows carry their diagonal).
std::pair<std::int32_t, std::int32_t> chunk_stream_sizes(const IluSweep& sw,
                                                         bool upper) {
  std::int32_t chunks = 0, rest = 0;
  for (const IluGroup& g : sw.groups) {
    const std::int32_t stride = g.entries + (upper ? 1 : 0);
    chunks += g.chunked_rows() * stride;
    rest += (g.end - g.begin - g.chunked_rows()) * stride;
  }
  return {chunks, rest};
}

/// Assign the chunk-major slots of one sweep (see ilu_schedule.hpp):
/// entry j of a row is its j-th entry in the sweep's order, the
/// diagonal last on the backward sweep; \p entry maps (row, j) to the
/// CSR value index.
template <typename Entry>
void lay_out_chunks(IluSchedule& s, const IluSweep& sw, bool upper,
                    std::span<const std::int32_t> ci, Entry&& entry) {
  std::int32_t chunk = sw.chunk_first, rest = sw.rest_first;
  const auto place = [&](std::int32_t k, std::int32_t at) {
    s.chunk_slot[k] = at;
    s.chunk_cols[at] = ci[k];
  };
  for (const IluGroup& g : sw.groups) {
    const std::int32_t stride = g.entries + (upper ? 1 : 0);
    std::int32_t t = g.begin;
    for (; t < g.begin + g.chunked_rows(); t += kChunk) {
      for (int l = 0; l < kChunk; ++l) {
        for (std::int32_t j = 0; j < stride; ++j) {
          place(entry(sw.rows[t + l], j), chunk + j * kChunk + l);
        }
      }
      chunk += kChunk * stride;
    }
    for (; t < g.end; ++t, rest += stride) {
      for (std::int32_t j = 0; j < stride; ++j) {
        place(entry(sw.rows[t], j), rest + j);
      }
    }
  }
}

/// One row of a sweep, its entries side by side (a leftover row, or a
/// one-row chunk): z[i] = (src[i] - sum_j f[j] z[cols[j]]), divided by
/// f[m] on the backward sweep — the natural substitution's arithmetic,
/// entries in stored order. M is the entry count when known at compile
/// time (-1: \p m).
template <int M, bool kUpper>
inline void solve_row(std::int32_t i, int m, const double* __restrict f,
                      const std::int32_t* __restrict cols, const double* src,
                      double* z) {
  const int mm = M >= 0 ? M : m;
  double acc = src[i];
  for (int j = 0; j < mm; ++j) acc -= f[j] * z[cols[j]];
  if constexpr (kUpper) acc /= f[mm];
  z[i] = acc;
}

#if defined(__AVX512F__)
/// base[idx[l]] for the 8 lanes (the full-mask form of
/// _mm512_i32gather_pd, whose undefined merge source GCC 12 reports as
/// uninitialized).
inline __m512d gather8(__m256i idx, const double* base) {
  return _mm512_mask_i32gather_pd(_mm512_setzero_pd(), 0xFF, idx, base, 8);
}

/// One full chunk, 8 rows per instruction: per lane the arithmetic of
/// solve_row (a separate multiply and subtract per entry, no FMA). The
/// rows of a chunk share a level, so none reads another's z.
template <int M, bool kUpper>
inline void solve_chunk_avx512(const std::int32_t* rows, int m,
                               const double* f, const std::int32_t* cols,
                               const double* src, double* z) {
  const int mm = M >= 0 ? M : m;
  const __m256i ri =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows));
  __m512d acc = gather8(ri, src);
  for (int j = 0; j < mm; ++j) {
    const __m256i cj =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cols + j * kChunk));
    const __m512d prod = _mm512_mul_pd(_mm512_loadu_pd(f + j * kChunk),
                                       gather8(cj, z));
    acc = _mm512_sub_pd(acc, prod);
  }
  if constexpr (kUpper) {
    acc = _mm512_div_pd(acc, _mm512_loadu_pd(f + mm * kChunk));
  }
  _mm512_i32scatter_pd(z, ri, acc, 8);
}
#endif

/// One sweep over the chunk-major factors; with kFold, also returns the
/// natural-order sum of sq[i]² with one term per row solved.
template <bool kUpper, bool kFold>
double sweep_chunks(const IluSweep& sw, const double* f,
                    const std::int32_t* cols, const double* src, double* z,
                    const double* sq) {
  const std::int32_t* rows = sw.rows.data();
  const double* fc = f + sw.chunk_first;
  const std::int32_t* cc = cols + sw.chunk_first;
  const double* fr = f + sw.rest_first;
  const std::int32_t* cr = cols + sw.rest_first;
  double ss = 0.0;
  for (const IluGroup& g : sw.groups) {
    const auto run = [&](auto mc) {
      constexpr int M = decltype(mc)::value;
      const int m = M >= 0 ? M : g.entries;
      const int stride = m + (kUpper ? 1 : 0);
      std::int32_t t = g.begin;
      for (const std::int32_t full = g.begin + g.chunked_rows(); t < full;
           t += kChunk) {
#if defined(__AVX512F__)
        solve_chunk_avx512<M, kUpper>(rows + t, m, fc, cc, src, z);
#else
        static_assert(kChunk == 1);
        solve_row<M, kUpper>(rows[t], m, fc, cc, src, z);
#endif
        fc += kChunk * stride;
        cc += kChunk * stride;
        if constexpr (kFold) {
          for (int l = 0; l < kChunk; ++l, ++sq) ss += *sq * *sq;
        }
      }
      for (; t < g.end; ++t) {
        solve_row<M, kUpper>(rows[t], m, fr, cr, src, z);
        fr += stride;
        cr += stride;
        if constexpr (kFold) {
          ss += *sq * *sq;
          ++sq;
        }
      }
    };
    switch (g.entries) {
      case 0: run(std::integral_constant<int, 0>{}); break;
      case 1: run(std::integral_constant<int, 1>{}); break;
      case 2: run(std::integral_constant<int, 2>{}); break;
      case 3: run(std::integral_constant<int, 3>{}); break;
      case 4: run(std::integral_constant<int, 4>{}); break;
      default: run(std::integral_constant<int, -1>{}); break;
    }
  }
  return ss;
}

}  // namespace

std::int64_t IluSchedule::chunked_rows() const {
  std::int64_t rows_in_chunks = 0;
  for (const IluSweep* sw : {&lower, &upper}) {
    for (const IluGroup& g : sw->groups) rows_in_chunks += g.chunked_rows();
  }
  return rows_in_chunks;
}

std::shared_ptr<const IluSchedule> build_ilu_schedule(
    std::span<const std::int32_t> rp, std::span<const std::int32_t> ci) {
  require(!rp.empty() && static_cast<std::size_t>(rp.back()) == ci.size(),
          "ILU(0) schedule: malformed CSR pattern");
  const std::int32_t n = static_cast<std::int32_t>(rp.size() - 1);
  const std::int64_t nnz = static_cast<std::int64_t>(ci.size());
  auto s = std::make_shared<IluSchedule>();
  s->rows = n;
  s->nnz = nnz;
  s->diag.assign(static_cast<std::size_t>(n), -1);
  for (std::int32_t r = 0; r < n; ++r) {
    for (std::int32_t k = rp[r]; k < rp[r + 1]; ++k) {
      require(ci[k] >= 0 && ci[k] < n, "ILU(0): matrix must be square");
      require(k == rp[r] || ci[k - 1] < ci[k], "ILU(0): unsorted CSR row");
      if (ci[k] == r) s->diag[r] = k;
    }
    require(s->diag[r] >= 0, "ILU(0): missing diagonal entry");
  }

  // Dependency levels: a forward row reads the rows of its strictly-lower
  // columns, a backward row those of its strictly-upper columns.
  std::vector<std::int32_t> level(static_cast<std::size_t>(n), 0);
  std::vector<std::int32_t> count(static_cast<std::size_t>(n), 0);
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t k = rp[i]; k < s->diag[i]; ++k) {
      level[i] = std::max(level[i], level[ci[k]] + 1);
    }
    count[i] = s->diag[i] - rp[i];
  }
  s->slot.assign(static_cast<std::size_t>(nnz), -1);
  s->cols.resize(static_cast<std::size_t>(nnz - n));
  std::int32_t next = 0;
  schedule_sweep(s->lower, level, count,
                 [&](std::int32_t i, std::int32_t& slot) {
                   for (std::int32_t k = rp[i]; k < s->diag[i]; ++k) {
                     s->slot[k] = slot;
                     s->cols[slot++] = ci[k];
                   }
                 },
                 next);

  std::fill(level.begin(), level.end(), 0);
  for (std::int32_t i = n - 1; i >= 0; --i) {
    for (std::int32_t k = s->diag[i] + 1; k < rp[i + 1]; ++k) {
      level[i] = std::max(level[i], level[ci[k]] + 1);
    }
    count[i] = rp[i + 1] - s->diag[i] - 1;
  }
  schedule_sweep(s->upper, level, count,
                 [&](std::int32_t i, std::int32_t& slot) {
                   for (std::int32_t k = rp[i + 1] - 1; k > s->diag[i]; --k) {
                     s->slot[k] = slot;
                     s->cols[slot++] = ci[k];
                   }
                 },
                 next);
  s->diag_first = next;
  for (std::int32_t t = 0; t < n; ++t) {
    s->slot[s->diag[s->upper.rows[t]]] = next++;
  }

  // Chunk-major layout: the full chunks of both sweeps, then their
  // leftover rows.
  const auto [lower_chunks, lower_rest] = chunk_stream_sizes(s->lower, false);
  s->lower.chunk_first = 0;
  s->upper.chunk_first = lower_chunks;
  s->lower.rest_first =
      lower_chunks + chunk_stream_sizes(s->upper, true).first;
  s->upper.rest_first = s->lower.rest_first + lower_rest;
  s->chunk_slot.assign(static_cast<std::size_t>(nnz), -1);
  s->chunk_cols.resize(static_cast<std::size_t>(nnz));
  lay_out_chunks(*s, s->lower, false, ci,
                 [&](std::int32_t i, std::int32_t j) { return rp[i] + j; });
  lay_out_chunks(*s, s->upper, true, ci, [&](std::int32_t i, std::int32_t j) {
    const std::int32_t m = rp[i + 1] - s->diag[i] - 1;
    return j < m ? rp[i + 1] - 1 - j : s->diag[i];
  });
  return s;
}

double ilu0_apply_chunks(const IluSchedule& s, const double* f,
                         const double* r, double* z, bool sum_squares) {
  const std::int32_t* cols = s.chunk_cols.data();
  const double ss =
      sum_squares ? sweep_chunks<false, true>(s.lower, f, cols, r, z, r)
                  : sweep_chunks<false, false>(s.lower, f, cols, r, z, nullptr);
  sweep_chunks<true, false>(s.upper, f, cols, z, z, nullptr);
  return ss;
}

void ilu0_factor_lane(const IluSchedule& s, std::span<const std::int32_t> slots,
                      std::span<const std::int32_t> row_ptr,
                      std::span<const std::int32_t> col_idx,
                      const double* av, double* f, int lanes, int lane) {
  require(row_ptr.size() == static_cast<std::size_t>(s.rows) + 1 &&
              static_cast<std::int64_t>(col_idx.size()) == s.nnz &&
              static_cast<std::int64_t>(slots.size()) == s.nnz,
          "ILU(0) factor: pattern mismatch");
  const std::int32_t n = s.rows;
  const std::int32_t* rp = row_ptr.data();
  const std::int32_t* ci = col_idx.data();
  const std::int32_t* diag = s.diag.data();
  const std::int32_t* slot = slots.data();
  const std::int64_t L = lanes;
  const auto at = [&](std::int32_t k) -> double& {
    return f[slot[k] * L + lane];
  };
  for (std::int64_t k = 0; k < s.nnz; ++k) {
    at(static_cast<std::int32_t>(k)) = av[k * L + lane];
  }
  // IKJ-variant ILU(0): for each row i, eliminate with previous rows k
  // that appear in row i's pattern, restricted to row i's pattern.
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t kk = rp[i]; kk < rp[i + 1]; ++kk) {
      const std::int32_t k = ci[kk];
      if (k >= i) break;
      const double pivot = at(diag[k]);
      require(pivot != 0.0 && std::isfinite(pivot), "ILU(0): zero pivot");
      const double l = at(kk) / pivot;
      at(kk) = l;
      std::int32_t pi = kk + 1;
      for (std::int32_t pk = diag[k] + 1; pk < rp[k + 1]; ++pk) {
        const std::int32_t col = ci[pk];
        while (pi < rp[i + 1] && ci[pi] < col) ++pi;
        if (pi < rp[i + 1] && ci[pi] == col) at(pi) -= l * at(pk);
      }
    }
  }
}

}  // namespace tac3d::sparse
