#pragma once
/// \file ilu_schedule.hpp
/// \brief Level schedule of the ILU(0) triangular solves, the scalar
/// preconditioner's chunk-major factor layout and apply, and the lane
/// kernel pair the batched preconditioner walks.
///
/// A natural-order substitution visits rows 0..n-1 (forward) and
/// n-1..0 (backward), and on a grid stencil nearly every row waits on
/// the one just finished, so the solve runs at the latency of one
/// dependent multiply-subtract chain per row. The factors' dependency
/// graph is far shallower than n (37 levels for the paper's 2-tier
/// 16x16 stack, 43 for the 4-tier one, against 1000s of rows): rows of
/// one level never read each other, so visiting the rows level by level
/// lets consecutive rows overlap in the pipeline.
///
/// Bitwise contract: only the order in which rows are visited changes,
/// and it always respects the dependency graph (a row is visited after
/// every row it reads). Each row still performs exactly the natural
/// solver's subtractions, in the natural solver's entry order, followed
/// by the same final division, so every z[i] is bit-for-bit the value
/// the natural-order loops produce.
///
/// Within a level, rows are grouped by their number of off-diagonal
/// entries, so every group's inner loop has one fixed trip count (small
/// counts are compiled as constants).
///
/// Chunk-major layout (the scalar Ilu0Preconditioner): each group is cut
/// into chunks of kIluChunkRows consecutive rows of the sweep, and a
/// full chunk stores its rows' entries entry by entry — entry j of the
/// chunk's row l at j * kIluChunkRows + l, the backward sweep's
/// diagonals as one more entry after the others. In builds with
/// __AVX512F__ a chunk is 8 rows, and one AVX-512 instruction serves
/// entry j of all 8: a gather of z at their 8 columns, a multiply, a
/// subtract (never an FMA), and a final divide and scatter. The full
/// chunks of both sweeps come first, so with a 64-byte-aligned factor
/// array each chunk entry is one cache line; the group's leftover rows
/// (fewer than 8) follow in a second stream, row by row, unpadded, and
/// run the same per-row arithmetic in a plain loop. The layout has
/// exactly nnz slots: a long row (the air-cooled heat-sink node's 256
/// entries) sits in the leftover stream once, not 8-fold. Builds without
/// __AVX512F__ have no chunk kernel: their chunks are one row, so each
/// row's entries (and its backward diagonal) lie side by side, and every
/// row runs the plain loop. IluSchedule::chunk_slot maps a CSR value
/// index to its slot, and the factorization writes through it.
///
/// Row-major layout (the batched preconditioner's lanes): each group's
/// rows store their entries row after row — the forward sweep's
/// strictly-lower entries, then the backward sweep's strictly-upper
/// entries (in descending column order, the natural backward loop's
/// order), then the diagonal of each backward row — so both sweeps
/// stream their values front to back. IluSchedule::slot maps a CSR
/// value index to its slot; ilu0_apply_lanes walks it.

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "sparse/aligned.hpp"

namespace tac3d::sparse {

/// Whether the scalar apply solves full chunks with the AVX-512 kernel,
/// which the build's target decides (-march=native on an AVX-512 host).
/// The library, its tests and benches compile with one set of flags, so
/// every includer sees the library's choice and chunk width.
#if defined(__AVX512F__)
inline constexpr bool kIluAvx512Apply = true;
#else
inline constexpr bool kIluAvx512Apply = false;
#endif

/// Rows per chunk of the chunk-major layout: one AVX-512 vector of
/// doubles with the kernel, else 1 (each row's factors side by side).
inline constexpr int kIluChunkRows = kIluAvx512Apply ? 8 : 1;

/// A run of rows of one dependency level that share an off-diagonal
/// entry count; their entries occupy consecutive row-major slots.
struct IluGroup {
  std::int32_t begin = 0;    ///< first position in IluSweep::rows
  std::int32_t end = 0;      ///< one past the last position
  std::int32_t entries = 0;  ///< off-diagonal entries of each row
  std::int32_t first = 0;    ///< row-major slot of the group's first entry

  /// Rows of the group's full chunks (the chunk-major layout).
  std::int32_t chunked_rows() const {
    return (end - begin) / kIluChunkRows * kIluChunkRows;
  }
};

/// One triangular sweep in schedule order.
struct IluSweep {
  std::int32_t levels = 0;          ///< dependency levels (0 if empty)
  std::vector<IluGroup> groups;     ///< level by level
  std::vector<std::int32_t> rows;   ///< row visited at each position
  /// Chunk-major slot of the sweep's first full chunk and of its first
  /// leftover row; each stream holds the groups in sweep order.
  std::int32_t chunk_first = 0;
  std::int32_t rest_first = 0;
};

/// Pattern-level schedule of the ILU(0) substitutions (see file comment).
struct IluSchedule {
  std::int32_t rows = 0;
  std::int64_t nnz = 0;
  /// CSR value index of each row's diagonal entry.
  std::vector<std::int32_t> diag;
  IluSweep lower;  ///< forward solve L z = r (unit diagonal)
  IluSweep upper;  ///< backward solve U z = z
  /// Chunk-major slot of each CSR value index (the scalar factors).
  std::vector<std::int32_t> chunk_slot;
  /// Column of each chunk-major slot; a diagonal slot holds its row.
  AlignedVector<std::int32_t> chunk_cols;
  /// Row-major slot of each CSR value index (the batched lanes' factors).
  std::vector<std::int32_t> slot;
  /// Column of each off-diagonal row-major slot (slots [0, diag_first)).
  std::vector<std::int32_t> cols;
  /// Row-major slot of the diagonal of upper.rows[0]; the diagonal of
  /// upper.rows[t] sits at diag_first + t.
  std::int32_t diag_first = 0;

  /// Rows the two sweeps visit in full chunks, out of 2 * rows.
  std::int64_t chunked_rows() const;
};

/// Build the schedule of a square CSR pattern (sorted rows, every
/// diagonal entry present — throws InvalidArgument otherwise).
std::shared_ptr<const IluSchedule> build_ilu_schedule(
    std::span<const std::int32_t> row_ptr,
    std::span<const std::int32_t> col_idx);

/// IKJ-variant ILU(0) of lane \p lane of \p lanes interleaved value
/// sets: reads CSR values av[k * lanes + lane] on the schedule's pattern
/// (\p row_ptr, \p col_idx), writes factors f[slot[k] * lanes + lane]
/// through \p slot, the schedule's chunk_slot (scalar, lanes = 1) or
/// slot (batched). Performs the natural row-order elimination
/// arithmetic exactly; throws InvalidArgument on a zero or non-finite
/// pivot.
void ilu0_factor_lane(const IluSchedule& s, std::span<const std::int32_t> slot,
                      std::span<const std::int32_t> row_ptr,
                      std::span<const std::int32_t> col_idx,
                      const double* av, double* f, int lanes, int lane);

/// z = (LU)^{-1} r on chunk-major factors \p f (chunk_slot order): full
/// chunks through the AVX-512 kernel when kIluAvx512Apply, all other
/// rows through the per-row loop; bitwise the natural-order
/// substitution. r may alias z. With \p sum_squares the forward sweep
/// also sums r_i² in natural row order, one term per row it solves (the
/// chain then overlaps the sweep instead of running alone), and returns
/// the sum; r must not alias z then. Returns 0.0 otherwise.
double ilu0_apply_chunks(const IluSchedule& s, const double* f,
                         const double* r, double* z, bool sum_squares);

/// Widest lane group one kernel pass serves.
inline constexpr int kMaxIluLanes = 16;

namespace ilu_detail {

/// One group of a sweep over CL-strided (0 = runtime \p lanes) vectors,
/// lanes [OFF, OFF + W) (W = 0: all). M is the group's entry count when
/// known at compile time (-1: read from the group). kUpper selects the
/// backward sweep (source z, divide by the diagonal) over the forward
/// one (source r, unit diagonal).
template <int CL, int W, int OFF, int M, bool kUpper>
inline void sweep_group(const IluGroup& g, const std::int32_t* __restrict rows,
                        const std::int32_t* __restrict cols,
                        const double* __restrict f, std::int32_t diag_first,
                        int lanes, const double* src, double* z) {
  const int L = CL > 0 ? CL : lanes;
  const int Wr = W > 0 ? W : lanes;
  const int m = M >= 0 ? M : g.entries;
  double acc[kMaxIluLanes];
  std::int64_t e = g.first;
  for (std::int32_t t = g.begin; t < g.end; ++t) {
    const std::int64_t ik = static_cast<std::int64_t>(rows[t]) * L + OFF;
    for (int l = 0; l < Wr; ++l) acc[l] = src[ik + l];
    for (int j = 0; j < m; ++j, ++e) {
      const std::int64_t vk = e * L + OFF;
      const std::int64_t zk = static_cast<std::int64_t>(cols[e]) * L + OFF;
      for (int l = 0; l < Wr; ++l) acc[l] -= f[vk + l] * z[zk + l];
    }
    if constexpr (kUpper) {
      const std::int64_t dk =
          (static_cast<std::int64_t>(diag_first) + t) * L + OFF;
      for (int l = 0; l < Wr; ++l) z[ik + l] = acc[l] / f[dk + l];
    } else {
      for (int l = 0; l < Wr; ++l) z[ik + l] = acc[l];
    }
  }
}

template <int CL, int W, int OFF, bool kUpper>
inline void sweep(const IluSchedule& s, const IluSweep& sw, int lanes,
                  const double* f, const double* src, double* z) {
  const std::int32_t* rows = sw.rows.data();
  const std::int32_t* cols = s.cols.data();
  for (const IluGroup& g : sw.groups) {
    const auto run = [&](auto m) {
      sweep_group<CL, W, OFF, decltype(m)::value, kUpper>(
          g, rows, cols, f, s.diag_first, lanes, src, z);
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
}

}  // namespace ilu_detail

/// z = (LU)^{-1} r over CL-strided lane-interleaved vectors (entry i of
/// lane l at [i * stride + l]), lanes [OFF, OFF + W) of the stride, for
/// the batched preconditioner. \p f holds the factors in row-major slot
/// order at the same stride. r may alias z (each row reads its own r
/// entry before writing z).
template <int CL, int W, int OFF>
void ilu0_apply_lanes(const IluSchedule& s, int lanes, const double* f,
                      const double* r, double* z) {
  ilu_detail::sweep<CL, W, OFF, false>(s, s.lower, lanes, f, r, z);
  ilu_detail::sweep<CL, W, OFF, true>(s, s.upper, lanes, f, z, z);
}

}  // namespace tac3d::sparse
