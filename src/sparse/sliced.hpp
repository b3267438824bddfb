#pragma once
/// \file sliced.hpp
/// \brief Sliced-ELLPACK (SELL-8) copy of a CSR matrix and the three
/// matrix traversals BiCGSTAB runs on it.
///
/// A CSR row is a 3-8-entry loop with a data-dependent trip count and
/// one dependent add chain, so a CSR SpMV runs at the latency of that
/// chain. SlicedMatrix cuts the rows into slices of kSliceRows
/// consecutive rows (natural order) and stores each slice column-major:
/// slice column k of the slice's rows sits in kSliceRows consecutive
/// slots. The rows of a slice accumulate side by side, with no per-row
/// branch and kSliceRows independent add chains.
///
/// Layout by stencil offset: a slice column holds one column offset
/// (col - row) for all of the slice's rows, so on a grid stencil it
/// reads kSliceRows consecutive entries of x with one load. The slice
/// columns are the union of the offsets of the slice's rows, merged in
/// ascending order; since a CSR row is sorted by column, which is
/// sorted by offset, each row still meets its own entries in CSR order.
/// A row that lacks a slice column's offset is padded there with value
/// 0.0 at column row + offset, so the load stays in one piece; when that
/// column falls outside [0, rows) the row pads at its own last column
/// instead and the slice column is gathered. On the paper's operators
/// (2 and 4 tiers, 8x8 to 16x16 grids) 99.4-99.9% of the slice columns
/// of the liquid-cooled stacks and 87-96% of the air-cooled ones read x
/// in one piece (53-65% and 39-56% under the positional layout below),
/// for the same slot count.
///
/// Positional fallback: a slice whose offset union is wider than its
/// longest row keeps the positional layout (entry k of every row in
/// slice column k, padding at the row's last column), so no slice has
/// more slots than its longest row needs. On the paper stacks that is
/// the top-layer slices of the air-cooled stacks, whose heat-sink
/// column has a different offset in every row; random patterns mostly
/// fall back too. So does a slice holding a row whose columns are not
/// strictly ascending.
///
/// Bitwise contract: every row still adds its own entries in CSR order,
/// starting from +0.0, with padding products interleaved anywhere. The
/// accumulator can never become -0.0 (x + y is -0.0 in round-to-nearest
/// only when both are -0.0), so for finite x adding a padding product
/// 0.0 * x[c] = ±0.0 leaves it unchanged, and each y[i] is bit for bit
/// the CSR row loop's. The contract covers finite x only: 0.0 * inf is
/// NaN. The kernels' dot products are summed row by row in natural
/// order, as the CSR kernels of kernels.hpp sum them.
///
/// Kernels: a slice whose columns are all contiguous runs a fixed trip
/// count (up to 8 slice columns; wider ones a runtime count) of
/// contiguous loads, with no per-column branch; other slices load their
/// contiguous columns and gather the rest.
///
/// Long rows: a row with more than kSliceMaxRowLength entries (on the
/// paper stacks only the heat-sink node of the air-cooled stacks) would
/// pad its whole slice to its length. It is kept out of the slices and
/// accumulated by the plain CSR row loop, at its natural position in
/// the same pass.
///
/// Storage: the values sit in a 64-byte-aligned array (aligned.hpp), and
/// every slice starts at a multiple of kSliceRows slots, so each slice
/// column's 8 values are one cache line; from malloc's 16-byte alignment
/// most of them spanned two.
///
/// The layout splits in two halves: SlicedPattern (slice offsets, padded
/// columns and each row's slice columns) depends only on the CSR
/// pattern and is shared through SymbolicStructure; a SlicedMatrix adds
/// the values, a mirror of one CSR matrix that the owner refills after
/// the CSR values change.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sparse/aligned.hpp"
#include "sparse/csr.hpp"

namespace tac3d::sparse {

struct SymbolicStructure;

/// Rows per slice.
inline constexpr int kSliceRows = 8;

/// Rows with more entries than this are accumulated by the CSR row loop
/// instead of widening their slice.
inline constexpr std::int32_t kSliceMaxRowLength = 16;

/// Pattern half of the sliced layout, computed once per CSR pattern.
/// Slots index cols here and the values of every SlicedMatrix built on
/// the pattern.
struct SlicedPattern {
  std::int32_t rows = 0;
  std::int64_t nnz = 0;  ///< CSR entries (padding excluded)
  /// Slice s covers rows [s * kSliceRows, (s + 1) * kSliceRows) (the last
  /// one may be partial); its slots are [slice_ptr[s], slice_ptr[s + 1]),
  /// kSliceRows per slice column: slice column k of the slice's row j at
  /// slot slice_ptr[s] + k * kSliceRows + j.
  std::vector<std::int32_t> slice_ptr;
  /// Long rows in ascending order, closed by a sentinel above every row
  /// (so a scan can stop at it without a bounds check); their CSR entries
  /// sit after the slices, row long_rows[i]'s at slots
  /// [long_ptr[i], long_ptr[i + 1]). A long row's lane in its slice is
  /// all padding.
  std::vector<std::int32_t> long_rows;
  std::vector<std::int32_t> long_ptr;
  /// Column of every slot.
  std::vector<std::int32_t> cols;
  /// Bit k of contiguous[s] is set when slice column k of slice s reads
  /// kSliceRows consecutive columns: the kernels then load x there
  /// instead of gathering it (same values, same order).
  std::vector<std::uint32_t> contiguous;
  /// Sliced row: slot of the row in slice column 0. Long row: slot of its
  /// first CSR entry, the others following at stride 1.
  std::vector<std::int32_t> row_first;
  /// Sliced row: bit k is set when slice column k holds one of the row's
  /// CSR entries; its i-th entry sits in the slice column of the i-th set
  /// bit. Unused (0) for long rows.
  std::vector<std::uint16_t> row_columns;

  std::int32_t slices() const {
    return static_cast<std::int32_t>(slice_ptr.size()) - 1;
  }
  /// Value slots, padding and long rows included.
  std::int64_t slots() const { return static_cast<std::int64_t>(cols.size()); }
};

/// Build the sliced layout of a square CSR pattern (throws
/// InvalidArgument on a malformed or non-square pattern).
std::shared_ptr<const SlicedPattern> build_sliced_pattern(
    std::span<const std::int32_t> row_ptr,
    std::span<const std::int32_t> col_idx);

/// Sliced-ELL values of one CSR matrix on a shared SlicedPattern.
class SlicedMatrix {
 public:
  /// Copy \p a into the sliced layout. \p structure optionally supplies
  /// the precomputed layout (see symbolic.hpp); without it the pattern
  /// is analyzed here. Throws InvalidArgument if \p structure is not
  /// \p a's pattern.
  explicit SlicedMatrix(const CsrMatrix& a,
                        const SymbolicStructure* structure = nullptr);

  std::int32_t rows() const { return pattern_->rows; }
  const SlicedPattern& pattern() const { return *pattern_; }
  /// Values in slot order (padding slots hold 0.0), from a 64-byte
  /// boundary, so each slice column is one cache line.
  std::span<const double> values() const { return values_; }

  /// Copy every value of \p a (same pattern) into the mirror. Never
  /// allocates; padding slots are never written.
  void refill(const CsrMatrix& a);

  /// Copy only \p rows of \p a (same pattern) into the mirror — the
  /// incremental form for flow updates, which rewrite a tenth of the
  /// rows. Never allocates.
  void refill_rows(const CsrMatrix& a, std::span<const std::int32_t> rows);

 private:
  std::shared_ptr<const SlicedPattern> pattern_;
  AlignedVector<double> values_;
};

/// r = b - A x, returning dot(r, r) and setting *bb = dot(b, b), all in
/// one pass (a Krylov solve needs ||b|| for its relative tolerance).
double residual_norms(const SlicedMatrix& a, std::span<const double> x,
                      std::span<const double> b, std::span<double> r,
                      double* bb);

/// y = A x, returning dot(w, y) from the same pass.
double spmv_dot(const SlicedMatrix& a, std::span<const double> x,
                std::span<double> y, std::span<const double> w);

/// y = A x, returning dot(y, y) and setting *wy = dot(w, y), all from
/// one pass (the BiCGSTAB stabilization step needs both).
double spmv_dot2(const SlicedMatrix& a, std::span<const double> x,
                 std::span<double> y, std::span<const double> w, double* wy);

}  // namespace tac3d::sparse
