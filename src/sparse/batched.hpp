#pragma once
/// \file batched.hpp
/// \brief Multi-lane (batched) sparse storage, kernels and Krylov solver:
/// K systems that share one sparsity pattern advanced per matrix
/// traversal.
///
/// A design-space sweep steps many scenarios whose matrices differ only
/// in VALUES (same stack/grid -> same CSR pattern; flow modulation
/// rewrites advection entries per lane). Solving them one at a time is
/// memory-bound on index/value traffic and latency-bound on each row's
/// sequential accumulation chain. BatchedCsr stores the K value sets
/// lane-interleaved (entry k of lane l at values[k*L + l]; vectors at
/// x[i*L + l]), so one walk of row_ptr/col_idx feeds K independent
/// accumulation chains that the compiler vectorizes across lanes.
///
/// Bitwise contract: every batched kernel performs, per lane, exactly
/// the floating-point operations of its serial counterpart in
/// sparse/kernels.cpp, sliced.cpp (bitwise the CSR row loops) or
/// preconditioner.cpp, in the same order (the lane
/// chains never mix). batched_bicgstab keeps per-lane rho/alpha/omega
/// and convergence state, so lane l of a batched solve converges after
/// the same iterations to the same bits as a serial bicgstab() on that
/// lane alone. A converged (or broken-down) lane's solution is frozen in
/// a snapshot while its slot keeps streaming through the SIMD lanes —
/// it stops contributing iterations (the loop ends when every live lane
/// is finished) without forcing divergent control flow into the fused
/// kernels.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/refresh.hpp"
#include "sparse/symbolic.hpp"

namespace tac3d::sparse {

/// Hard cap on lanes per batch: keeps the per-row accumulator arrays in
/// registers/stack and bounds interleaved buffer sizes.
inline constexpr int kMaxBatchLanes = 16;

/// One shared CSR pattern with lane-interleaved values for K systems.
class BatchedCsr {
 public:
  /// Copy \p pattern's structure; every lane's values start as \p
  /// pattern's values (load_lane overwrites them per lane).
  BatchedCsr(const CsrMatrix& pattern, int lanes);

  int lanes() const { return lanes_; }
  std::int32_t rows() const { return rows_; }
  std::int64_t nnz() const { return nnz_; }

  std::span<const std::int32_t> row_ptr() const { return row_ptr_; }
  std::span<const std::int32_t> col_idx() const { return col_idx_; }
  /// Interleaved values: entry k of lane l at values()[k*lanes() + l].
  std::span<const double> values() const { return values_; }
  std::span<double> values_mut() { return values_; }

  /// Overwrite lane \p lane's values with \p a's (same pattern required;
  /// verified by nnz/rows only — callers group by pattern key).
  void load_lane(int lane, const CsrMatrix& a);

  /// Overwrite only \p rows of lane \p lane from \p a — the incremental
  /// form for flow updates, which dirty ~a tenth of the rows; reloading
  /// the whole lane every step would cost more than the update itself.
  void load_lane_rows(int lane, const CsrMatrix& a,
                      std::span<const std::int32_t> rows);

  /// Does \p a have exactly this pattern (row_ptr and col_idx equal)?
  bool matches(const CsrMatrix& a) const;

 private:
  std::int32_t rows_ = 0;
  std::int64_t nnz_ = 0;
  int lanes_ = 1;
  std::vector<std::int32_t> row_ptr_;
  std::vector<std::int32_t> col_idx_;
  std::vector<double> values_;
};

/// dst[i*lanes + lane] = src[i] — pack a contiguous lane vector into an
/// interleaved multi-lane buffer.
void pack_lane(std::span<double> dst, int lanes, int lane,
               std::span<const double> src);

/// dst[i] = src[i*lanes + lane] — unpack one lane out of an interleaved
/// buffer.
void unpack_lane(std::span<const double> src, int lanes, int lane,
                 std::span<double> dst);

/// Fused multi-lane pack: dst[i*lanes + l] = srcs[l][i] for every lane
/// with srcs[l] != nullptr (null lanes keep their current contents).
/// One pass over dst — at wide lanes this touches each cache line once
/// instead of once per lane.
void pack_lanes(std::span<double> dst, int lanes,
                const double* const* srcs, std::size_t n);

/// Fused multi-lane unpack: dsts[l][i] = src[i*lanes + l] for every
/// lane with dsts[l] != nullptr.
void unpack_lanes(std::span<const double> src, int lanes,
                  double* const* dsts, std::size_t n);

/// Per-lane outcome of a batched Krylov solve (mirrors IterativeResult).
struct BatchedLaneResult {
  bool converged = false;
  std::int32_t iterations = 0;
  double residual_norm = 0.0;  ///< per-lane ||r||_2 at its own exit point
};

/// Preallocated interleaved scratch for batched_bicgstab (the batched
/// counterpart of KrylovWorkspace). resize() is a no-op when sizes
/// already match.
class BatchedKrylovWorkspace {
 public:
  void resize(std::size_t n, int lanes, std::int64_t nnz = 0);

  std::vector<double> r, r0, p, v, s, t, ph, sh;
  /// Snapshot buffer: a finished lane's solution frozen while its slot
  /// keeps churning through the fused kernels.
  std::vector<double> snap;
  /// Mid-solve lane-compaction scratch (see batched_bicgstab): the
  /// surviving lanes' x columns and matrix values gathered at the
  /// compacted width.
  std::vector<double> cx, av;

 private:
  std::size_t n_ = 0;
  int lanes_ = 0;
  std::int64_t nnz_ = 0;
};

/// r = b - A x for every lane in one traversal of the shared pattern;
/// rr[l] = ||r_l||², bb[l] = ||b_l||². Per-lane arithmetic identical to
/// sparse::residual_norms — the batched transient driver uses it to run
/// all lanes' warm-start guard residuals per traversal.
void batched_residual_norms(const BatchedCsr& a, std::span<const double> x,
                            std::span<const double> b, std::span<double> r,
                            std::span<double> rr, std::span<double> bb);

/// Lane-interleaved ILU(0): factors on the shared pattern, triangular
/// solves batched across lanes (the row dependencies are within a lane;
/// lanes are independent, so each row's update runs lane-wide). The
/// solves walk the pattern's level schedule (ilu_schedule.hpp), so lane
/// l stays bitwise equal to a scalar Ilu0Preconditioner on its values.
/// Refactoring is per lane so each lane's refresh timing can mirror an
/// independent serial solver's exactly.
class BatchedIlu0Preconditioner {
 public:
  /// \p structure optionally supplies the shared level schedule (see
  /// symbolic.hpp); without it the pattern is analyzed here.
  explicit BatchedIlu0Preconditioner(
      const BatchedCsr& a, const SymbolicStructure* structure = nullptr);
  /// z = M^{-1} r for every lane (interleaved vectors).
  void apply(std::span<const double> r, std::span<double> z) const;
  /// Rebuild lane \p lane's factors from its values in \p a.
  void refactor_lane(int lane, const BatchedCsr& a);
  /// Mid-solve lane compaction support: gather the listed lanes' factors
  /// into an internal view of width lanes.size() so apply_compacted()
  /// serves only the surviving lanes. const because it only rewrites
  /// mutable scratch — the factors themselves are untouched.
  void compact_lanes(std::span<const int> lanes) const;
  /// z = M^{-1} r over the compacted view built by the last
  /// compact_lanes() call (interleaved at that width).
  void apply_compacted(const double* r, double* z) const;

  /// The level schedule the solves walk.
  const IluSchedule& schedule() const { return *schedule_; }

 private:
  int lanes_;
  std::int32_t rows_;
  std::shared_ptr<const IluSchedule> schedule_;
  std::vector<double> lu_;  ///< interleaved factors [slot*lanes + lane]
  mutable std::vector<double> clu_;  ///< compacted-view scratch
  mutable int cwidth_ = 0;
};

/// Preconditioned BiCGSTAB over a BatchedCsr: per-lane scalars,
/// tolerances and convergence masking. Lanes with active[l] == 0 are
/// never read or written back (their interleaved slots stream garbage
/// through the kernels, which is harmless — lanes never mix). On exit
/// every active lane's column of \p x holds its own solution (or its
/// last iterate on breakdown/non-convergence), and results[l] mirrors
/// what a serial bicgstab() on that lane would have reported — same
/// iteration count, same bits in x.
///
/// Mid-solve lane compaction: whenever the number of still-running lanes
/// drops below the current kernel width, the surviving lanes' state
/// vectors, matrix values and preconditioner factors are repacked to the
/// next narrower dispatch width (… 16 -> 8 -> … -> 1), so per-iteration
/// cost tracks the number of live lanes instead of the batch width —
/// staggered-convergence batches stop paying the slowest lane's width.
/// The repack moves whole lane columns (per-lane arithmetic untouched),
/// so the bitwise contract above is unaffected.
///
/// \returns the number of compaction events performed.
int batched_bicgstab(const BatchedCsr& a, std::span<const double> b,
                     std::span<double> x, const BatchedIlu0Preconditioner& m,
                     std::span<const double> rel_tolerance,
                     std::int32_t max_iterations,
                     std::span<const std::uint8_t> active,
                     BatchedKrylovWorkspace& ws,
                     std::span<BatchedLaneResult> results);

/// The batched counterpart of the BiCGSTAB+ILU(0) strategy in
/// solver.cpp: one LazyRefresh per lane (refresh.hpp) plus the per-lane
/// stale retry, driving one shared batched solve. Lane l's refresh
/// decisions and solve arithmetic are bitwise those of an independent
/// serial solver fed the same sequence of update_values/solve calls.
class BatchedBicgstabSolver {
 public:
  /// Factors are built from the lane values currently loaded in \p a. A
  /// non-null \p structure (the lanes' shared symbolic analysis)
  /// supplies the ILU(0) level schedule.
  explicit BatchedBicgstabSolver(const BatchedCsr& a,
                                 const SymbolicStructure* structure = nullptr);

  int lanes() const { return static_cast<int>(stats_.size()); }

  void set_tolerance(int lane, double rel_tolerance);

  /// Lane \p lane's values in \p a changed in \p update.rows (mirror of
  /// LinearSolver::update_values(a, update) for one lane).
  void update_lane_values(int lane, const BatchedCsr& a,
                          const ValueUpdate& update);

  /// Solve every lane with active[l] != 0; failed[l] is set for lanes
  /// that did not converge even after the stale-factor retry (serial
  /// path: NumericalError) — their x columns hold the last iterate.
  void solve(const BatchedCsr& a, std::span<const double> b,
             std::span<double> x, std::span<const std::uint8_t> active,
             std::span<std::uint8_t> failed);

  const SolverStats& lane_stats(int lane) const {
    return stats_[static_cast<std::size_t>(lane)];
  }

  /// Cumulative mid-solve lane-compaction events across all solves (see
  /// batched_bicgstab) — sweep telemetry.
  std::uint64_t compaction_events() const { return compaction_events_; }

 private:
  void refactor_lane_now(int lane, const BatchedCsr& a);

  BatchedIlu0Preconditioner precond_;
  BatchedKrylovWorkspace ws_;
  std::vector<LazyRefresh> refresh_;  ///< per lane
  std::vector<SolverStats> stats_;    ///< per lane
  std::vector<double> tol_;        ///< per-lane tolerances for the solve
  std::vector<double> warm_save_;  ///< interleaved warm starts (stale retry)
  std::vector<double> x_save_;     ///< batchmates' solutions across a retry
  std::vector<BatchedLaneResult> results_;
  std::vector<std::uint8_t> retry_;
  std::uint64_t compaction_events_ = 0;
};

}  // namespace tac3d::sparse
