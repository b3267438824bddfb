#pragma once
/// \file structure_cache.hpp
/// \brief Shared symbolic analysis for solvers bound to matrices with
/// the same sparsity pattern.
///
/// A design-space sweep instantiates one RC model per scenario, but
/// scenarios with the same stack geometry produce bit-identical CSR
/// patterns. The expensive symbolic work — RCM ordering, banded-LU band
/// extents, the ILU(0) diagonal index map and level schedule, the
/// sliced-ELL layout of the Krylov SpMVs — depends
/// only on the pattern, so a StructureCache computes it once and hands
/// out a shared immutable SymbolicStructure to every solver. Symbolic
/// analysis is a pure function of the pattern, so a solver built from a
/// cached structure is bitwise identical to one that analyzed the matrix
/// itself; sweeps stay deterministic with the cache on or off, serial or
/// parallel.

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/ilu_schedule.hpp"
#include "sparse/sliced.hpp"

namespace tac3d::sparse {

/// Immutable pattern-level analysis shared between solvers.
struct SymbolicStructure {
  std::int32_t rows = 0;
  /// RCM permutation, perm[new] = old (see rcm_ordering).
  std::vector<std::int32_t> rcm_perm;
  /// Inverse permutation, inv[old] = new.
  std::vector<std::int32_t> rcm_inv_perm;
  /// Band extents of the RCM-permuted pattern (banded LU storage).
  std::int32_t band_lower = 0;
  std::int32_t band_upper = 0;
  /// Index into values() of the diagonal entry of each row (ILU(0)).
  std::vector<std::int32_t> ilu_diag;
  /// Level schedule of the ILU(0) triangular solves, shared by the
  /// scalar and batched preconditioners of every solver on this pattern
  /// (null when a diagonal entry is missing: no ILU(0) exists).
  std::shared_ptr<const IluSchedule> ilu_schedule;
  /// Slice offsets and padded columns of the sliced-ELL copy the
  /// BiCGSTAB solvers on this pattern traverse (sliced.hpp).
  std::shared_ptr<const SlicedPattern> sliced;
  /// Pattern copy for exact identity checks on hash-bucket collisions.
  std::vector<std::int32_t> row_ptr;
  std::vector<std::int32_t> col_idx;

  /// True if \p a has exactly this sparsity pattern.
  bool matches(const CsrMatrix& a) const;
  bool matches(std::span<const std::int32_t> row_ptr,
               std::span<const std::int32_t> col_idx) const;
};

/// Run the symbolic analysis of \p a directly (no cache).
std::shared_ptr<const SymbolicStructure> analyze_structure(const CsrMatrix& a);

/// Thread-safe, pattern-keyed cache of SymbolicStructure. Lookups hash
/// the pattern and verify exact equality, so distinct patterns never
/// alias. Safe to share across sweep workers.
class StructureCache {
 public:
  /// Return the shared structure of \p a's pattern, computing it on the
  /// first request.
  std::shared_ptr<const SymbolicStructure> get(const CsrMatrix& a);

  /// Distinct patterns analyzed so far.
  std::size_t size() const;

  /// Lookup counters (for bench/telemetry; approximate under races).
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t,
                     std::vector<std::shared_ptr<const SymbolicStructure>>>
      buckets_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace tac3d::sparse
