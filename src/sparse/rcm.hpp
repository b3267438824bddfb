#pragma once
/// \file rcm.hpp
/// \brief Reverse Cuthill-McKee ordering for bandwidth reduction.
///
/// The banded LU factorization cost is O(n * bw^2); RCM on the
/// structurally-symmetrized RC-network pattern keeps bw near the smallest
/// grid cross-section, which makes cached direct factorization practical
/// for the thermal simulation loop.

#include <cstdint>
#include <vector>

namespace tac3d::sparse {

class CsrMatrix;

/// Compute a reverse Cuthill-McKee permutation of the structurally
/// symmetrized pattern of \p a.
///
/// \returns perm such that perm[new_index] = old_index. Disconnected
/// components are each ordered from a pseudo-peripheral start node.
std::vector<std::int32_t> rcm_ordering(const CsrMatrix& a);

/// Bandwidth of \p a under permutation \p perm (perm[new] = old);
/// the identity permutation is used when perm is empty.
std::int32_t bandwidth(const CsrMatrix& a,
                       const std::vector<std::int32_t>& perm);

}  // namespace tac3d::sparse
