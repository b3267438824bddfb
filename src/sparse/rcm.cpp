#include "sparse/rcm.hpp"

#include <algorithm>
#include <queue>

#include "common/error.hpp"
#include "sparse/csr.hpp"

namespace tac3d::sparse {

namespace {

/// Adjacency of the structurally symmetrized pattern, self-loops removed.
std::vector<std::vector<std::int32_t>> build_adjacency(const CsrMatrix& a) {
  const std::int32_t n = a.rows();
  std::vector<std::vector<std::int32_t>> adj(static_cast<std::size_t>(n));
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  for (std::int32_t r = 0; r < n; ++r) {
    for (std::int32_t k = rp[r]; k < rp[r + 1]; ++k) {
      const std::int32_t c = ci[k];
      if (c == r || c >= n) continue;
      adj[r].push_back(c);
      adj[c].push_back(r);
    }
  }
  for (auto& nb : adj) {
    std::sort(nb.begin(), nb.end());
    nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
  }
  return adj;
}

/// BFS returning (last visited node, eccentricity) from \p start.
std::pair<std::int32_t, std::int32_t> bfs_far(
    const std::vector<std::vector<std::int32_t>>& adj, std::int32_t start,
    std::vector<std::int32_t>& depth) {
  std::fill(depth.begin(), depth.end(), -1);
  std::queue<std::int32_t> q;
  q.push(start);
  depth[start] = 0;
  std::int32_t last = start;
  while (!q.empty()) {
    const std::int32_t u = q.front();
    q.pop();
    last = u;
    for (std::int32_t v : adj[u]) {
      if (depth[v] < 0) {
        depth[v] = depth[u] + 1;
        q.push(v);
      }
    }
  }
  return {last, depth[last]};
}

}  // namespace

std::vector<std::int32_t> rcm_ordering(const CsrMatrix& a) {
  require(a.rows() == a.cols(), "rcm_ordering: matrix must be square");
  const std::int32_t n = a.rows();
  const auto adj = build_adjacency(a);
  std::vector<std::int32_t> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<bool> visited(static_cast<std::size_t>(n), false);
  std::vector<std::int32_t> depth(static_cast<std::size_t>(n), -1);

  for (std::int32_t seed = 0; seed < n; ++seed) {
    if (visited[seed]) continue;
    // Pseudo-peripheral start: two BFS sweeps from the component seed.
    auto [far1, ecc1] = bfs_far(adj, seed, depth);
    auto [far2, ecc2] = bfs_far(adj, far1, depth);
    (void)far2;
    (void)ecc1;
    (void)ecc2;
    const std::int32_t start = far1;

    // Cuthill-McKee BFS ordering neighbors by increasing degree.
    std::queue<std::int32_t> q;
    q.push(start);
    visited[start] = true;
    while (!q.empty()) {
      const std::int32_t u = q.front();
      q.pop();
      order.push_back(u);
      std::vector<std::int32_t> next;
      for (std::int32_t v : adj[u]) {
        if (!visited[v]) {
          visited[v] = true;
          next.push_back(v);
        }
      }
      std::sort(next.begin(), next.end(),
                [&adj](std::int32_t x, std::int32_t y) {
                  return adj[x].size() != adj[y].size()
                             ? adj[x].size() < adj[y].size()
                             : x < y;
                });
      for (std::int32_t v : next) q.push(v);
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

std::int32_t bandwidth(const CsrMatrix& a,
                       const std::vector<std::int32_t>& perm) {
  const std::int32_t n = a.rows();
  std::vector<std::int32_t> inv(static_cast<std::size_t>(n));
  if (perm.empty()) {
    for (std::int32_t i = 0; i < n; ++i) inv[i] = i;
  } else {
    require(static_cast<std::int32_t>(perm.size()) == n,
            "bandwidth: permutation size mismatch");
    for (std::int32_t i = 0; i < n; ++i) inv[perm[i]] = i;
  }
  std::int32_t bw = 0;
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  for (std::int32_t r = 0; r < n; ++r) {
    for (std::int32_t k = rp[r]; k < rp[r + 1]; ++k) {
      bw = std::max(bw, std::abs(inv[r] - inv[ci[k]]));
    }
  }
  return bw;
}

}  // namespace tac3d::sparse
