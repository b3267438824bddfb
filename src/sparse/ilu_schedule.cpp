#include "sparse/ilu_schedule.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace tac3d::sparse {

namespace {

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

}  // namespace

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
  return s;
}

void ilu0_factor_lane(const IluSchedule& s,
                      std::span<const std::int32_t> row_ptr,
                      std::span<const std::int32_t> col_idx,
                      const double* av, double* f, int lanes, int lane) {
  require(row_ptr.size() == static_cast<std::size_t>(s.rows) + 1 &&
              static_cast<std::int64_t>(col_idx.size()) == s.nnz,
          "ILU(0) factor: pattern mismatch");
  const std::int32_t n = s.rows;
  const std::int32_t* rp = row_ptr.data();
  const std::int32_t* ci = col_idx.data();
  const std::int32_t* diag = s.diag.data();
  const std::int32_t* slot = s.slot.data();
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
