#include "power/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace tac3d::power {

UtilizationTrace::UtilizationTrace(std::string name, int n_threads,
                                   int n_seconds)
    : name_(std::move(name)),
      n_threads_(n_threads),
      n_seconds_(n_seconds),
      block_(n_seconds) {
  require(n_threads > 0 && n_seconds > 0,
          "UtilizationTrace: dimensions must be positive");
  data_.assign(static_cast<std::size_t>(n_threads) * n_seconds, 0.0);
}

UtilizationTrace UtilizationTrace::tiled(UtilizationTrace block,
                                         int seconds) {
  require(block.block_ == block.n_seconds_ && block.n_seconds_ > 0 &&
              seconds >= block.n_seconds_,
          "UtilizationTrace::tiled: block must be dense and fit the trace");
  block.n_seconds_ = seconds;
  return block;
}

const double* UtilizationTrace::row(int t) const {
  t = std::clamp(t, 0, n_seconds_ - 1);
  if (t >= block_) t %= block_;
  return &data_[static_cast<std::size_t>(t) * n_threads_];
}

double UtilizationTrace::at(int thread, int t) const {
  require(thread >= 0 && thread < n_threads_,
          "UtilizationTrace::at: thread out of range");
  return row(t)[thread];
}

double UtilizationTrace::sample(int thread, double t) const {
  if (t <= 0.0) return at(thread, 0);
  const int t0 = static_cast<int>(t);
  const double frac = t - t0;
  if (frac == 0.0 || t0 + 1 >= n_seconds_) return at(thread, t0);
  return (1.0 - frac) * at(thread, t0) + frac * at(thread, t0 + 1);
}

void UtilizationTrace::set(int thread, int t, double u) {
  require(thread >= 0 && thread < n_threads_ && t >= 0 && t < block_,
          "UtilizationTrace::set: index out of range");
  require(u >= 0.0 && u <= 1.0,
          "UtilizationTrace::set: utilization must be in [0, 1]");
  data_[static_cast<std::size_t>(t) * n_threads_ + thread] = u;
}

double UtilizationTrace::mean() const {
  // Every second in order, threads innermost: the dense summation
  // order, so a tiled trace averages bit for bit like its expansion.
  if (n_seconds_ == 0) return 0.0;
  double acc = 0.0;
  for (int t = 0; t < n_seconds_; ++t) {
    const double* r = row(t);
    for (int th = 0; th < n_threads_; ++th) acc += r[th];
  }
  return acc / (static_cast<std::size_t>(n_seconds_) * n_threads_);
}

double UtilizationTrace::peak() const {
  double best = 0.0;
  for (double v : data_) best = std::max(best, v);
  return best;
}

double UtilizationTrace::thread_mean(int thread) const {
  double acc = 0.0;
  for (int t = 0; t < n_seconds_; ++t) acc += at(thread, t);
  return acc / n_seconds_;
}

void UtilizationTrace::to_csv(std::ostream& os) const {
  os << "t";
  for (int th = 0; th < n_threads_; ++th) os << ",thread" << th;
  os << '\n';
  for (int t = 0; t < n_seconds_; ++t) {
    os << t;
    for (int th = 0; th < n_threads_; ++th) os << ',' << at(th, t);
    os << '\n';
  }
}

int UtilizationTrace::period_hint() const {
  for (int period = 1; period <= n_seconds_ / 2; ++period) {
    // Rows t and t - period both wrap with the block, so the pairs of
    // t in [period, period + block_) are every pair the trace holds.
    const int end = std::min(n_seconds_, block_ + period);
    bool ok = true;
    for (int t = period; ok && t < end; ++t) {
      // Bitwise, not operator==: -0.0 vs 0.0 (or any payload difference)
      // must count as a deviation for the replay contract to hold.
      if (std::memcmp(row(t), row(t - period),
                      sizeof(double) * n_threads_) != 0) {
        ok = false;
      }
    }
    if (ok) return period;
  }
  return 0;
}

bool UtilizationTrace::windows_equal(int s0, int s1, int len) const {
  if (s0 == s1) return true;
  for (int j = 0; j <= len; ++j) {
    if (std::memcmp(row(s0 + j), row(s1 + j),
                    sizeof(double) * n_threads_) != 0) {
      return false;
    }
  }
  return true;
}

UtilizationTrace UtilizationTrace::from_csv(std::istream& is,
                                            std::string name) {
  std::string header;
  require(static_cast<bool>(std::getline(is, header)),
          "UtilizationTrace::from_csv: empty stream");
  const int n_threads =
      static_cast<int>(std::count(header.begin(), header.end(), ','));
  require(n_threads > 0, "UtilizationTrace::from_csv: no thread columns");

  std::vector<std::vector<double>> rows;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string cell;
    std::vector<double> row;
    bool first = true;
    while (std::getline(ls, cell, ',')) {
      if (first) {
        first = false;
        continue;  // time column
      }
      row.push_back(std::stod(cell));
    }
    require(static_cast<int>(row.size()) == n_threads,
            "UtilizationTrace::from_csv: ragged row");
    rows.push_back(std::move(row));
  }
  require(!rows.empty(), "UtilizationTrace::from_csv: no samples");
  UtilizationTrace tr(std::move(name), n_threads,
                      static_cast<int>(rows.size()));
  for (int t = 0; t < tr.seconds(); ++t) {
    for (int th = 0; th < n_threads; ++th) {
      tr.set(th, t, std::clamp(rows[t][th], 0.0, 1.0));
    }
  }
  return tr;
}

}  // namespace tac3d::power
