#pragma once
/// \file trace.hpp
/// \brief Per-hardware-thread utilization traces (the paper records "the
/// utilization percentage for each hardware thread at every second for
/// several minutes for each benchmark").

#include <iosfwd>
#include <string>
#include <vector>

namespace tac3d::power {

/// Utilization in [0, 1] for n_threads hardware threads sampled at 1 s.
///
/// The samples are stored as a block of block_seconds() rows that
/// repeats for the whole trace: second t reads stored row
/// clamp(t) % block_seconds(), and every reader goes through that one
/// mapping. A dense trace stores every second (block_seconds() ==
/// seconds()). A tiled one (tiled()) stores one period of an exactly
/// periodic load once, so its memory and set-up cost follow the period,
/// not the horizon, and it reads bit for bit like its dense expansion.
class UtilizationTrace {
 public:
  UtilizationTrace() = default;
  /// A dense, all-zero trace.
  UtilizationTrace(std::string name, int n_threads, int n_seconds);

  /// A \p seconds-long trace that repeats the dense trace \p block:
  /// at(th, t) == block.at(th, t % block.seconds()) for t in
  /// [0, seconds). Requires block.seconds() <= \p seconds.
  static UtilizationTrace tiled(UtilizationTrace block, int seconds);

  const std::string& name() const { return name_; }
  int threads() const { return n_threads_; }
  int seconds() const { return n_seconds_; }
  /// Stored rows: seconds() for a dense trace, the period for a tiled one.
  int block_seconds() const { return block_; }

  /// Utilization of \p thread at integer second \p t (clamped to the
  /// trace end).
  double at(int thread, int t) const;

  /// Linearly interpolated utilization at continuous time \p t [s].
  double sample(int thread, double t) const;

  /// Mutable access used by generators: writes stored row \p t
  /// (t < block_seconds()), which on a tiled trace is every second
  /// t + k * block_seconds().
  void set(int thread, int t, double u);

  /// Mean utilization over all threads and samples.
  double mean() const;

  /// Maximum utilization over all threads and samples.
  double peak() const;

  /// Mean utilization of one thread.
  double thread_mean(int thread) const;

  /// CSV round trip: header "t,thread0,..."; one row per second.
  void to_csv(std::ostream& os) const;
  static UtilizationTrace from_csv(std::istream& is, std::string name);

  /// Exact-periodicity probe: the smallest period L >= 1 [s] such that
  /// every sample is bitwise identical to the sample one period earlier
  /// (at(th, t) == at(th, t - L) for all threads and all
  /// t in [L, seconds)), or 0 when no such L exists. Only periods up to
  /// seconds/2 qualify — at least one full repetition must confirm the
  /// claim. Exact bit compare, no tolerance: a single one-ULP deviation
  /// makes a trace aperiodic, which is precisely the contract the
  /// limit-cycle replay machinery (sim/replay.hpp) needs. Both rows wrap
  /// with the block, so t in [L, min(seconds, block_seconds() + L))
  /// covers every row pair: a tiled trace costs one block per L.
  int period_hint() const;

  /// Bitwise compare of two sample windows: true iff
  /// at(th, s0 + j) == at(th, s1 + j) for all threads and j in
  /// [0, len] (inclusive — both boundary samples are covered, matching
  /// the [T, T+L] span one control cycle interpolates over). Clamped
  /// like at(): windows reaching past the trace end compare the held
  /// final sample, so a replayed cycle near the end only matches when
  /// the held value genuinely continues the pattern.
  bool windows_equal(int s0, int s1, int len) const;

 private:
  /// The stored samples of second \p t, clamped to the trace and
  /// wrapped into the block.
  const double* row(int t) const;

  std::string name_;
  int n_threads_ = 0;
  int n_seconds_ = 0;
  int block_ = 0;             ///< stored rows, <= n_seconds_
  std::vector<double> data_;  ///< [row * n_threads + thread]
};

}  // namespace tac3d::power
