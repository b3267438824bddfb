#pragma once
/// \file metrics.hpp
/// \brief Metrics accumulated over a closed-loop policy simulation:
/// hot-spot residency (Fig. 6), energy split and performance
/// degradation (Fig. 7), peak temperatures (Section IV-A text).

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "arch/calibration.hpp"
#include "common/units.hpp"

namespace tac3d::sim {

/// Results of one simulation run.
struct SimMetrics {
  double duration = 0.0;  ///< simulated time [s]

  // Hot-spot accounting against the 85 C threshold.
  std::vector<double> core_hot_time;  ///< per-core time above threshold [s]
  double any_hot_time = 0.0;          ///< time any core was hot [s]
  double peak_temp = 0.0;             ///< hottest observed core temp [K]

  // Energy split.
  double chip_energy = 0.0;  ///< cores + caches + uncore + leakage [J]
  double pump_energy = 0.0;  ///< pumping network [J]

  // Performance accounting.
  double offered_work = 0.0;  ///< integral of demand [work-s]
  double lost_work = 0.0;     ///< demand beyond DVFS-limited capacity
  std::int64_t migrations = 0;

  /// Time-average of the commanded flow as a fraction of maximum
  /// (1.0 for LC_LB; n/a -> 0 for air-cooled runs).
  double avg_flow_fraction = 0.0;

  // --- derived -----------------------------------------------------------
  /// Mean over cores of the fraction of time each spent hot
  /// (Fig. 6 "% averaged per core").
  double hotspot_frac_avg_core() const;

  /// Fraction of time at least one core was hot (Fig. 6 "% of time hot
  /// spots are observed").
  double hotspot_frac_any() const;

  double system_energy() const { return chip_energy + pump_energy; }

  /// Fraction of offered work that missed its interval (Fig. 7 "% delay").
  double perf_degradation() const;
};

/// One control interval's addends to SimMetrics: per core the offered
/// work, the lost work and the sensed temperature; per interval the chip
/// energy and, while the pump runs, the pump energy and the commanded
/// flow fraction. A stepped interval fills one from its own buffers; the
/// limit-cycle journal (sim/replay.hpp) copies it and re-adds the copy
/// through the same add_interval(), so a replayed cycle advances every
/// accumulator bitwise as the stepped one did.
struct IntervalAddends {
  std::span<const double> offered;  ///< per core [work-s]
  std::span<const double> lost;     ///< per core [work-s]
  std::span<const double> tcore;    ///< per core sensed temperature [K]
  double chip = 0.0;                ///< chip energy [J]
  bool pump_on = false;             ///< pump and flow addends live?
  double pump = 0.0;                ///< pump energy [J]
  double flow = 0.0;                ///< flow as a fraction of maximum
};

/// Add one control interval of \p dt seconds to \p m: each accumulator
/// receives its addends in core order, and a core is hot above
/// arch::calib::kHotSpotThresholdC (85 C). \p flow_fraction_acc sums
/// the flow fractions avg_flow_fraction is averaged from.
inline void add_interval(SimMetrics& m, const IntervalAddends& a, double dt,
                         double& flow_fraction_acc) {
  constexpr double threshold_k =
      celsius_to_kelvin(arch::calib::kHotSpotThresholdC);
  for (std::size_t c = 0; c < a.offered.size(); ++c) {
    m.offered_work += a.offered[c];
    m.lost_work += a.lost[c];
  }
  bool any_hot = false;
  for (std::size_t c = 0; c < a.tcore.size(); ++c) {
    m.peak_temp = std::max(m.peak_temp, a.tcore[c]);
    if (a.tcore[c] > threshold_k) {
      m.core_hot_time[c] += dt;
      any_hot = true;
    }
  }
  if (any_hot) m.any_hot_time += dt;
  m.chip_energy += a.chip;
  if (a.pump_on) {
    m.pump_energy += a.pump;
    flow_fraction_acc += a.flow;
  }
  m.duration += dt;
}

}  // namespace tac3d::sim
