#pragma once
/// \file policy.hpp
/// \brief Run-time thermal-management policy interface and the paper's
/// four policies: AC_LB, AC_TDVFS_LB, LC_LB and LC_FUZZY.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "power/vf.hpp"

namespace tac3d::control {

/// Sensor and workload observations at one control interval.
struct PolicyInputs {
  std::vector<double> core_temps;    ///< per-core max temperature [K]
  std::vector<double> core_demands;  ///< offered per-core demand in [0, 1]
  double dt = 0.0;                   ///< control interval [s]
};

/// Knob settings decided by the policy.
struct PolicyActions {
  std::vector<int> vf_levels;  ///< per-core DVFS level
  int pump_level = -1;         ///< pump setting (-1 = no pump / unchanged)
};

/// A run-time thermal-management policy. Load balancing is performed by
/// the scheduler for every policy (all paper policies include LB).
class ThermalPolicy {
 public:
  virtual ~ThermalPolicy() = default;

  /// Decide this interval's knob settings into the caller-persistent
  /// \p out, whose vectors keep their capacity between calls, so a
  /// policy that assigns in place decides without allocating.
  virtual void decide_into(const PolicyInputs& in, PolicyActions& out) = 0;

  virtual std::string name() const = 0;

  /// Fold every piece of mutable policy state that can influence future
  /// decisions (hysteresis levels, trend EMAs, slew memory) into the
  /// FNV-1a accumulator \p h and return true; stateless policies return
  /// true without touching \p h. The default returns false — "cannot
  /// enumerate my state" — which makes exact-recurrence machinery
  /// (limit-cycle replay, sim/replay.hpp) stand down rather than trust
  /// an incomplete fingerprint. External policies only need to override
  /// this if they want replay to engage.
  virtual bool fold_replay_state(std::uint64_t& h) const {
    (void)h;
    return false;
  }
};

/// AC_LB / LC_LB: no DVFS (all cores at the nominal VF); liquid variants
/// run the pump at the maximum setting (the paper's worst-case-flow
/// baseline).
class MaxPerformancePolicy final : public ThermalPolicy {
 public:
  /// \param pump_level level to hold (-1 for air-cooled stacks)
  MaxPerformancePolicy(int n_cores, const power::VfTable& vf, int pump_level);
  void decide_into(const PolicyInputs& in, PolicyActions& out) override;
  std::string name() const override;
  bool fold_replay_state(std::uint64_t& h) const override;

 private:
  int n_cores_;
  int top_level_;
  int pump_level_;
};

/// AC_TDVFS_LB: temperature-triggered DVFS with hysteresis. While a
/// core is above the trip temperature (85 C) its VF drops one level per
/// interval; below the release temperature (82 C) it climbs back.
class TemperatureTriggeredDvfsPolicy final : public ThermalPolicy {
 public:
  TemperatureTriggeredDvfsPolicy(int n_cores, const power::VfTable& vf,
                                 double trip_k, double release_k,
                                 int pump_level = -1);
  void decide_into(const PolicyInputs& in, PolicyActions& out) override;
  std::string name() const override;
  bool fold_replay_state(std::uint64_t& h) const override;

 private:
  power::VfTable vf_;
  double trip_;
  double release_;
  int pump_level_;
  std::vector<int> levels_;
};

/// LC_FUZZY: the paper's fuzzy controller. Flow rate follows a Mamdani
/// controller on (hottest core temperature, temperature trend); per-core
/// VF follows utilization so capacity always covers demand (which is why
/// the paper reports < 0.01% performance loss).
class FuzzyFlowDvfsPolicy final : public ThermalPolicy {
 public:
  /// \param pump_levels number of discrete pump settings
  /// \param threshold_k thermal threshold to enforce [K]
  FuzzyFlowDvfsPolicy(int n_cores, const power::VfTable& vf, int pump_levels,
                      double threshold_k);
  ~FuzzyFlowDvfsPolicy() override;  // out-of-line: FuzzyController is opaque
  void decide_into(const PolicyInputs& in, PolicyActions& out) override;
  std::string name() const override;
  bool fold_replay_state(std::uint64_t& h) const override;

  /// Normalized flow command of the last decision, in [0, 1] (test hook).
  double last_flow_fraction() const { return last_flow_; }

  /// Lane-batched decide for K same-class fuzzy policies (the batched
  /// control tail): per-lane margin/trend state updates, one shared
  /// FuzzyController::evaluate_lanes inference (every FuzzyFlowDvfsPolicy
  /// builds the identical rule base, so policies[0]'s controller speaks
  /// for all), then per-lane slew limiting and DVFS. Bitwise identical
  /// to calling decide_into on each lane in order. \p eval_scratch must
  /// hold 2*K doubles and \p flow_scratch K doubles (caller-persistent
  /// so the tail stays allocation-free). All lanes' input sizes are
  /// validated before any lane's controller state mutates, so on a
  /// validation throw the caller can fall back to per-lane decide_into
  /// without double-stepping the trend EMA.
  static void decide_batch(std::span<FuzzyFlowDvfsPolicy* const> policies,
                           std::span<const PolicyInputs* const> in,
                           std::span<PolicyActions* const> out,
                           std::span<double> eval_scratch,
                           std::span<double> flow_scratch);

 private:
  void check_inputs(const PolicyInputs& in) const;
  /// First half of decide: sensor fold + trend EMA update; writes
  /// {margin, trend} into \p ev and returns the margin.
  double prepare_eval(const PolicyInputs& in, double* ev);
  /// Second half: pump slew limit + utilization DVFS from last_flow_.
  void finish_decide(double margin, const PolicyInputs& in,
                     PolicyActions& out);

  power::VfTable vf_;
  int n_cores_;
  int pump_levels_;
  double threshold_;
  double prev_max_temp_ = -1.0;
  double trend_ema_ = 0.0;
  double last_flow_ = 1.0;
  int prev_level_ = -1;
  std::unique_ptr<class FuzzyController> fuzzy_;
};

}  // namespace tac3d::control
