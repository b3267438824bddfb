#include "control/policy.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/error.hpp"
#include "common/fnv.hpp"
#include "common/units.hpp"
#include "control/fuzzy.hpp"

namespace tac3d::control {

MaxPerformancePolicy::MaxPerformancePolicy(int n_cores,
                                           const power::VfTable& vf,
                                           int pump_level)
    : n_cores_(n_cores), top_level_(vf.max_level()), pump_level_(pump_level) {
  require(n_cores > 0, "MaxPerformancePolicy: need cores");
}

void MaxPerformancePolicy::decide_into(const PolicyInputs& in,
                                       PolicyActions& out) {
  (void)in;
  out.vf_levels.assign(n_cores_, top_level_);
  out.pump_level = pump_level_;
}

std::string MaxPerformancePolicy::name() const {
  return pump_level_ < 0 ? "AC_LB" : "LC_LB";
}

bool MaxPerformancePolicy::fold_replay_state(std::uint64_t& h) const {
  (void)h;  // stateless: every decision depends only on the fixed config
  return true;
}

TemperatureTriggeredDvfsPolicy::TemperatureTriggeredDvfsPolicy(
    int n_cores, const power::VfTable& vf, double trip_k, double release_k,
    int pump_level)
    : vf_(vf), trip_(trip_k), release_(release_k), pump_level_(pump_level) {
  require(n_cores > 0, "TemperatureTriggeredDvfsPolicy: need cores");
  require(release_k < trip_k,
          "TemperatureTriggeredDvfsPolicy: release must be below trip");
  levels_.assign(n_cores, vf_.max_level());
}

void TemperatureTriggeredDvfsPolicy::decide_into(const PolicyInputs& in,
                                                 PolicyActions& out) {
  require(in.core_temps.size() == levels_.size(),
          "TemperatureTriggeredDvfsPolicy: temps size mismatch");
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    if (in.core_temps[i] > trip_ && levels_[i] > 0) {
      --levels_[i];  // scale down one step per interval above threshold
    } else if (in.core_temps[i] < release_ &&
               levels_[i] < vf_.max_level()) {
      ++levels_[i];
    }
  }
  out.vf_levels = levels_;
  out.pump_level = pump_level_;
}

std::string TemperatureTriggeredDvfsPolicy::name() const {
  return pump_level_ < 0 ? "AC_TDVFS_LB" : "LC_TDVFS_LB";
}

bool TemperatureTriggeredDvfsPolicy::fold_replay_state(
    std::uint64_t& h) const {
  // The per-core hysteresis levels are the only decision-feeding memory.
  h = fnv1a(h, std::span<const int>(levels_));
  return true;
}

FuzzyFlowDvfsPolicy::FuzzyFlowDvfsPolicy(int n_cores,
                                         const power::VfTable& vf,
                                         int pump_levels, double threshold_k)
    : vf_(vf),
      n_cores_(n_cores),
      pump_levels_(pump_levels),
      threshold_(threshold_k) {
  require(n_cores > 0 && pump_levels >= 2, "FuzzyFlowDvfsPolicy: bad config");

  // Temperature expressed as margin below the threshold [K]:
  // margin = threshold - T_hottest. Large margin -> over-cooled.
  LinguisticVariable margin("margin", -10.0, 60.0);
  margin.add_set("critical", MembershipFunction::trapezoid(-10, -10, 0, 3));
  margin.add_set("small", MembershipFunction::triangular(0, 7, 14));
  margin.add_set("medium", MembershipFunction::triangular(10, 20, 32));
  margin.add_set("large", MembershipFunction::trapezoid(26, 40, 60, 60));

  // Temperature trend [K/s].
  LinguisticVariable trend("trend", -3.0, 3.0);
  trend.add_set("falling", MembershipFunction::trapezoid(-3, -3, -1.2, -0.4));
  trend.add_set("steady", MembershipFunction::trapezoid(-1.0, -0.3, 0.3, 1.0));
  trend.add_set("rising", MembershipFunction::trapezoid(0.4, 1.2, 3, 3));

  // Output: normalized flow command.
  LinguisticVariable flow("flow", 0.0, 1.0);
  flow.add_set("min", MembershipFunction::trapezoid(0.0, 0.0, 0.05, 0.25));
  flow.add_set("low", MembershipFunction::triangular(0.1, 0.28, 0.45));
  flow.add_set("mid", MembershipFunction::triangular(0.35, 0.55, 0.75));
  flow.add_set("high", MembershipFunction::triangular(0.6, 0.8, 0.95));
  flow.add_set("max", MembershipFunction::trapezoid(0.85, 0.97, 1.0, 1.0));

  fuzzy_ = std::make_unique<FuzzyController>();
  fuzzy_->add_input(std::move(margin));
  fuzzy_->add_input(std::move(trend));
  fuzzy_->set_output(std::move(flow));

  // Rule base: enforce the threshold first, then shed flow when the
  // stack is over-cooled.
  fuzzy_->add_rule({{"margin", "critical"}}, "max");
  fuzzy_->add_rule({{"margin", "small"}, {"trend", "rising"}}, "max");
  fuzzy_->add_rule({{"margin", "small"}, {"trend", "steady"}}, "high");
  fuzzy_->add_rule({{"margin", "small"}, {"trend", "falling"}}, "mid");
  fuzzy_->add_rule({{"margin", "medium"}, {"trend", "rising"}}, "mid");
  fuzzy_->add_rule({{"margin", "medium"}, {"trend", "steady"}}, "low");
  fuzzy_->add_rule({{"margin", "medium"}, {"trend", "falling"}}, "low");
  fuzzy_->add_rule({{"margin", "large"}, {"trend", "rising"}}, "min");
  fuzzy_->add_rule({{"margin", "large"}, {"trend", "steady"}}, "min");
  fuzzy_->add_rule({{"margin", "large"}, {"trend", "falling"}}, "min");
}

FuzzyFlowDvfsPolicy::~FuzzyFlowDvfsPolicy() = default;

void FuzzyFlowDvfsPolicy::decide_into(const PolicyInputs& in,
                                      PolicyActions& out) {
  require(static_cast<int>(in.core_temps.size()) == n_cores_ &&
              static_cast<int>(in.core_demands.size()) == n_cores_,
          "FuzzyFlowDvfsPolicy: input size mismatch");

  double max_temp = -1e300;
  for (double t : in.core_temps) max_temp = std::max(max_temp, t);
  const double margin = threshold_ - max_temp;
  const double raw_trend =
      (prev_max_temp_ < 0.0 || in.dt <= 0.0)
          ? 0.0
          : (max_temp - prev_max_temp_) / in.dt;
  prev_max_temp_ = max_temp;
  // Exponential smoothing: ignore single-step transients after a pump
  // adjustment, react to sustained drifts.
  trend_ema_ = 0.7 * trend_ema_ + 0.3 * raw_trend;
  const double ev[2] = {margin, trend_ema_};
  last_flow_ = fuzzy_->evaluate(std::span<const double>(ev, 2));

  int target = static_cast<int>(std::lround(last_flow_ * (pump_levels_ - 1)));
  target = std::clamp(target, 0, pump_levels_ - 1);
  // Slew-limit the pump (2 settings/interval up, 1 down) to damp the
  // flow/temperature limit cycle; a critical margin overrides the limit.
  if (prev_level_ < 0) {
    prev_level_ = pump_levels_ - 1;
  }
  if (margin <= 0.0) {
    target = pump_levels_ - 1;
  } else {
    target = std::clamp(target, prev_level_ - 1, prev_level_ + 2);
  }
  prev_level_ = target;
  out.pump_level = target;

  // Utilization-driven DVFS: pick the lowest level whose capacity covers
  // the demand with margin; force nominal when the margin is critical
  // so DVFS never fights the pump for the threshold.
  out.vf_levels.resize(n_cores_);
  for (int i = 0; i < n_cores_; ++i) {
    out.vf_levels[i] = margin <= 0.0
                           ? vf_.max_level()
                           : vf_.level_for_demand(in.core_demands[i], 0.08);
  }
}

std::string FuzzyFlowDvfsPolicy::name() const { return "LC_FUZZY"; }

bool FuzzyFlowDvfsPolicy::fold_replay_state(std::uint64_t& h) const {
  // The Mamdani rule base (fuzzy_) is immutable after construction;
  // the decision-feeding memory is the sensor-fold/trend/slew state.
  h = fnv1a(h, prev_max_temp_);
  h = fnv1a(h, trend_ema_);
  h = fnv1a(h, last_flow_);
  h = fnv1a(h, prev_level_);
  return true;
}

}  // namespace tac3d::control
