#include "sim/experiment.hpp"

#include <utility>

#include "arch/calibration.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "sim/prepared.hpp"

namespace tac3d::sim {

std::string policy_label(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kAcLb:
      return "AC_LB";
    case PolicyKind::kAcTdvfsLb:
      return "AC_TDVFS_LB";
    case PolicyKind::kLcLb:
      return "LC_LB";
    case PolicyKind::kLcTdvfsLb:
      return "LC_TDVFS_LB";
    case PolicyKind::kLcFuzzy:
      return "LC_FUZZY";
  }
  throw InvalidArgument("policy_label: unknown policy");
}

arch::CoolingKind cooling_for(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kAcLb:
    case PolicyKind::kAcTdvfsLb:
      return arch::CoolingKind::kAirCooled;
    case PolicyKind::kLcLb:
    case PolicyKind::kLcTdvfsLb:
    case PolicyKind::kLcFuzzy:
      return arch::CoolingKind::kLiquidCooled;
  }
  throw InvalidArgument("cooling_for: unknown policy");
}

std::unique_ptr<control::ThermalPolicy> make_policy(
    PolicyKind kind, const arch::Mpsoc3D& soc,
    const microchannel::PumpModel& pump) {
  const int n = soc.n_cores();
  const power::VfTable& vf = soc.chip().vf;
  switch (kind) {
    case PolicyKind::kAcLb:
      return std::make_unique<control::MaxPerformancePolicy>(n, vf, -1);
    case PolicyKind::kAcTdvfsLb:
      return std::make_unique<control::TemperatureTriggeredDvfsPolicy>(
          n, vf, celsius_to_kelvin(arch::calib::kDvfsTripC),
          celsius_to_kelvin(arch::calib::kDvfsReleaseC), -1);
    case PolicyKind::kLcLb:
      return std::make_unique<control::MaxPerformancePolicy>(
          n, vf, pump.levels() - 1);
    case PolicyKind::kLcTdvfsLb:
      return std::make_unique<control::TemperatureTriggeredDvfsPolicy>(
          n, vf, celsius_to_kelvin(arch::calib::kDvfsTripC),
          celsius_to_kelvin(arch::calib::kDvfsReleaseC), pump.levels() - 1);
    case PolicyKind::kLcFuzzy:
      return std::make_unique<control::FuzzyFlowDvfsPolicy>(
          n, vf, pump.levels(),
          celsius_to_kelvin(arch::calib::kHotSpotThresholdC));
  }
  throw InvalidArgument("make_policy: unknown policy");
}

std::string scenario_label(const Scenario& s) {
  if (!s.label.empty()) return s.label;
  std::string label = std::to_string(s.tiers) + "-tier " +
                      policy_label(s.policy) + " " +
                      power::workload_name(s.workload);
  if (s.seed != 1) label += " s" + std::to_string(s.seed);
  return label;
}

ScenarioInstance instantiate(const Scenario& spec) {
  ScenarioInstance inst;
  inst.spec = spec;
  inst.spec.label = scenario_label(spec);
  inst.soc = std::make_unique<arch::Mpsoc3D>(arch::Mpsoc3D::Options{
      spec.tiers, spec.effective_cooling(), spec.grid,
      arch::NiagaraConfig::paper()});
  if (scenario_trace_usable(spec)) {
    inst.trace = spec.trace;  // the caller's attached trace
  } else {
    inst.trace = power::shared_workload(spec.workload,
                                        inst.soc->chip().hardware_threads(),
                                        spec.trace_seconds, spec.seed);
  }
  inst.policy = make_policy(spec.policy, *inst.soc, spec.sim.pump);
  return inst;
}

SimMetrics run_scenario(const Scenario& spec) {
  ScenarioInstance inst = instantiate(spec);
  SimulationSession session = inst.session();
  session.run_to_end();
  return session.metrics();
}

// --- ScenarioMatrix ------------------------------------------------------

ScenarioMatrix& ScenarioMatrix::base(Scenario s) {
  base_ = std::move(s);
  return *this;
}

ScenarioMatrix& ScenarioMatrix::tiers(std::vector<int> v) {
  tiers_ = std::move(v);
  return *this;
}

ScenarioMatrix& ScenarioMatrix::policies(std::vector<PolicyKind> v) {
  policies_ = std::move(v);
  return *this;
}

ScenarioMatrix& ScenarioMatrix::workloads(
    std::vector<power::WorkloadKind> v) {
  workloads_ = std::move(v);
  return *this;
}

ScenarioMatrix& ScenarioMatrix::seeds(std::vector<std::uint64_t> v) {
  seeds_ = std::move(v);
  return *this;
}

ScenarioMatrix& ScenarioMatrix::trace_seconds(int seconds) {
  base_.trace_seconds = seconds;
  return *this;
}

ScenarioMatrix& ScenarioMatrix::grid(thermal::GridOptions g) {
  base_.grid = g;
  return *this;
}

ScenarioMatrix& ScenarioMatrix::filter(
    std::function<bool(const Scenario&)> pred) {
  filters_.push_back(std::move(pred));
  return *this;
}

std::vector<Scenario> ScenarioMatrix::build() const {
  require(!tiers_.empty() && !policies_.empty() && !workloads_.empty() &&
              !seeds_.empty(),
          "ScenarioMatrix: every sweep axis needs at least one value");
  std::vector<Scenario> out;
  out.reserve(tiers_.size() * policies_.size() * workloads_.size() *
              seeds_.size());
  for (const int tiers : tiers_) {
    for (const PolicyKind policy : policies_) {
      for (const power::WorkloadKind workload : workloads_) {
        for (const std::uint64_t seed : seeds_) {
          Scenario s = base_;
          s.tiers = tiers;
          s.policy = policy;
          s.workload = workload;
          s.seed = seed;
          bool keep = true;
          for (const auto& pred : filters_) {
            if (!pred(s)) {
              keep = false;
              break;
            }
          }
          if (!keep) continue;
          s.label = scenario_label(s);
          out.push_back(std::move(s));
        }
      }
    }
  }
  return out;
}

ScenarioMatrix ScenarioMatrix::paper_fig67() {
  ScenarioMatrix m;
  m.tiers({2, 4})
      .policies({PolicyKind::kAcLb, PolicyKind::kAcTdvfsLb,
                 PolicyKind::kLcLb, PolicyKind::kLcFuzzy})
      .filter([](const Scenario& s) {
        return !(s.tiers == 4 && s.policy == PolicyKind::kAcTdvfsLb);
      });
  return m;
}

}  // namespace tac3d::sim
