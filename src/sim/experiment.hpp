#pragma once
/// \file experiment.hpp
/// \brief Scenario descriptions for the paper's policy/stack matrix and
/// beyond: a Scenario is one self-contained cell of a design-space
/// sweep (stack, cooling, policy, workload, trace, seed, grid, solver),
/// ScenarioMatrix expands cartesian sweeps over those axes, and
/// instantiate()/run_scenario() turn a description into a live
/// simulation. Shared by benches, examples, tests and the parallel
/// sweep runner (sim/sweep.hpp).

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/mpsoc.hpp"
#include "control/policy.hpp"
#include "power/workloads.hpp"
#include "sim/engine.hpp"

namespace tac3d::sim {

/// The evaluated policies: the paper's four (AC_LB, AC_TDVFS_LB, LC_LB,
/// LC_FUZZY) plus the LC_TDVFS_LB ablation variant (temperature-
/// triggered DVFS at maximum flow, not in the paper's final set).
enum class PolicyKind { kAcLb, kAcTdvfsLb, kLcLb, kLcTdvfsLb, kLcFuzzy };

/// Display name matching the paper's labels.
std::string policy_label(PolicyKind kind);

/// Cooling configuration each policy runs on.
arch::CoolingKind cooling_for(PolicyKind kind);

/// Instantiate a policy for a given MPSoC and pump.
std::unique_ptr<control::ThermalPolicy> make_policy(
    PolicyKind kind, const arch::Mpsoc3D& soc,
    const microchannel::PumpModel& pump);

/// One cell of an evaluation matrix: everything needed to reproduce a
/// closed-loop run.
struct Scenario {
  std::string label;  ///< optional; scenario_label() derives a default
  int tiers = 2;
  PolicyKind policy = PolicyKind::kLcFuzzy;
  /// Cooling override; unset = derived from the policy (cooling_for).
  std::optional<arch::CoolingKind> cooling;
  power::WorkloadKind workload = power::WorkloadKind::kWebServer;
  int trace_seconds = 180;
  std::uint64_t seed = 1;
  thermal::GridOptions grid{16, 16};
  SimulationConfig sim;  ///< control interval, pump, solver kind, ...
  /// Optional caller-attached trace (a measured or hand-built one). When
  /// set and its thread count matches the chip, instantiate() and the
  /// bank run it instead of synthesizing from (workload, seed,
  /// trace_seconds); the bank keys it by its content and its t=0 column
  /// (sim/prepared.hpp). Scenarios sharing the pointer share the trace.
  std::shared_ptr<const power::UtilizationTrace> trace;

  arch::CoolingKind effective_cooling() const {
    return cooling ? *cooling : cooling_for(policy);
  }
};

/// "2-tier LC_FUZZY web s1" (or the explicit label when set).
std::string scenario_label(const Scenario& s);

class ScenarioBank;

/// A Scenario materialized into live objects, ready to drive a
/// SimulationSession. Owns or co-owns everything the session reads.
/// instantiate() builds every object from scratch and shares nothing:
/// the reference path. A ScenarioBank (sim/bank.hpp) prepares the same
/// objects from its cached prototypes and adds the shared set-up, and
/// the session that starts is bitwise identical.
struct ScenarioInstance {
  Scenario spec;  ///< resolved copy (label filled); its sim configures the run
  std::shared_ptr<const power::UtilizationTrace> trace;
  std::unique_ptr<arch::Mpsoc3D> soc;
  std::unique_ptr<control::ThermalPolicy> policy;

  /// Start a session over the owned objects (instance must outlive it).
  SimulationSession session() {
    return {*soc, *trace, *policy, spec.sim, shared_};
  }

  /// The set-up artifacts the session starts from (all null unless a
  /// ScenarioBank prepared this instance).
  const SharedSetup& shared() const { return shared_; }

 private:
  friend class ScenarioBank;
  SharedSetup shared_;
};

/// Build the MPSoC, synthesize the trace (unless a usable one is
/// attached) and instantiate the policy.
ScenarioInstance instantiate(const Scenario& spec);

/// Instantiate the scenario, run it to completion, return metrics.
SimMetrics run_scenario(const Scenario& spec);

/// Cartesian sweep builder over scenario axes. Expansion order is
/// deterministic: tiers (outer) -> policies -> workloads -> seeds
/// (inner), filters applied last.
class ScenarioMatrix {
 public:
  /// Template for the non-swept fields (trace length, grid, sim config
  /// with its solver kind).
  ScenarioMatrix& base(Scenario s);

  ScenarioMatrix& tiers(std::vector<int> v);
  ScenarioMatrix& policies(std::vector<PolicyKind> v);
  ScenarioMatrix& workloads(std::vector<power::WorkloadKind> v);
  ScenarioMatrix& seeds(std::vector<std::uint64_t> v);
  ScenarioMatrix& trace_seconds(int seconds);
  ScenarioMatrix& grid(thermal::GridOptions g);

  /// Keep only scenarios for which \p pred returns true (cumulative).
  ScenarioMatrix& filter(std::function<bool(const Scenario&)> pred);

  /// Expand the cartesian product (labels auto-filled). Attaches no
  /// trace: each scenario synthesizes its own from its axes, and a
  /// ScenarioBank's trace tier is where equal axes share one. A trace
  /// already set on the base scenario is kept on every scenario.
  std::vector<Scenario> build() const;

  /// Number of scenarios build() returns.
  std::size_t size() const { return build().size(); }

  /// The paper's seven Fig. 6/7 stack x policy configurations:
  /// {2,4} tiers x {AC_LB, AC_TDVFS_LB, LC_LB, LC_FUZZY} minus the
  /// 4-tier AC_TDVFS_LB cell the paper does not evaluate. Sweep axes
  /// for workloads and seeds can still be layered on top.
  static ScenarioMatrix paper_fig67();

 private:
  Scenario base_;
  std::vector<int> tiers_{2};
  std::vector<PolicyKind> policies_{PolicyKind::kLcFuzzy};
  std::vector<power::WorkloadKind> workloads_{power::WorkloadKind::kWebServer};
  std::vector<std::uint64_t> seeds_{1};
  std::vector<std::function<bool(const Scenario&)>> filters_;
};

}  // namespace tac3d::sim
