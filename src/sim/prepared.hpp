#pragma once
/// \file prepared.hpp
/// \brief A Scenario compiled into ready-to-run artifacts, plus the
/// equivalence keys that decide which artifacts two scenarios may share.
///
/// A PreparedScenario is the clone-and-reset counterpart of
/// ScenarioInstance: the trace is a shared immutable object, the MPSoC
/// is a cheap deep copy of a cached prototype, and the simulation config
/// carries the cached initial steady state and the prototype thermal
/// operator, so SimulationSession construction degenerates to vector
/// copies. The keys are explicit strings (cheap to hash, trivial to log)
/// derived only from the Scenario fields that the corresponding artifact
/// actually depends on:
///
///   trace tier   (workload, seed, trace_seconds)  [or trace identity]
///   model tier   (tiers, cooling, grid)
///   steady tier  (model key, t=0 demand fingerprint [attached traces]
///                 or trace key [synthesis axes], initial flow,
///                 init iterations, LB imbalance)
///
/// Anything outside a key (policy, solver kind, pump power table, trace
/// duration actually simulated, ...) must not affect that artifact —
/// test_scenario_bank asserts the resulting sessions are bitwise
/// identical to from-scratch materialization.

#include <memory>
#include <string>

#include "sim/experiment.hpp"

namespace tac3d::thermal {
class ThermalOperator;
}

namespace tac3d::sim {

/// Does this scenario's attached trace match the chip (instantiate()
/// and the bank both fall back to synthesis when it does not)?
bool scenario_trace_usable(const Scenario& s);

/// Trace-tier key: identifies the UtilizationTrace the scenario will
/// actually run. A usable explicit trace is keyed by its content
/// fingerprint (equal traces collapse even across separately built
/// scenario lists); otherwise by the synthesis axes
/// (workload, seed, trace_seconds).
std::string scenario_trace_key(const Scenario& s);

/// Model-tier key: identifies the assembled Mpsoc3D / RcModel and the
/// ThermalOperator pattern — (tiers, effective cooling, grid options).
std::string scenario_model_key(const Scenario& s);

/// Steady-tier key: identifies the leakage-consistent initial state —
/// the model key, the trace's t=0 demand (only the t=0 sample column
/// enters compute_initial_state, so usable attached traces are keyed by
/// its fingerprint and scenarios differing only in later trace content
/// share the solve; synthesis-bound scenarios keep the full trace key)
/// plus the policy-independent initial conditions (maximum pump flow per
/// cavity on liquid stacks, fixed-point iteration count, LB imbalance
/// threshold). Deliberately excludes the solver kind: the steady solve
/// always runs BiCGSTAB+ILU0, so scenarios differing only in the
/// stepping solver share their start.
std::string scenario_steady_key(const Scenario& s);

/// A Scenario compiled by a ScenarioBank (sim/bank.hpp): shared trace,
/// cloned MPSoC, fresh policy, and a SimulationConfig with the cached
/// initial state and operator prototype injected. Drop-in replacement
/// for ScenarioInstance — the session it starts is bitwise identical to
/// one materialized from scratch.
struct PreparedScenario {
  Scenario spec;  ///< resolved copy (label filled, caches injected)
  std::shared_ptr<const power::UtilizationTrace> trace;
  std::unique_ptr<arch::Mpsoc3D> soc;  ///< private clone of the prototype
  std::unique_ptr<control::ThermalPolicy> policy;
  SimulationConfig sim;  ///< initial_state / operator_prototype set

  /// Start a session over the prepared objects (this PreparedScenario
  /// must outlive it).
  SimulationSession session() { return {*soc, *trace, *policy, sim}; }
};

}  // namespace tac3d::sim
