#pragma once
/// \file prepared.hpp
/// \brief The equivalence keys that decide which set-up artifacts two
/// scenarios may share through a ScenarioBank (sim/bank.hpp).
///
/// The keys are explicit strings (cheap to hash, trivial to log)
/// derived only from the Scenario fields that the corresponding artifact
/// actually depends on:
///
///   trace tier   (workload, seed, trace_seconds)  [or trace identity]
///   model tier   (tiers, cooling, grid)
///   steady tier  (model key, t=0 demand fingerprint [attached traces]
///                 or trace key [synthesis axes], initial flow,
///                 init iterations)
///
/// Anything outside a key (policy, solver kind, pump power table, trace
/// duration actually simulated, ...) must not affect that artifact —
/// test_scenario_bank asserts the resulting sessions are bitwise
/// identical to from-scratch materialization.

#include <string>

#include "sim/experiment.hpp"

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

/// Model-tier key: identifies the assembled Mpsoc3D / RcModel, the
/// ThermalOperator pattern and its symbolic analysis — (tiers, effective
/// cooling, grid options).
std::string scenario_model_key(const Scenario& s);

/// Steady-tier key: identifies the leakage-consistent initial state —
/// the model key, the trace's t=0 demand (only the t=0 sample column
/// enters compute_initial_state, so usable attached traces are keyed by
/// its fingerprint and scenarios differing only in later trace content
/// share the solve; synthesis-bound scenarios keep the full trace key)
/// plus the policy-independent initial conditions (maximum pump flow per
/// cavity on liquid stacks, fixed-point iteration count). Deliberately
/// excludes the solver kind: the steady solve always runs
/// BiCGSTAB+ILU0, so scenarios differing only in the stepping solver
/// share their start.
std::string scenario_steady_key(const Scenario& s);

}  // namespace tac3d::sim
