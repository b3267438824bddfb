#pragma once
/// \file batch.hpp
/// \brief BatchSession: K bank-prepared scenarios stepped in lockstep by
/// one core, with the thermal solves batched per matrix traversal.
///
/// When K scenarios share a sparsity pattern (same stack/grid — the
/// ScenarioBank's model tier guarantees it) and solve with
/// BiCGSTAB+ILU(0), BatchSession advances all K thermal systems through
/// one thermal::BatchedTransientSolver, so a single traversal of the
/// shared CSR pattern steps every lane (see sparse/batched.hpp for why
/// that is bitwise-neutral per lane). The batched solve reads only each
/// lane's own matrix and right-hand side, so lanes need not share a
/// floorplan.
///
/// The control tail around the solve (sensor gathers, policy decisions,
/// the power/leakage update, metrics) runs as each lane's own
/// SimulationSession stages, one stage at a time across the lanes, so
/// every lane does exactly the arithmetic of a scalar step().
///
/// Lanes are isolated: a lane whose construction, policy loop or linear
/// solve throws is recorded (lane_error) and deactivated; the remaining
/// lanes keep stepping to completion. Lanes that cannot batch (direct
/// solver, mismatched pattern or kind, or a single lane) fall back to
/// per-lane scalar stepping — still lockstep, still the exact scalar
/// arithmetic.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/experiment.hpp"

namespace tac3d::thermal {
class BatchedTransientSolver;
}

namespace tac3d::sim {

/// K prepared scenarios advancing in lockstep.
class BatchSession {
 public:
  /// Take ownership of \p prepared (one lane each) and start their
  /// sessions. Construction failures are captured per lane, not thrown.
  explicit BatchSession(std::vector<ScenarioInstance> prepared);
  ~BatchSession();
  BatchSession(BatchSession&&) noexcept;

  int lanes() const { return static_cast<int>(prepared_.size()); }

  /// Did the thermal solves batch across lanes (false: scalar-fallback
  /// lockstep)?
  bool thermal_batched() const { return batched_ != nullptr; }

  /// Wall-clock seconds spent in the control tail and in the thermal
  /// solves across all lanes (batch-level stages plus any per-lane
  /// scalar stepping).
  double tail_seconds() const;
  double solve_seconds() const;

  /// Advance every live, unfinished lane one control interval.
  void step();

  /// Step until every lane is done or errored. \return lockstep
  /// intervals executed.
  int run_to_end();

  /// Every lane done or errored?
  bool done() const;

  /// Lane completed so far without error?
  bool lane_ok(int lane) const {
    return errors_[static_cast<std::size_t>(lane)].empty();
  }

  /// Error text of a failed lane (empty when ok).
  const std::string& lane_error(int lane) const {
    return errors_[static_cast<std::size_t>(lane)];
  }

  /// The lane's session (valid whenever construction succeeded — check
  /// has_session(); errored lanes keep their partial state).
  bool has_session(int lane) const {
    return sessions_[static_cast<std::size_t>(lane)].has_value();
  }
  const SimulationSession& session(int lane) const {
    return *sessions_[static_cast<std::size_t>(lane)];
  }

  /// Steps lane \p lane completed (0 when construction failed).
  int lane_steps(int lane) const;

  /// Refresh/solve counters of the lane's thermal solves: its lane of
  /// the batched solver when thermal_batched(), else its session's own
  /// solver (requires has_session()).
  const sparse::SolverStats& solver_stats(int lane) const;

  /// Mid-solve lane-compaction events of the batched thermal solver
  /// (0 on the scalar-fallback path); sweep-footer telemetry.
  std::uint64_t compaction_events() const;

  /// Metrics of a completed, ok lane.
  SimMetrics metrics(int lane) const;

  /// The scenario the lane ran.
  const Scenario& scenario(int lane) const {
    return prepared_[static_cast<std::size_t>(lane)].spec;
  }

 private:
  void step_batched();

  std::vector<ScenarioInstance> prepared_;
  std::vector<std::optional<SimulationSession>> sessions_;
  std::vector<std::string> errors_;
  std::unique_ptr<thermal::BatchedTransientSolver> batched_;
  std::vector<int> lane_of_;  ///< batched lane index -> prepared_ index
  std::vector<std::uint8_t> stepping_, failed_;  ///< step() scratch masks
  double tail_seconds_ = 0.0;   ///< batch-level control-tail time
  double solve_seconds_ = 0.0;  ///< batch-level thermal-solve time
};

}  // namespace tac3d::sim
