#pragma once
/// \file replay.hpp
/// \brief Limit-cycle detection and fast-forward ("temporal memoization")
/// for the closed control loop.
///
/// Long transients under exactly periodic workloads settle into a
/// repeating cycle: after a warm-up, the temperature field, the policy
/// state and every knob recur bitwise at the workload period. Once that
/// recurrence is *proven* — identical temperature vector and an
/// identical fingerprint of all auxiliary closed-loop state at two
/// consecutive control-interval boundaries one period apart — stepping
/// the cycle again can only reproduce it, so the session records one
/// cycle's per-step metric addends in a journal and thereafter replays
/// whole cycles by re-adding the journaled values in the original order
/// with zero linear solves.
///
/// The guarantee discipline matches the warm-start and batching PRs:
/// replay only engages on exact bitwise recurrence (detection), re-adds
/// identical values in identical order (reconstruction), freezes all
/// live state while fast-forwarding and re-verifies the trace window
/// before every replayed cycle (exit) — so every metric and the final
/// state are bitwise identical to the step-everything run. A mid-cycle
/// run_until simply stops fast-forwarding and real-steps the remainder
/// from the frozen boundary state, which *is* the uninterrupted run's
/// state (bitwise continuation).
///
/// The state machine is driven by SimulationSession (sim/engine.cpp):
///   kWatching    compare each boundary with the previous one
///   kJournaling  a recurrence was seen; record the next cycle
///   kLocked      the journaled cycle re-verified; fast-forward eligible
/// plus kDisarmed for sessions where replay cannot be sound or where
/// repeated journal attempts failed (the cap keeps the detection
/// overhead bounded).
///
/// SimulationSession arms the detector only for the direct banded solver
/// on an exactly periodic trace whose period is a whole number of
/// control intervals, with a policy that can enumerate its state. A
/// direct solve depends only on the operator values and the right-hand
/// side, so the temperature field plus the session fingerprint is the
/// whole closed-loop state. The iterative solver carries stale
/// preconditioner factors and warm-start history between steps and, on
/// periodic input, never recurs bitwise, so it is not armed at all.
///
/// Everything is preallocated when the session arms the detector; the
/// warm replay path (journal recording and cycle application) performs
/// no heap allocations.

#include <cstdint>
#include <span>
#include <vector>

#include "sim/metrics.hpp"

namespace tac3d::sim {

/// Journal of one closed-loop cycle: a copy of every step's
/// IntervalAddends, re-addable value-for-value in order, plus the
/// cycle's scheduler-migration delta.
struct CycleJournal {
  int n_cores = 0;
  int steps = 0;  ///< recorded so far (== period once complete)
  std::vector<double> offered;  ///< [step * n_cores + c] offered_work addend
  std::vector<double> lost;     ///< [step * n_cores + c] lost_work addend
  std::vector<double> tcore;    ///< [step * n_cores + c] sensed core temp [K]
  std::vector<double> chip;     ///< [step] chip_energy addend
  std::vector<double> pump;     ///< [step] pump_energy addend
  std::vector<double> flow;     ///< [step] flow-fraction addend
  std::vector<std::uint8_t> pump_on;  ///< [step] pump/flow addends live?
  std::int64_t migrations_delta = 0;  ///< migrations over the cycle
};

/// The limit-cycle detector + journal owned by one SimulationSession.
/// The session calls on_boundary() at every aligned control-interval
/// boundary (steps_done % period_steps == 0) with the temperature field
/// and the auxiliary-state fingerprint, appends journal records while
/// journaling(), and fast-forwards cycles while can_fast_forward().
class LimitCycleReplay {
 public:
  /// Arm detection for a trace-periodic session. Preallocates the
  /// boundary snapshots and the journal (so the armed stepping path
  /// never allocates). \p state_size is the temperature-field length.
  void arm(int period_steps, int period_seconds, int n_cores,
           std::size_t state_size);

  bool armed() const { return phase_ != Phase::kDisarmed; }
  bool journaling() const { return phase_ == Phase::kJournaling; }
  bool locked() const { return phase_ == Phase::kLocked; }

  int period_steps() const { return period_steps_; }
  int period_seconds() const { return period_seconds_; }

  /// Second the journaled cycle's window starts at (trace re-verify key).
  int journal_base_second() const { return journal_base_second_; }

  /// Copy one stepped interval's addends into the journal
  /// (journaling() only).
  void journal_interval(const IntervalAddends& a);

  /// A real (non-replayed) step executed: the session is no longer at a
  /// verified cycle boundary until the next on_boundary match.
  void note_real_step() { verified_ = false; }

  /// Boundary protocol: compare/record the closed-loop state at an
  /// aligned control-interval boundary. \p aux is the session's
  /// auxiliary-state fingerprint, \p boundary_second the simulated
  /// second, \p migrations the session's cumulative migration count
  /// (journal delta bookkeeping).
  void on_boundary(std::span<const double> temps, std::uint64_t aux,
                   int boundary_second, std::int64_t migrations);

  /// Locked on a verified cycle AND currently at a verified boundary?
  bool can_fast_forward() const {
    return phase_ == Phase::kLocked && verified_;
  }

  /// Re-accumulate one journaled cycle into the metrics: add_interval()
  /// of each journaled step in order, so the accumulators advance bitwise
  /// exactly as if the cycle were stepped.
  void apply_cycle(SimMetrics& m, double dt, double& flow_fraction_acc) const;

  /// The applied cycle's migration delta (the session credits it to its
  /// scheduler).
  std::int64_t journal_migrations() const {
    return journal_.migrations_delta;
  }

  /// Count one fast-forwarded cycle (period_steps replayed steps, each
  /// skipping its linear solve).
  void note_fast_forward() {
    steps_replayed_ += static_cast<std::uint64_t>(period_steps_);
    solves_skipped_ += static_cast<std::uint64_t>(period_steps_);
  }

  std::uint64_t cycles_detected() const { return cycles_detected_; }
  std::uint64_t steps_replayed() const { return steps_replayed_; }
  std::uint64_t solves_skipped() const { return solves_skipped_; }

 private:
  enum class Phase : std::uint8_t {
    kDisarmed,
    kWatching,
    kJournaling,
    kLocked,
  };

  /// Journal-verification failures before detection gives up for good.
  /// Verification is the safety net for state the fingerprint might
  /// miss: a boundary that matched its predecessor must also close the
  /// journaled cycle, or the attempt fails. The cap bounds the (already
  /// tiny) detection overhead of a loop that keeps failing it.
  static constexpr int kMaxFailedAttempts = 8;

  void save_prev(std::span<const double> temps, std::uint64_t aux);
  static bool bitwise_equal(std::span<const double> a,
                            std::span<const double> b);

  Phase phase_ = Phase::kDisarmed;
  bool verified_ = false;  ///< at a boundary whose state matches the lock
  bool prev_valid_ = false;
  int period_steps_ = 0;
  int period_seconds_ = 0;
  int failed_attempts_ = 0;
  int journal_base_second_ = 0;
  std::int64_t journal_start_migrations_ = 0;
  std::vector<double> prev_temps_;    ///< previous boundary field
  std::uint64_t prev_aux_ = 0;
  std::vector<double> locked_temps_;  ///< cycle-boundary field of the lock
  std::uint64_t locked_aux_ = 0;
  CycleJournal journal_;
  std::uint64_t cycles_detected_ = 0;
  std::uint64_t steps_replayed_ = 0;
  std::uint64_t solves_skipped_ = 0;
};

}  // namespace tac3d::sim
