#include "sim/replay.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"

namespace tac3d::sim {

void LimitCycleReplay::arm(int period_steps, int period_seconds,
                           int n_cores, std::size_t state_size) {
  require(period_steps >= 1 && period_seconds >= 1 && n_cores >= 1,
          "LimitCycleReplay::arm: bad period");
  phase_ = Phase::kWatching;
  verified_ = false;
  prev_valid_ = false;
  failed_attempts_ = 0;
  period_steps_ = period_steps;
  period_seconds_ = period_seconds;
  prev_temps_.assign(state_size, 0.0);
  locked_temps_.assign(state_size, 0.0);
  journal_.n_cores = n_cores;
  journal_.steps = 0;
  const std::size_t per_core =
      static_cast<std::size_t>(period_steps) * n_cores;
  journal_.offered.assign(per_core, 0.0);
  journal_.lost.assign(per_core, 0.0);
  journal_.tcore.assign(per_core, 0.0);
  journal_.chip.assign(static_cast<std::size_t>(period_steps), 0.0);
  journal_.pump.assign(static_cast<std::size_t>(period_steps), 0.0);
  journal_.flow.assign(static_cast<std::size_t>(period_steps), 0.0);
  journal_.pump_on.assign(static_cast<std::size_t>(period_steps), 0);
  cycles_detected_ = 0;
  steps_replayed_ = 0;
  solves_skipped_ = 0;
}

bool LimitCycleReplay::bitwise_equal(std::span<const double> a,
                                     std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

void LimitCycleReplay::save_prev(std::span<const double> temps,
                                 std::uint64_t aux) {
  std::copy(temps.begin(), temps.end(), prev_temps_.begin());
  prev_aux_ = aux;
  prev_valid_ = true;
}

CycleStepRecord LimitCycleReplay::journal_step_record() {
  require(phase_ == Phase::kJournaling && journal_.steps < period_steps_,
          "LimitCycleReplay: journal_step_record outside journaling");
  const std::size_t s = static_cast<std::size_t>(journal_.steps);
  const std::size_t nc = static_cast<std::size_t>(journal_.n_cores);
  ++journal_.steps;
  CycleStepRecord rec;
  rec.offered = std::span<double>(journal_.offered).subspan(s * nc, nc);
  rec.lost = std::span<double>(journal_.lost).subspan(s * nc, nc);
  rec.tcore = std::span<double>(journal_.tcore).subspan(s * nc, nc);
  rec.chip = &journal_.chip[s];
  rec.pump = &journal_.pump[s];
  rec.flow = &journal_.flow[s];
  rec.pump_on = &journal_.pump_on[s];
  return rec;
}

void LimitCycleReplay::on_boundary(std::span<const double> temps,
                                   std::uint64_t aux, int boundary_second,
                                   std::int64_t migrations) {
  switch (phase_) {
    case Phase::kDisarmed:
      return;

    case Phase::kWatching:
      if (prev_valid_ && aux == prev_aux_ &&
          bitwise_equal(temps, prev_temps_)) {
        // The full closed-loop state recurred at a distance of exactly
        // one period: journal the next cycle and re-verify at its end.
        phase_ = Phase::kJournaling;
        journal_.steps = 0;
        journal_base_second_ = boundary_second;
        journal_start_migrations_ = migrations;
        std::copy(temps.begin(), temps.end(), locked_temps_.begin());
        locked_aux_ = aux;
      }
      save_prev(temps, aux);
      return;

    case Phase::kJournaling: {
      // One full cycle recorded; accept only if the loop returned to the
      // journal's start state exactly.
      journal_.migrations_delta = migrations - journal_start_migrations_;
      if (aux == locked_aux_ && bitwise_equal(temps, locked_temps_)) {
        phase_ = Phase::kLocked;
        verified_ = true;
        ++cycles_detected_;
      } else {
        ++failed_attempts_;
        phase_ = failed_attempts_ >= kMaxFailedAttempts ? Phase::kDisarmed
                                                        : Phase::kWatching;
      }
      save_prev(temps, aux);
      return;
    }

    case Phase::kLocked:
      if (aux == locked_aux_ && bitwise_equal(temps, locked_temps_)) {
        verified_ = true;  // back on the cycle boundary after real steps
      } else {
        // The loop left the cycle (trace deviation past the verified
        // window): drop the lock and watch for a new recurrence.
        phase_ = Phase::kWatching;
        verified_ = false;
      }
      save_prev(temps, aux);
      return;
  }
}

void LimitCycleReplay::apply_cycle(SimMetrics& m, double dt,
                                   double hot_threshold_k,
                                   double& flow_fraction_acc) const {
  // Mirror of tail_apply + finish_metrics accumulation, fed from the
  // journal: per step, per core in core order, the identical addends the
  // real steps applied — so every accumulator advances bitwise equally.
  const int nc = journal_.n_cores;
  for (int s = 0; s < journal_.steps; ++s) {
    const std::size_t base = static_cast<std::size_t>(s) * nc;
    for (int c = 0; c < nc; ++c) {
      m.offered_work += journal_.offered[base + c];
      m.lost_work += journal_.lost[base + c];
    }
    bool any_hot = false;
    for (int c = 0; c < nc; ++c) {
      const double t_core = journal_.tcore[base + c];
      m.peak_temp = std::max(m.peak_temp, t_core);
      if (t_core > hot_threshold_k) {
        m.core_hot_time[c] += dt;
        any_hot = true;
      }
    }
    if (any_hot) m.any_hot_time += dt;
    m.chip_energy += journal_.chip[static_cast<std::size_t>(s)];
    if (journal_.pump_on[static_cast<std::size_t>(s)]) {
      m.pump_energy += journal_.pump[static_cast<std::size_t>(s)];
      flow_fraction_acc += journal_.flow[static_cast<std::size_t>(s)];
    }
    m.duration += dt;
  }
}

}  // namespace tac3d::sim
