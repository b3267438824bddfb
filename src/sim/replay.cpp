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

void LimitCycleReplay::journal_interval(const IntervalAddends& a) {
  require(phase_ == Phase::kJournaling && journal_.steps < period_steps_ &&
              a.offered.size() == static_cast<std::size_t>(journal_.n_cores),
          "LimitCycleReplay::journal_interval: not journaling, or wrong core "
          "count");
  const std::size_t s = static_cast<std::size_t>(journal_.steps++);
  const std::size_t at = s * a.offered.size();
  std::copy(a.offered.begin(), a.offered.end(), journal_.offered.begin() + at);
  std::copy(a.lost.begin(), a.lost.end(), journal_.lost.begin() + at);
  std::copy(a.tcore.begin(), a.tcore.end(), journal_.tcore.begin() + at);
  journal_.chip[s] = a.chip;
  journal_.pump_on[s] = a.pump_on ? 1 : 0;
  journal_.pump[s] = a.pump;
  journal_.flow[s] = a.flow;
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
                                   double& flow_fraction_acc) const {
  const std::size_t nc = static_cast<std::size_t>(journal_.n_cores);
  for (std::size_t s = 0; s < static_cast<std::size_t>(journal_.steps);
       ++s) {
    IntervalAddends a;
    a.offered = std::span<const double>(journal_.offered).subspan(s * nc, nc);
    a.lost = std::span<const double>(journal_.lost).subspan(s * nc, nc);
    a.tcore = std::span<const double>(journal_.tcore).subspan(s * nc, nc);
    a.chip = journal_.chip[s];
    a.pump_on = journal_.pump_on[s] != 0;
    a.pump = journal_.pump[s];
    a.flow = journal_.flow[s];
    add_interval(m, a, dt, flow_fraction_acc);
  }
}

}  // namespace tac3d::sim
