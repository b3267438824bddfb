#include "sim/batch.hpp"

#include <chrono>
#include <exception>
#include <span>

#include "common/error.hpp"
#include "obs/trace.hpp"
#include "thermal/batched_transient.hpp"

namespace tac3d::sim {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Run \p fn; a throw becomes \p error's text instead of propagating.
/// \return did \p fn complete?
template <typename Fn>
bool isolated(std::string& error, Fn&& fn) {
  try {
    fn();
    return true;
  } catch (const std::exception& e) {
    error = e.what();
  } catch (...) {
    error = "unknown error";
  }
  return false;
}

}  // namespace

BatchSession::BatchSession(std::vector<ScenarioInstance> prepared)
    : prepared_(std::move(prepared)) {
  require(!prepared_.empty(), "BatchSession: no lanes");
  const std::size_t n = prepared_.size();
  sessions_.resize(n);
  errors_.resize(n);
  stepping_.assign(n, 0);
  failed_.assign(n, 0);

  for (std::size_t l = 0; l < n; ++l) {
    isolated(errors_[l], [&] { sessions_[l].emplace(prepared_[l].session()); });
  }

  // Batch the thermal solves when every live lane runs BiCGSTAB+ILU(0)
  // on the same sparsity pattern; otherwise fall back to scalar lockstep
  // (bitwise the same results, one solve at a time). The sweep runner
  // groups scenarios by model key, so this normally holds.
  std::vector<int> live;
  for (std::size_t l = 0; l < n; ++l) {
    if (sessions_[l].has_value()) live.push_back(static_cast<int>(l));
  }
  // Wider than the interleaved kernels support: scalar lockstep rather
  // than a constructor throw (the sweep runner chunks below the cap;
  // this guards direct BatchSession users).
  if (live.size() < 2 ||
      live.size() > static_cast<std::size_t>(sparse::kMaxBatchLanes)) {
    return;
  }
  SimulationSession& first = *sessions_[static_cast<std::size_t>(live.front())];
  std::vector<thermal::TransientSolver*> lanes;
  lanes.reserve(n);
  for (const int l : live) {
    SimulationSession& s = *sessions_[static_cast<std::size_t>(l)];
    if (s.config().solver != sparse::SolverKind::kBicgstabIlu0 ||
        !thermal::BatchedTransientSolver::compatible(first.thermal_solver(),
                                                     s.thermal_solver())) {
      return;  // heterogeneous batch — scalar fallback
    }
    lanes.push_back(&s.thermal_solver());
  }
  // Lane indices in the batched solver == indices into `live`.
  lane_of_ = std::move(live);
  batched_ = std::make_unique<thermal::BatchedTransientSolver>(lanes);
}

BatchSession::~BatchSession() = default;
BatchSession::BatchSession(BatchSession&&) noexcept = default;

bool BatchSession::done() const {
  for (std::size_t l = 0; l < prepared_.size(); ++l) {
    if (!errors_[l].empty()) continue;
    if (sessions_[l].has_value() && !sessions_[l]->done()) return false;
  }
  return true;
}

int BatchSession::lane_steps(int lane) const {
  const std::size_t l = static_cast<std::size_t>(lane);
  return sessions_[l].has_value() ? sessions_[l]->steps_done() : 0;
}

const sparse::SolverStats& BatchSession::solver_stats(int lane) const {
  for (std::size_t b = 0; batched_ != nullptr && b < lane_of_.size(); ++b) {
    if (lane_of_[b] == lane) return batched_->lane_stats(static_cast<int>(b));
  }
  return sessions_[static_cast<std::size_t>(lane)]->solver_stats();
}

std::uint64_t BatchSession::compaction_events() const {
  return batched_ != nullptr ? batched_->compaction_events() : 0;
}

double BatchSession::tail_seconds() const {
  double s = tail_seconds_;
  for (const auto& os : sessions_) {
    if (os.has_value()) s += os->tail_seconds();
  }
  return s;
}

double BatchSession::solve_seconds() const {
  double s = solve_seconds_;
  for (const auto& os : sessions_) {
    if (os.has_value()) s += os->solve_seconds();
  }
  return s;
}

SimMetrics BatchSession::metrics(int lane) const {
  const std::size_t l = static_cast<std::size_t>(lane);
  require(errors_[l].empty() && sessions_[l].has_value(),
          "BatchSession::metrics: lane errored");
  return sessions_[l]->metrics();
}

void BatchSession::step() {
  if (batched_ == nullptr) {
    // Scalar-fallback lockstep: each live lane advances one interval on
    // its own solver — the unmodified scalar path (step() instruments
    // its own tail/solve split).
    for (std::size_t l = 0; l < prepared_.size(); ++l) {
      if (!errors_[l].empty() || !sessions_[l].has_value() ||
          sessions_[l]->done()) {
        continue;
      }
      isolated(errors_[l], [&] {
        // A banded lane locked on a verified limit cycle fast-forwards
        // instead of stepping; it rejoins real stepping when replay
        // stands down.
        if (sessions_[l]->replay_fast_forward() > 0) return;
        sessions_[l]->step();
      });
    }
    return;
  }
  step_batched();
}

/// One batched interval: SimulationSession::step()'s stages, each run as
/// every stepping lane's own call before the next stage starts, around
/// one batched thermal solve. A lane whose stage throws records the
/// error and leaves the interval; the others carry on.
void BatchSession::step_batched() {
  const std::size_t L = lane_of_.size();
  const auto run_stage = [&](auto stage) {
    for (std::size_t b = 0; b < L; ++b) {
      if (!stepping_[b]) continue;
      const std::size_t l = static_cast<std::size_t>(lane_of_[b]);
      if (!isolated(errors_[l], [&] { stage(*sessions_[l]); })) {
        stepping_[b] = 0;
      }
    }
  };
  const auto t0 = std::chrono::steady_clock::now();

  // Batched lanes run ILU(0) by construction, so none of them arms
  // limit-cycle replay: every live lane steps.
  {
    obs::TraceSpan control_span("tail/control");
    for (std::size_t b = 0; b < L; ++b) {
      const std::size_t l = static_cast<std::size_t>(lane_of_[b]);
      stepping_[b] = errors_[l].empty() && !sessions_[l]->done();
    }
    run_stage([](SimulationSession& s) { s.tail_begin(); });
    // Only the very first interval senses here: every later one reuses
    // the previous interval's post-solve gather.
    run_stage([](SimulationSession& s) {
      if (!s.sensed_fresh()) s.sense_current();
    });
    run_stage([](SimulationSession& s) { s.tail_decide(); });
    run_stage([](SimulationSession& s) { s.tail_apply(); });
  }
  {
    obs::TraceSpan power_span("tail/power");
    run_stage([](SimulationSession& s) { s.tail_power(); });
  }

  const auto t1 = std::chrono::steady_clock::now();
  {
    obs::TraceSpan solve_span("batch/solve");
    batched_->step_all(std::span<const std::uint8_t>(stepping_.data(), L),
                       std::span<std::uint8_t>(failed_.data(), L));
  }
  const auto t2 = std::chrono::steady_clock::now();

  // Solve failures, then the post-solve sensor gather that feeds both
  // this interval's metrics and the next decision.
  {
    obs::TraceSpan sensor_span("tail/sensors");
    for (std::size_t b = 0; b < L; ++b) {
      if (!stepping_[b] || !failed_[b]) continue;
      const std::string& what = batched_->lane_error(static_cast<int>(b));
      errors_[static_cast<std::size_t>(lane_of_[b])] =
          what.empty() ? "BicgstabSolver: failed to converge" : what;
      stepping_[b] = 0;
    }
    run_stage([](SimulationSession& s) { s.sense_current(); });
  }
  {
    obs::TraceSpan metrics_span("tail/metrics");
    run_stage([](SimulationSession& s) { s.finish_metrics(); });
  }
  const auto t3 = std::chrono::steady_clock::now();
  tail_seconds_ += seconds_between(t0, t1) + seconds_between(t2, t3);
  solve_seconds_ += seconds_between(t1, t2);
}

int BatchSession::run_to_end() {
  int intervals = 0;
  while (!done()) {
    step();
    ++intervals;
  }
  return intervals;
}

}  // namespace tac3d::sim
