#include "sim/batch.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <span>

#include "common/error.hpp"
#include "control/policy.hpp"
#include "obs/trace.hpp"
#include "power/batched_power.hpp"
#include "thermal/batched_transient.hpp"

namespace tac3d::sim {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Same floorplan partitioning (core sensor elements, element areas and
/// element->cell weight lists, bitwise)? The ScenarioBank's model key
/// guarantees this for sweep batches; direct BatchSession users get a
/// runtime check.
bool same_floorplan(const arch::Mpsoc3D& sa, const arch::Mpsoc3D& sb) {
  const std::span<const int> ca = sa.core_element_ids();
  const std::span<const int> cb = sb.core_element_ids();
  if (sa.n_cores() != sb.n_cores() ||
      !std::equal(ca.begin(), ca.end(), cb.begin(), cb.end())) {
    return false;
  }
  const thermal::ThermalGrid& a = sa.model().grid();
  const thermal::ThermalGrid& b = sb.model().grid();
  if (a.element_count() != b.element_count()) return false;
  for (int e = 0; e < a.element_count(); ++e) {
    if (a.element(e).rect.area() != b.element(e).rect.area()) return false;
    const auto& ca = a.element_cells(e);
    const auto& cb = b.element_cells(e);
    if (ca.size() != cb.size()) return false;
    for (std::size_t i = 0; i < ca.size(); ++i) {
      if (ca[i].node != cb[i].node || ca[i].weight != cb[i].weight) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

/// Fused control-tail plan: the shared flattened geometry, per-lane
/// handles resolved once at construction, and persistent per-step
/// scratch (cleared and refilled within capacity — the fused tail
/// performs no heap allocation in steady state).
struct BatchSession::TailPlan {
  power::ElementGeometry geom;
  std::vector<std::int32_t> core_elements;  ///< shared core sensor ids
  int n_cores = 0;

  // Per batched lane b (parallel to the batched solver's lane order).
  std::vector<SimulationSession*> session;
  std::vector<control::FuzzyFlowDvfsPolicy*> fuzzy;  ///< null = not fuzzy
  std::vector<const power::LeakageModel*> leakage;

  // Per-step scratch.
  std::vector<power::PowerLane> power_lanes;
  std::vector<power::SensorLane> sensor_lanes;
  std::vector<control::FuzzyFlowDvfsPolicy*> fz_policies;
  std::vector<const control::PolicyInputs*> fz_in;
  std::vector<control::PolicyActions*> fz_out;
  std::vector<double> fz_eval;  ///< 2 * lanes
  std::vector<double> fz_flow;  ///< lanes
};

BatchSession::BatchSession(std::vector<ScenarioInstance> prepared)
    : prepared_(std::move(prepared)) {
  require(!prepared_.empty(), "BatchSession: no lanes");
  const std::size_t n = prepared_.size();
  sessions_.resize(n);
  errors_.resize(n);
  stepping_.assign(n, 0);
  failed_.assign(n, 0);

  for (std::size_t l = 0; l < n; ++l) {
    try {
      sessions_[l].emplace(prepared_[l].session());
    } catch (const std::exception& e) {
      errors_[l] = e.what();
    } catch (...) {
      errors_[l] = "unknown error";
    }
  }

  // Batch the thermal solves and fuse the control tail when every live
  // lane runs BiCGSTAB+ILU(0) on the same sparsity pattern and the same
  // floorplan; otherwise fall back to scalar lockstep (bitwise the same
  // results, one solve at a time). The sweep runner groups scenarios by
  // model key, so this normally holds.
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
                                                     s.thermal_solver()) ||
        !same_floorplan(first.soc(), s.soc())) {
      return;  // heterogeneous batch — scalar fallback
    }
    lanes.push_back(&s.thermal_solver());
  }
  // Lane indices in the batched solver == indices into `live`.
  lane_of_ = std::move(live);
  batched_ = std::make_unique<thermal::BatchedTransientSolver>(lanes);
  build_tail_plan();
}

BatchSession::~BatchSession() = default;
BatchSession::BatchSession(BatchSession&&) noexcept = default;

static_assert(sparse::kMaxBatchLanes <= power::kMaxPowerLanes,
              "the fused tail kernels must hold a whole batch");

void BatchSession::build_tail_plan() {
  const int L = batched_->lanes();
  SimulationSession& s0 =
      *sessions_[static_cast<std::size_t>(lane_of_.front())];
  const arch::Mpsoc3D& soc0 = s0.soc();
  const thermal::ThermalGrid& g0 = soc0.model().grid();
  const std::span<const int> cores0 = soc0.core_element_ids();

  auto plan = std::make_unique<TailPlan>();
  plan->geom.cell_offset.push_back(0);
  for (int e = 0; e < g0.element_count(); ++e) {
    for (const auto& cw : g0.element_cells(e)) {
      plan->geom.cell_node.push_back(cw.node);
      plan->geom.cell_weight.push_back(cw.weight);
    }
    plan->geom.cell_offset.push_back(
        static_cast<std::int64_t>(plan->geom.cell_node.size()));
    plan->geom.element_area.push_back(g0.element(e).rect.area());
  }
  plan->core_elements.assign(cores0.begin(), cores0.end());
  plan->n_cores = soc0.n_cores();

  plan->session.resize(static_cast<std::size_t>(L));
  plan->fuzzy.resize(static_cast<std::size_t>(L));
  plan->leakage.resize(static_cast<std::size_t>(L));
  for (int b = 0; b < L; ++b) {
    const std::size_t l = static_cast<std::size_t>(lane_of_[b]);
    SimulationSession& s = *sessions_[l];
    plan->session[static_cast<std::size_t>(b)] = &s;
    plan->fuzzy[static_cast<std::size_t>(b)] =
        dynamic_cast<control::FuzzyFlowDvfsPolicy*>(&s.policy());
    plan->leakage[static_cast<std::size_t>(b)] = &prepared_[l].soc->chip().leakage;
  }
  plan->power_lanes.reserve(static_cast<std::size_t>(L));
  plan->sensor_lanes.reserve(static_cast<std::size_t>(L));
  plan->fz_policies.reserve(static_cast<std::size_t>(L));
  plan->fz_in.reserve(static_cast<std::size_t>(L));
  plan->fz_out.reserve(static_cast<std::size_t>(L));
  plan->fz_eval.resize(static_cast<std::size_t>(2 * L));
  plan->fz_flow.resize(static_cast<std::size_t>(L));
  tail_ = std::move(plan);
}

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
      try {
        // A banded lane locked on a verified limit cycle fast-forwards
        // instead of stepping; it rejoins real stepping when replay
        // stands down.
        if (sessions_[l]->replay_fast_forward() > 0) continue;
        sessions_[l]->step();
      } catch (const std::exception& e) {
        errors_[l] = e.what();
      } catch (...) {
        errors_[l] = "unknown error";
      }
    }
    return;
  }
  step_batched_fused();
}

/// The lane-fused control tail: stage-by-stage over the batch instead
/// of lane-by-lane, so the element/cell traversals (leakage, RHS
/// scatter, sensor gathers) and the fuzzy inference each run once per
/// step for all lanes. Stages never move arithmetic across lanes —
/// only across time — so every lane remains bitwise the scalar path.
void BatchSession::step_batched_fused() {
  TailPlan& plan = *tail_;
  const int L = batched_->lanes();
  const auto t0 = std::chrono::steady_clock::now();

  // Stage 1: demand sampling + load balancing. Fused lanes run ILU(0) by
  // construction, so none of them arms limit-cycle replay.
  {
  obs::TraceSpan control_span("tail/control");
  std::fill(stepping_.begin(), stepping_.end(), std::uint8_t{0});
  for (int b = 0; b < L; ++b) {
    const std::size_t l = static_cast<std::size_t>(lane_of_[b]);
    if (!errors_[l].empty() || sessions_[l]->done()) continue;
    try {
      if (sessions_[l]->tail_begin()) {
        stepping_[static_cast<std::size_t>(b)] = 1;
      }
    } catch (const std::exception& e) {
      errors_[l] = e.what();
    } catch (...) {
      errors_[l] = "unknown error";
    }
  }

  // Stage 2: sensors. Only the very first interval gathers here — every
  // later interval reuses the post-solve gather of stage 6.
  for (int b = 0; b < L; ++b) {
    if (!stepping_[static_cast<std::size_t>(b)]) continue;
    SimulationSession& s = *plan.session[static_cast<std::size_t>(b)];
    if (!s.sensed_fresh()) s.sense_current();
  }

  // Stage 3: policy decisions. Same-class fuzzy lanes share one batched
  // Mamdani inference; everything else decides scalar.
  plan.fz_policies.clear();
  plan.fz_in.clear();
  plan.fz_out.clear();
  for (int b = 0; b < L; ++b) {
    const std::size_t bb = static_cast<std::size_t>(b);
    if (!stepping_[bb] || plan.fuzzy[bb] == nullptr) continue;
    plan.fz_policies.push_back(plan.fuzzy[bb]);
    plan.fz_in.push_back(&plan.session[bb]->policy_inputs());
    plan.fz_out.push_back(&plan.session[bb]->policy_actions());
  }
  bool fz_batched = plan.fz_policies.size() >= 2;
  if (fz_batched) {
    const std::size_t k = plan.fz_policies.size();
    try {
      control::FuzzyFlowDvfsPolicy::decide_batch(
          std::span<control::FuzzyFlowDvfsPolicy* const>(
              plan.fz_policies.data(), k),
          std::span<const control::PolicyInputs* const>(plan.fz_in.data(), k),
          std::span<control::PolicyActions* const>(plan.fz_out.data(), k),
          std::span<double>(plan.fz_eval.data(), 2 * k),
          std::span<double>(plan.fz_flow.data(), k));
    } catch (...) {
      // decide_batch validates every lane before touching controller
      // state, so the per-lane decisions below start clean and the
      // failing lane alone gets its error recorded.
      fz_batched = false;
    }
  }
  for (int b = 0; b < L; ++b) {
    const std::size_t bb = static_cast<std::size_t>(b);
    if (!stepping_[bb]) continue;
    const std::size_t l = static_cast<std::size_t>(lane_of_[b]);
    SimulationSession& s = *plan.session[bb];
    try {
      if (fz_batched && plan.fuzzy[bb] != nullptr) {
        require(static_cast<int>(s.policy_actions().vf_levels.size()) ==
                    plan.n_cores,
                "simulate: policy returned wrong vf_levels size");
      } else {
        s.tail_decide();
      }
      // Stage 4: apply — pump level, execution model, work accounting.
      s.tail_apply();
    } catch (const std::exception& e) {
      errors_[l] = e.what();
      stepping_[bb] = 0;
    } catch (...) {
      errors_[l] = "unknown error";
      stepping_[bb] = 0;
    }
  }
  }

  // Stage 5: power — per-lane dynamic watts, then one lane-fused
  // leakage traversal and one lane-fused RHS scatter.
  {
  obs::TraceSpan power_span("tail/power");
  plan.power_lanes.clear();
  for (int b = 0; b < L; ++b) {
    const std::size_t bb = static_cast<std::size_t>(b);
    if (!stepping_[bb]) continue;
    const std::size_t l = static_cast<std::size_t>(lane_of_[b]);
    SimulationSession& s = *plan.session[bb];
    try {
      s.tail_power_dynamic();
      thermal::RcModel& model = prepared_[l].soc->model();
      plan.power_lanes.push_back(power::PowerLane{
          plan.leakage[bb], s.temperatures(),
          model.element_powers_writable(), model.power_rhs_writable()});
    } catch (const std::exception& e) {
      errors_[l] = e.what();
      stepping_[bb] = 0;
    } catch (...) {
      errors_[l] = "unknown error";
      stepping_[bb] = 0;
    }
  }
  if (!plan.power_lanes.empty()) {
    power::add_leakage_batched(plan.geom, plan.power_lanes);
    power::scatter_power_rhs_batched(plan.geom, plan.power_lanes);
  }
  }

  const auto t1 = std::chrono::steady_clock::now();
  {
    obs::TraceSpan solve_span("batch/solve");
    batched_->step_all(
        std::span<const std::uint8_t>(stepping_.data(),
                                      static_cast<std::size_t>(L)),
        std::span<std::uint8_t>(failed_.data(), static_cast<std::size_t>(L)));
  }
  const auto t2 = std::chrono::steady_clock::now();

  // Stage 6: solve failures, then one fused post-solve sensor gather
  // feeding both this interval's metrics and the next decision.
  {
  obs::TraceSpan sensor_span("tail/sensors");
  plan.sensor_lanes.clear();
  for (int b = 0; b < L; ++b) {
    const std::size_t bb = static_cast<std::size_t>(b);
    if (!stepping_[bb]) continue;
    const std::size_t l = static_cast<std::size_t>(lane_of_[b]);
    if (failed_[bb]) {
      const std::string& what = batched_->lane_error(b);
      errors_[l] = what.empty() ? "BicgstabSolver: failed to converge" : what;
      stepping_[bb] = 0;
      continue;
    }
    control::PolicyInputs& in = plan.session[bb]->policy_inputs();
    plan.sensor_lanes.push_back(power::SensorLane{
        plan.session[bb]->temperatures(),
        std::span<double>(in.core_temps.data(), in.core_temps.size())});
  }
  if (!plan.sensor_lanes.empty()) {
    power::gather_element_max_batched(plan.geom, plan.core_elements,
                                      plan.sensor_lanes);
  }
  }

  // Stage 7: metrics accumulation.
  {
  obs::TraceSpan metrics_span("tail/metrics");
  for (int b = 0; b < L; ++b) {
    const std::size_t bb = static_cast<std::size_t>(b);
    if (!stepping_[bb]) continue;
    const std::size_t l = static_cast<std::size_t>(lane_of_[b]);
    SimulationSession& s = *plan.session[bb];
    try {
      s.mark_sensed();
      s.finish_metrics();
    } catch (const std::exception& e) {
      errors_[l] = e.what();
    } catch (...) {
      errors_[l] = "unknown error";
    }
  }
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
