#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/fnv.hpp"
#include "obs/trace.hpp"
#include "sparse/symbolic.hpp"
#include "thermal/transient.hpp"

namespace tac3d::sim {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Apply a pump level to all cavities (no-op for air-cooled stacks).
void apply_pump(arch::Mpsoc3D& soc, const microchannel::PumpModel& pump,
                int level) {
  if (soc.cooling() != arch::CoolingKind::kLiquidCooled || level < 0) return;
  soc.model().set_all_flows(pump.flow_per_cavity(level));
}

int count_steps(const SimulationConfig& cfg,
                const power::UtilizationTrace& trace) {
  require(cfg.control_dt > 0.0, "simulate: control_dt must be positive");
  const double steps = control_steps(cfg, trace.seconds());
  require(std::fabs(steps) <= std::numeric_limits<int>::max(),
          "simulate: duration / control_dt does not fit in an int step "
          "count");
  return std::max(1, static_cast<int>(steps));
}

/// The loop state every session starts from: t=0 demand balanced onto
/// the cores at the maximum V/f level. Writes the sampled demand and
/// the balance result into the caller's buffers (the session keeps them
/// as members). A fresh Scheduler's first balance() is a pure function
/// of the demand vector, so a throwaway scheduler reproduces a
/// session's bit for bit.
std::vector<arch::CoreState> initial_cores(
    const arch::Mpsoc3D& soc, const power::UtilizationTrace& trace,
    Scheduler& scheduler, std::vector<double>& thread_demand,
    std::vector<double>& core_demand) {
  for (int t = 0; t < trace.threads(); ++t) {
    thread_demand[t] = trace.sample(t, 0.0);
  }
  core_demand = scheduler.balance(thread_demand);
  std::vector<arch::CoreState> cores(soc.n_cores());
  for (int c = 0; c < soc.n_cores(); ++c) {
    cores[c] = {core_demand[c], soc.chip().vf.max_level()};
  }
  return cores;
}

}  // namespace

double control_steps(const SimulationConfig& cfg, int trace_seconds) {
  const double duration = cfg.duration > 0.0
                              ? cfg.duration
                              : static_cast<double>(trace_seconds - 1);
  return std::round(duration / cfg.control_dt);
}

InitialThermalState compute_initial_state(
    arch::Mpsoc3D& soc, const power::UtilizationTrace& trace,
    const SimulationConfig& cfg,
    std::shared_ptr<const sparse::SymbolicStructure> structure) {
  require(trace.threads() == soc.chip().hardware_threads(),
          "compute_initial_state: trace thread count must match the chip");
  Scheduler scheduler(trace.threads(), soc.n_cores(),
                      soc.chip().threads_per_core);
  std::vector<double> thread_demand(trace.threads());
  std::vector<double> core_demand;
  const std::vector<arch::CoreState> cores =
      initial_cores(soc, trace, scheduler, thread_demand, core_demand);
  apply_pump(soc, cfg.pump, cfg.pump.levels() - 1);
  InitialThermalState state;
  state.temperatures = soc.leakage_consistent_steady(
      cores, cfg.init_iterations, std::move(structure));
  const std::span<const double> powers = soc.model().element_powers();
  state.element_powers.assign(powers.begin(), powers.end());
  return state;
}

SimulationSession::SimulationSession(arch::Mpsoc3D& soc,
                                     const power::UtilizationTrace& trace,
                                     control::ThermalPolicy& policy,
                                     const SimulationConfig& cfg)
    : SimulationSession(soc, trace, policy, cfg, SharedSetup{}) {}

SimulationSession::SimulationSession(arch::Mpsoc3D& soc,
                                     const power::UtilizationTrace& trace,
                                     control::ThermalPolicy& policy,
                                     const SimulationConfig& cfg,
                                     const SharedSetup& shared)
    : soc_(soc),
      trace_(trace),
      policy_(policy),
      cfg_(cfg),
      liquid_(soc.cooling() == arch::CoolingKind::kLiquidCooled),
      n_cores_(soc.n_cores()),
      total_steps_(count_steps(cfg, trace)),
      scheduler_(trace.threads(), n_cores_, soc.chip().threads_per_core),
      thread_demand_(trace.threads()),
      core_demand_() {
  require(trace_.threads() == soc_.chip().hardware_threads(),
          "simulate: trace thread count must match the chip");

  // --- initial state -----------------------------------------------------
  cores_ = initial_cores(soc_, trace_, scheduler_, thread_demand_,
                         core_demand_);
  pump_level_ = liquid_ ? cfg_.pump.levels() - 1 : -1;
  apply_pump(soc_, cfg_.pump, pump_level_);
  // Symbolic analysis: the bank's, else, for an ILU(0) session, one of
  // its own (without the RCM ordering only banded LU reads) that serves
  // its steady solve and its transient solver. A banded session's
  // solvers each analyze their own pattern.
  std::shared_ptr<const sparse::SymbolicStructure> structure =
      shared.structure;
  if (structure == nullptr &&
      cfg_.solver == sparse::SolverKind::kBicgstabIlu0) {
    structure = sparse::analyze_structure(soc_.model().conductance(),
                                          /*ordering=*/false);
  }
  // Leakage-consistent initial steady state (fixed point): the cached
  // result when a ScenarioBank prepared this scenario, else computed
  // here by the same function. Applying the vectors reproduces the
  // post-solve model state exactly, so both paths step identical
  // arithmetic.
  const std::shared_ptr<const InitialThermalState> init =
      shared.initial != nullptr
          ? shared.initial
          : std::make_shared<const InitialThermalState>(
                compute_initial_state(soc_, trace_, cfg_, structure));
  require(static_cast<std::int32_t>(init->temperatures.size()) ==
              soc_.model().node_count(),
          "simulate: initial state temperature size mismatch");
  require(static_cast<int>(init->element_powers.size()) ==
              soc_.model().grid().element_count(),
          "simulate: initial state element power size mismatch");
  soc_.model().set_element_powers(init->element_powers);

  thermal_ = std::make_unique<thermal::TransientSolver>(
      soc_.model(), cfg_.control_dt,
      thermal::TransientSolver::Options{
          .kind = cfg_.solver,
          .structure = std::move(structure),
          .rel_tolerance = cfg_.solver_tolerance});
  thermal_->set_state(init->temperatures);

  m_.core_hot_time.assign(n_cores_, 0.0);
  offered_.assign(n_cores_, 0.0);
  lost_.assign(n_cores_, 0.0);

  // Persistent control-tail buffers: the per-step loop reuses these, so
  // steady-state stepping performs no heap allocation.
  in_.core_temps.resize(n_cores_);
  in_.core_demands.resize(n_cores_);
  in_.dt = cfg_.control_dt;
  act_.vf_levels.reserve(n_cores_);

  // --- limit-cycle replay ------------------------------------------------
  // Arm detection only when it can be sound: the solver must be the
  // direct one, the trace exactly periodic, the period an exact whole
  // number of control intervals, and the policy able to enumerate its
  // history-carrying state for the boundary fingerprint. A direct solve
  // depends only on the operator values and the right-hand side, so the
  // temperature field plus the session fingerprint is the whole state.
  if (cfg_.limit_cycle_replay &&
      cfg_.solver == sparse::SolverKind::kBandedLu) {
    const int period_s = trace_.period_hint();
    if (period_s > 0) {
      const int period_steps = static_cast<int>(
          std::llround(static_cast<double>(period_s) / cfg_.control_dt));
      std::uint64_t trial = kFnvOffsetBasis;
      if (period_steps >= 1 &&
          static_cast<double>(period_steps) * cfg_.control_dt ==
              static_cast<double>(period_s) &&
          policy_.fold_replay_state(trial)) {
        replay_.arm(period_steps, period_s, n_cores_,
                    thermal_->temperatures().size());
      }
    }
  }
}

SimulationSession::~SimulationSession() = default;
SimulationSession::SimulationSession(SimulationSession&&) noexcept = default;

void SimulationSession::step() {
  const auto t0 = std::chrono::steady_clock::now();
  if (!tail_begin()) return;
  // The previous interval already sensed the current field after its
  // solve (the field does not change between steps), so the gather is
  // only needed on the very first interval.
  if (!sensed_fresh_) sense_current();
  tail_decide();
  tail_apply();
  tail_power();
  const auto t1 = std::chrono::steady_clock::now();
  thermal_->step();
  const auto t2 = std::chrono::steady_clock::now();
  sense_current();
  finish_metrics();
  const auto t3 = std::chrono::steady_clock::now();
  tail_seconds_ += seconds_between(t0, t1) + seconds_between(t2, t3);
  solve_seconds_ += seconds_between(t1, t2);
}

bool SimulationSession::tail_begin() {
  if (done()) return false;
  const double now = steps_done_ * cfg_.control_dt;

  // 1. Workload demands and load balancing.
  for (int t = 0; t < trace_.threads(); ++t) {
    thread_demand_[t] = trace_.sample(t, now);
  }
  scheduler_.balance_into(thread_demand_, core_demand_);
  std::copy(core_demand_.begin(), core_demand_.end(),
            in_.core_demands.begin());
  return true;
}

void SimulationSession::sense_current() {
  const std::span<const double> temps = thermal_->temperatures();
  for (int c = 0; c < n_cores_; ++c) {
    in_.core_temps[c] = soc_.core_temp(temps, c);
  }
  sensed_fresh_ = true;
}

void SimulationSession::tail_decide() {
  // 2. Policy decision from the current sensors.
  policy_.decide_into(in_, act_);
  require(static_cast<int>(act_.vf_levels.size()) == n_cores_,
          "simulate: policy returned wrong vf_levels size");
}

void SimulationSession::tail_apply() {
  if (liquid_ && act_.pump_level >= 0 && act_.pump_level != pump_level_) {
    pump_level_ = act_.pump_level;
    apply_pump(soc_, cfg_.pump, pump_level_);
  }

  // 3. Execution model: capacity clipping and busy fractions.
  for (int c = 0; c < n_cores_; ++c) {
    const double capacity = soc_.chip().vf.speed_scale(act_.vf_levels[c]);
    const double demand = core_demand_[c];
    const double executed = std::min(demand, capacity);
    cores_[c].vf_level = act_.vf_levels[c];
    cores_[c].busy = capacity > 0.0 ? executed / capacity : 0.0;
    offered_[c] = demand * cfg_.control_dt;
    lost_[c] = (demand - executed) * cfg_.control_dt;
  }
}

void SimulationSession::tail_power() {
  // 4. Power (leakage from the current temperature field); the thermal
  //    step follows.
  soc_.element_powers_into(cores_, thermal_->temperatures(),
                           soc_.model().element_powers_writable());
  soc_.model().commit_element_powers();
}

void SimulationSession::finish_metrics() {
  // 5. Metrics: the work addends tail_apply() left, the post-solve
  //    sensor gather, and this interval's energies.
  IntervalAddends a;
  a.offered = offered_;
  a.lost = lost_;
  a.tcore = in_.core_temps;
  a.chip = soc_.model().total_power() * cfg_.control_dt;
  a.pump_on = liquid_ && pump_level_ >= 0;
  if (a.pump_on) {
    a.pump = cfg_.pump.power(pump_level_, soc_.model().n_cavities()) *
             cfg_.control_dt;
    a.flow = cfg_.pump.flow_per_cavity(pump_level_) / cfg_.pump.q_max();
  }
  add_interval(m_, a, cfg_.control_dt, flow_fraction_acc_);
  ++steps_done_;
  if (replay_.armed()) replay_post_step(a);
}

void SimulationSession::replay_post_step(const IntervalAddends& a) {
  replay_.note_real_step();
  if (replay_.journaling()) replay_.journal_interval(a);
  if (steps_done_ % replay_.period_steps() != 0) return;
  const int second =
      static_cast<int>(std::llround(steps_done_ * cfg_.control_dt));
  replay_.on_boundary(thermal_->temperatures(), replay_fingerprint(),
                      second, scheduler_.migrations());
}

std::uint64_t SimulationSession::replay_fingerprint() const {
  // Everything beyond the temperature field (compared bitwise in full)
  // whose values feed future closed-loop arithmetic. Monotonic counters
  // (migrations, solver stats, predictor hits) are excluded by design:
  // they are journaled/credited, never read back into the loop.
  std::uint64_t h = kFnvOffsetBasis;
  h = fnv1a(h, std::span<const int>(scheduler_.placement()));
  h = fnv1a(h, pump_level_);
  for (const arch::CoreState& c : cores_) {
    h = fnv1a(h, c.busy);
    h = fnv1a(h, c.vf_level);
  }
  h = fnv1a(h, std::span<const double>(in_.core_temps));
  h = fnv1a(h, std::span<const double>(in_.core_demands));
  h = fnv1a(h, std::span<const int>(act_.vf_levels));
  h = fnv1a(h, act_.pump_level);
  h = fnv1a(h, std::span<const double>(thread_demand_));
  h = fnv1a(h, std::span<const double>(core_demand_));
  h = fnv1a(h, soc_.model().element_powers());
  for (int cav = 0; cav < soc_.model().n_cavities(); ++cav) {
    h = fnv1a(h, soc_.model().cavity_flow(cav));
  }
  // The fold returned true at arm time; the policy is the same object,
  // so it keeps returning true — the call only mixes in its state.
  policy_.fold_replay_state(h);
  return h;
}

int SimulationSession::replay_fast_forward(double t_limit) {
  if (!replay_.can_fast_forward() || done()) return 0;
  const int period_steps = replay_.period_steps();
  const int period_s = replay_.period_seconds();
  int second =
      static_cast<int>(std::llround(steps_done_ * cfg_.control_dt));
  // One whole cycle is allowed when (a) it fits the run, (b) every step
  // of it would still pass run_until's loop condition — the binding one
  // is the last, at time (steps_done + P - 1) * dt — and (c) the trace
  // window ahead is bitwise the journaled window (the [T, T+L] span the
  // cycle's steps interpolate over; clamped compare near the trace end).
  const auto cycle_allowed = [&] {
    if (steps_done_ + period_steps > total_steps_) return false;
    const double last_time = (steps_done_ + period_steps - 1) *
                             cfg_.control_dt;
    if (!(last_time + 1e-12 < t_limit)) return false;
    return trace_.windows_equal(second, replay_.journal_base_second(),
                                period_s);
  };
  if (!cycle_allowed()) return 0;
  obs::TraceSpan span("session/replay");
  int taken = 0;
  do {
    replay_.apply_cycle(m_, cfg_.control_dt, flow_fraction_acc_);
    scheduler_.credit_migrations(replay_.journal_migrations());
    thermal_->advance_time_steps(period_steps);
    steps_done_ += period_steps;
    second += period_s;
    taken += period_steps;
    replay_.note_fast_forward();
  } while (cycle_allowed());
  return taken;
}

int SimulationSession::run_until(double t_sim) {
  int taken = 0;
  while (!done() && time() + 1e-12 < t_sim) {
    taken += replay_fast_forward(t_sim);
    if (done() || !(time() + 1e-12 < t_sim)) break;
    step();
    ++taken;
  }
  return taken;
}

int SimulationSession::run_to_end(const std::atomic<bool>* stop) {
  int taken = 0;
  while (!done()) {
    taken += replay_fast_forward();
    if (done() || (stop && stop->load(std::memory_order_relaxed))) break;
    step();
    ++taken;
  }
  return taken;
}

SimMetrics SimulationSession::metrics() const {
  SimMetrics m = m_;
  m.migrations = scheduler_.migrations();
  m.avg_flow_fraction =
      liquid_ && steps_done_ > 0 ? flow_fraction_acc_ / steps_done_ : 0.0;
  return m;
}

const sparse::SolverStats& SimulationSession::solver_stats() const {
  return thermal_->solver_stats();
}

std::uint64_t SimulationSession::flow_updates() const {
  return thermal_->system_operator().flow_updates();
}

std::span<const double> SimulationSession::temperatures() const {
  return thermal_->temperatures();
}

double SimulationSession::core_temp(int core) const {
  return soc_.core_temp(thermal_->temperatures(), core);
}

double SimulationSession::max_core_temp() const {
  return soc_.max_core_temp(thermal_->temperatures());
}

SimMetrics simulate(arch::Mpsoc3D& soc, const power::UtilizationTrace& trace,
                    control::ThermalPolicy& policy,
                    const SimulationConfig& cfg) {
  SimulationSession session(soc, trace, policy, cfg);
  session.run_to_end();
  return session.metrics();
}

}  // namespace tac3d::sim
