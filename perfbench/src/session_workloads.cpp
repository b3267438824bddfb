// long_horizon and periodic_replay: one SimulationSession at a time on
// one thread, set up from scratch (instantiate + constructor) and stepped
// to the end of a long trace, with first-result probes at even points of
// its run, repeated for the run's seconds.
//
//   long_horizon     4-tier LC_FUZZY on the aperiodic kMixed workload,
//                    default ILU(0) solver: per-step solves, flow
//                    refreshes, warm starts and the scalar control tail.
//   periodic_replay  2-tier LC_LB on kPeriodic with banded LU: limit-
//                    cycle replay and the banded factor cache.
//
// The traced pass drives the documented stage API (long_horizon) or
// reproduces run_until() as replay_fast_forward() + step()
// (periodic_replay) from outside, timing each call.
#include <algorithm>
#include <limits>

#include "sim/experiment.hpp"
#include "sparse/kernels.hpp"
#include "thermal/operator.hpp"
#include "thermal/transient.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace tac3d;

constexpr int kLongHorizonTraceSeconds = 100;
/// Each run cycles its sessions through these trace seeds, in an order
/// the run seed shuffles (untraced runs), so every run averages over the
/// same inputs.
const std::vector<std::uint64_t> kTraceSeeds = {1, 2, 3, 4};
constexpr int kPeriodicTraceSeconds = 24000;
/// Fixed TTFR limit of a session request: first control interval within
/// 2 s of asking for the session (set-up included).
constexpr double kSessionTtfrLimitMs = 2000.0;
/// First-result samples per session: its own and kFirstResultReps - 1
/// probes.
constexpr int kFirstResultReps = 5;

sim::Scenario long_horizon_scenario(std::uint64_t trace_seed) {
  sim::Scenario s;
  s.tiers = 4;
  s.policy = sim::PolicyKind::kLcFuzzy;
  s.workload = power::WorkloadKind::kMixed;
  s.seed = trace_seed;
  s.trace_seconds = kLongHorizonTraceSeconds;
  return s;
}

sim::Scenario periodic_scenario(std::uint64_t trace_seed) {
  sim::Scenario s;
  s.tiers = 2;
  s.policy = sim::PolicyKind::kLcLb;
  s.workload = power::WorkloadKind::kPeriodic;
  s.seed = trace_seed;
  s.trace_seconds = kPeriodicTraceSeconds;
  s.grid = thermal::GridOptions{8, 8};
  s.sim.solver = sparse::SolverKind::kBandedLu;
  return s;
}

/// The first-result probes of one session request: fresh sessions of
/// the same scenario, set up and stepped once at even points of the
/// request's run, so that a stall of the host moves at most the probes
/// it overlaps. The traced passes take them at the same points, so both
/// passes do the same work.
class Probes {
 public:
  Probes(const sim::Scenario& spec, const sim::SimulationSession& s)
      : spec_(spec), end_time_(s.total_steps() * spec.sim.control_dt) {}

  /// Simulated time of the next probe; infinity after the last one.
  double next_time() const {
    return taken_ + 1 < kFirstResultReps
               ? end_time_ * (taken_ + 1) / kFirstResultReps
               : std::numeric_limits<double>::infinity();
  }

  /// Take the next probe if \p s has reached its time. Returns the wall
  /// seconds it took, 0 when none was due.
  double take_due(const sim::SimulationSession& s) {
    if (s.time() < next_time()) return 0.0;
    ++taken_;
    const Clock::time_point t0 = Clock::now();
    {
      sim::ScenarioInstance inst = sim::instantiate(spec_);
      sim::SimulationSession probe = inst.session();
      setup_s.push_back(seconds_since(t0));
      probe.step();
      first_ms.push_back(seconds_since(t0) * 1e3);
    }
    return seconds_since(t0);
  }

  std::vector<double> first_ms;  ///< set-up plus first interval [ms]
  std::vector<double> setup_s;   ///< set-up alone [s]

 private:
  const sim::Scenario& spec_;
  double end_time_;
  int taken_ = 0;
};

/// Quantile of a request's samples that stands for the request: the first
/// quartile, not the median. When two of the host's four CPUs were
/// slowed, half of a request's samples were slow and its median jumped
/// between the fast and the slow times.
constexpr double kRequestQuantile = 0.25;

/// The samples of one request of a session workload. A run serves one
/// request per scenario of its cycle, by every session of that scenario;
/// the request's first- and last-result times are the kRequestQuantile
/// quantiles over its sessions and their probes, which are spread over
/// the whole run and over every CPU, so a slow spell of the host moves
/// few of any request's samples.
struct RequestSamples {
  std::vector<double> first_ms;
  std::vector<double> done_ms;
};

/// One untraced session: set up, first interval, run to end, serving
/// \p request. Every set-up is a set-up sample. \p overhead_sample
/// (optional) receives the seconds per step.
void plain_session(const sim::Scenario& spec, RunRecord& rec,
                   RequestSamples& request, const char* overhead_sample) {
  const Clock::time_point t0 = Clock::now();
  sim::ScenarioInstance inst = sim::instantiate(spec);
  sim::SimulationSession session = inst.session();
  const double setup = seconds_since(t0);
  Clock::time_point t1 = Clock::now();
  session.step();  // the first iteration of run_to_end(): nothing to replay
  double run = seconds_since(t1);
  int steps = 1;
  Probes probes(spec, session);
  probes.first_ms.push_back((setup + run) * 1e3);
  probes.setup_s.push_back(setup);
  while (!session.done()) {
    t1 = Clock::now();
    steps += session.run_until(probes.next_time());
    run += seconds_since(t1);
    probes.take_due(session);
  }

  std::vector<double>& setups = rec.samples["setup_s"];
  setups.insert(setups.end(), probes.setup_s.begin(), probes.setup_s.end());
  request.first_ms.insert(request.first_ms.end(), probes.first_ms.begin(),
                          probes.first_ms.end());
  request.done_ms.push_back((setup + run) * 1e3);
  rec.samples["steps_per_s"].push_back(steps / run);
  rec.samples["scenarios_per_s"].push_back(1.0 / run);
  if (overhead_sample != nullptr) {
    rec.layer_samples[overhead_sample].push_back(run / steps);
  }
  ++rec.attempted;
  ++rec.expected_outputs;
  rec.add_output(scenario_key(spec), session.metrics());
}

/// Exact work counters of one finished session.
void record_session_counters(const sim::SimulationSession& s,
                             RunRecord& rec) {
  auto& lv = rec.layer_values;
  const sparse::SolverStats& st = s.solver_stats();
  const thermal::TransientSolver& ts = s.thermal_solver();
  lv["sparse.solves"] = static_cast<double>(st.solves);
  lv["sparse.iterations"] = static_cast<double>(st.iterations);
  lv["sparse.iterations_per_solve"] =
      st.solves > 0 ? static_cast<double>(st.iterations) / st.solves : 0.0;
  lv["sparse.refactors"] = static_cast<double>(st.refactors);
  lv["sparse.partial_refactors"] = static_cast<double>(st.partial_refactors);
  lv["sparse.factor_cache_hits"] = static_cast<double>(st.factor_cache_hits);
  lv["sparse.retries"] = static_cast<double>(st.retries);
  lv["thermal.flow_updates"] = static_cast<double>(s.flow_updates());
  const std::uint64_t predicted = ts.predictor_hits() +
                                  ts.predictor_interpolations() +
                                  ts.predictor_fluid_jumps();
  lv["thermal.predictor_hit_ratio"] =
      s.flow_updates() > 0
          ? static_cast<double>(predicted) / s.flow_updates()
          : 0.0;
  lv["thermal.trajectory_hits"] = static_cast<double>(ts.trajectory_hits());
  lv["replay.cycles"] = static_cast<double>(s.replay_cycles());
  lv["replay.solves_skipped"] = static_cast<double>(s.replay_solves_skipped());
  lv["replay.steps_replayed_fraction"] =
      static_cast<double>(s.replay_steps()) / s.total_steps();
}

/// sparse::spmv on the session's own operator: time per nonzero, the
/// computed bytes one SpMV touches and that working set against L2.
void record_spmv(const sim::SimulationSession& s, RunRecord& rec) {
  trace::Span span("sparse/spmv");
  const sparse::CsrMatrix& a = s.thermal_solver().system_operator().matrix();
  const std::span<const double> t = s.temperatures();
  const std::vector<double> x(t.begin(), t.end());
  std::vector<double> y(x.size(), 0.0);
  const double nnz = static_cast<double>(a.nnz());
  const int reps = std::max(1, static_cast<int>(4e6 / nnz));
  for (int batch = 0; batch < 9; ++batch) {
    const Clock::time_point t0 = Clock::now();
    for (int r = 0; r < reps; ++r) sparse::spmv(a, x, y);
    rec.layer_samples["sparse.spmv_ns_per_nnz"].push_back(
        seconds_since(t0) * 1e9 / (reps * nnz));
  }
  // values + column indices + row pointers + x read + y written.
  const double n = static_cast<double>(a.rows());
  const double bytes = 12.0 * nnz + 4.0 * (n + 1.0) + 16.0 * n;
  rec.layer_values["sparse.spmv_bytes_computed"] = bytes;
  const long l2 = host_l2_bytes();
  rec.layer_values["sparse.spmv_working_set_l2_ratio"] =
      l2 > 0 ? bytes / static_cast<double>(l2) : 0.0;
}

/// long_horizon, traced: step through the stage API, one span per call.
void traced_stage_session(const sim::Scenario& spec, RunRecord& rec,
                          bool first_rep) {
  trace::Span setup_span("session/setup");
  sim::ScenarioInstance inst = sim::instantiate(spec);
  sim::SimulationSession session = inst.session();
  setup_span.close();
  auto& ls = rec.layer_samples;
  std::vector<double>& balance = ls["session.balance_us"];
  std::vector<double>& sense = ls["session.sense_us"];
  std::vector<double>& decide = ls["control.decide_us"];
  std::vector<double>& apply = ls["session.apply_us"];
  std::vector<double>& power = ls["power.update_us"];
  std::vector<double>& thermal = ls["thermal.step_us"];
  std::vector<double>& finish = ls["session.finish_us"];
  int pump_changes = 0;
  int pump_level = session.pump_level();
  Probes probes(spec, session);
  double probe_seconds = 0.0;
  const Clock::time_point t1 = Clock::now();
  while (!session.done()) {
    probe_seconds += probes.take_due(session);
    trace::Span step("session/step");
    trace::timed(balance, "session/balance", [&] { session.tail_begin(); });
    if (!session.sensed_fresh()) {
      trace::timed(sense, "session/sense", [&] { session.sense_current(); });
    }
    trace::timed(decide, "control/decide", [&] { session.tail_decide(); });
    trace::timed(apply, "session/apply", [&] { session.tail_apply(); });
    trace::timed(power, "power/update", [&] { session.tail_power(); });
    trace::timed(thermal, "thermal/step",
                 [&] { session.thermal_solver().step(); });
    // step_finish() is sense_current() + finish_metrics().
    trace::timed(sense, "session/sense", [&] { session.sense_current(); });
    trace::timed(finish, "session/finish", [&] { session.finish_metrics(); });
    step.close();
    if (session.pump_level() != pump_level) {
      ++pump_changes;
      pump_level = session.pump_level();
    }
  }
  const double run = seconds_since(t1) - probe_seconds;
  rec.layer_samples["trace.overhead.traced"].push_back(
      run / session.steps_done());
  ++rec.attempted;
  ++rec.expected_outputs;
  rec.add_output(scenario_key(spec), session.metrics());
  if (first_rep) {
    record_session_counters(session, rec);
    rec.layer_values["control.pump_changes"] = pump_changes;
    record_spmv(session, rec);
  }
}

/// periodic_replay, traced: run_until() between the probes as
/// replay_fast_forward() plus step(), with the fast-forward time and the
/// warm-up length.
void traced_replay_session(const sim::Scenario& spec, RunRecord& rec,
                           bool first_rep) {
  trace::Span setup_span("session/setup");
  sim::ScenarioInstance inst = sim::instantiate(spec);
  sim::SimulationSession session = inst.session();
  setup_span.close();
  double ff_seconds = 0.0;
  int warmup_steps = -1;
  Probes probes(spec, session);
  double probe_seconds = 0.0;
  const Clock::time_point t1 = Clock::now();
  while (!session.done()) {
    probe_seconds += probes.take_due(session);
    trace::Span ff("replay/fast_forward");
    const int replayed = session.replay_fast_forward(probes.next_time());
    ff_seconds += ff.close();
    if (replayed > 0 && warmup_steps < 0) {
      warmup_steps = session.steps_done() - replayed;
    }
    if (session.done() || session.time() >= probes.next_time()) continue;
    trace::Span step("session/step");
    session.step();
  }
  const double run = seconds_since(t1) - probe_seconds;
  rec.layer_samples["trace.overhead.traced"].push_back(
      run / session.steps_done());
  rec.layer_samples["replay.fast_forward_s"].push_back(ff_seconds);
  ++rec.attempted;
  ++rec.expected_outputs;
  rec.add_output(scenario_key(spec), session.metrics());
  if (first_rep) {
    record_session_counters(session, rec);
    rec.layer_values["replay.warmup_steps"] =
        warmup_steps < 0 ? session.steps_done() : warmup_steps;
  }
}

std::vector<sim::Scenario> seed_pool(sim::Scenario (*make)(std::uint64_t)) {
  std::vector<sim::Scenario> pool;
  for (const std::uint64_t seed : kTraceSeeds) pool.push_back(make(seed));
  return pool;
}

using TracedFn = void (*)(const sim::Scenario&, RunRecord&, bool);

RunRecord run_sessions(sim::Scenario (*make)(std::uint64_t),
                       const RunOptions& opt, TracedFn traced_session) {
  std::vector<sim::Scenario> specs = seed_pool(make);
  // A traced run keeps the pool order, so its exact counters are the
  // same for every seed.
  if (!opt.traced) {
    Rng rng(opt.seed);
    shuffle(specs, rng);
  }
  std::size_t next = 0;
  // Each session runs on the next CPU, shifted by one more per cycle of
  // the pool, so every request meets every CPU of the host.
  CpuRotation cpus;
  const auto spec = [&]() -> const sim::Scenario& {
    cpus.pin(next + next / specs.size());
    return specs[next++ % specs.size()];
  };
  RunRecord rec;
  rec.ttfr_limit_ms = kSessionTtfrLimitMs;
  const double untraced_budget = opt.traced ? opt.seconds / 2 : opt.seconds;
  std::vector<RequestSamples> requests(specs.size());
  repeat_for(untraced_budget, [&] {
    RequestSamples& request = requests[next % specs.size()];
    plain_session(spec(), rec, request,
                  opt.traced ? "trace.overhead.base" : nullptr);
  });
  for (const RequestSamples& r : requests) {
    if (!r.done_ms.empty()) {
      rec.requests.push_back({quantile(r.first_ms, kRequestQuantile),
                              quantile(r.done_ms, kRequestQuantile), true});
    }
  }
  if (!opt.traced) return rec;

  trace::start();
  const Clock::time_point t1 = Clock::now();
  next = 0;  // the traced pass starts the cycle afresh: exact counters
  bool first = true;
  repeat_for(opt.seconds / 2, [&] {
    traced_session(spec(), rec, first);
    first = false;
  });
  const double traced_wall = seconds_since(t1);
  trace::stop();
  for (const auto& [layer, s] : trace::self_seconds_by_layer()) {
    rec.layer_values["self." + layer] = s / traced_wall;
  }
  return rec;
}

}  // namespace

std::vector<sim::Scenario> long_horizon_pool() {
  return seed_pool(long_horizon_scenario);
}

std::vector<sim::Scenario> periodic_replay_pool() {
  return seed_pool(periodic_scenario);
}

RunRecord run_long_horizon(const RunOptions& opt) {
  return run_sessions(long_horizon_scenario, opt, traced_stage_session);
}

RunRecord run_periodic_replay(const RunOptions& opt) {
  return run_sessions(periodic_scenario, opt, traced_replay_session);
}

}  // namespace perfbench
