#include "sim/bank.hpp"

#include "arch/niagara.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "power/workloads.hpp"
#include "sparse/symbolic.hpp"

namespace tac3d::sim {

namespace {
/// Registry mirrors of the bank's tier counters: same increment
/// sites, uniform "bank/<tier>_{hits,misses}" names for snapshots
/// and the service metrics stream.
obs::Counter& tier_counter(int tier, bool hit) {
  static obs::Counter trace_hits("bank/trace_hits");
  static obs::Counter trace_misses("bank/trace_misses");
  static obs::Counter model_hits("bank/model_hits");
  static obs::Counter model_misses("bank/model_misses");
  static obs::Counter steady_hits("bank/steady_hits");
  static obs::Counter steady_misses("bank/steady_misses");
  obs::Counter* all[3][2] = {{&trace_misses, &trace_hits},
                             {&model_misses, &model_hits},
                             {&steady_misses, &steady_hits}};
  return *all[tier][hit ? 1 : 0];
}
}  // namespace

template <typename Slot>
std::shared_ptr<Slot> ScenarioBank::slot(
    std::unordered_map<std::string, std::shared_ptr<Slot>>& map,
    const std::string& key) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<Slot>& s = map[key];
  if (s == nullptr) s = std::make_shared<Slot>();
  return s;
}

ScenarioInstance ScenarioBank::prepare(const Scenario& spec) {
  obs::TraceSpan prepare_span("bank/prepare");
  ScenarioInstance p;
  p.spec = spec;
  if (p.spec.label.empty()) p.spec.label = scenario_label(p.spec);
  // Keys of the scenario as handed in — before the synthesized trace is
  // attached below — so external key computations over the same list
  // (the sweep scheduler's has_steady probe, tests) agree with the
  // tiers that get populated.
  const std::string steady_key = scenario_steady_key(p.spec);

  // --- trace tier --------------------------------------------------------
  if (scenario_trace_usable(p.spec)) {
    // Explicit chip-compatible trace: already materialized, passed
    // through without consulting the tier (and without counting — the
    // hit/miss counters report cache behavior, not pass-throughs).
    p.trace = p.spec.trace;
  } else {
    // No attached trace, or one instantiate() would ignore (thread-count
    // mismatch): synthesize from the axes, exactly like the bank-off
    // path, so bank on/off stay result-identical.
    obs::TraceSpan tier_span("bank/trace_tier");
    const auto ts = slot(traces_, scenario_trace_key(p.spec));
    bool built = false;
    std::call_once(ts->once, [&] {
      ts->value = power::shared_workload(
          p.spec.workload, arch::NiagaraConfig::paper().hardware_threads(),
          p.spec.trace_seconds, p.spec.seed);
      built = true;
    });
    (built ? trace_misses_ : trace_hits_)
        .fetch_add(1, std::memory_order_relaxed);
    tier_counter(0, !built).add();
    p.trace = ts->value;
    p.spec.trace = ts->value;  // downstream consumers share it too
  }

  // --- model tier --------------------------------------------------------
  const auto ms = slot(models_, scenario_model_key(p.spec));
  {
    obs::TraceSpan model_span("bank/model_tier");
    bool built = false;
    std::call_once(ms->once, [&] {
      ms->prototype = std::make_unique<const arch::Mpsoc3D>(
          arch::Mpsoc3D::Options{p.spec.tiers, p.spec.effective_cooling(),
                                 p.spec.grid, arch::NiagaraConfig::paper()});
      // The operators' pattern is the conductance's, so this one analysis
      // serves the steady solve and every session of the key.
      ms->structure =
          sparse::analyze_structure(ms->prototype->model().conductance());
      built = true;
    });
    (built ? model_misses_ : model_hits_)
        .fetch_add(1, std::memory_order_relaxed);
    tier_counter(1, !built).add();
  }
  p.soc = std::make_unique<arch::Mpsoc3D>(*ms->prototype);
  p.shared_.structure = ms->structure;

  // --- steady tier -------------------------------------------------------
  {
    obs::TraceSpan steady_span("bank/steady_tier");
    const auto ss = slot(steadies_, steady_key);
    bool built = false;
    std::call_once(ss->once, [&] {
      // Computed on this scenario's own clone — the identical arithmetic
      // a from-scratch session would run, so the cached vectors are
      // bitwise equal to what any equal-keyed session would solve.
      ss->value = std::make_shared<const InitialThermalState>(
          compute_initial_state(*p.soc, *p.trace, p.spec.sim,
                                ms->structure));
      built = true;
    });
    (built ? steady_misses_ : steady_hits_)
        .fetch_add(1, std::memory_order_relaxed);
    tier_counter(2, !built).add();
    p.shared_.initial = ss->value;
  }

  p.policy = make_policy(p.spec.policy, *p.soc, p.spec.sim.pump);
  return p;
}

BankCounters ScenarioBank::counters() const {
  BankCounters c;
  c.trace_hits = trace_hits_.load(std::memory_order_relaxed);
  c.trace_misses = trace_misses_.load(std::memory_order_relaxed);
  c.model_hits = model_hits_.load(std::memory_order_relaxed);
  c.model_misses = model_misses_.load(std::memory_order_relaxed);
  c.steady_hits = steady_hits_.load(std::memory_order_relaxed);
  c.steady_misses = steady_misses_.load(std::memory_order_relaxed);
  return c;
}

std::size_t ScenarioBank::trace_entries() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return traces_.size();
}

std::size_t ScenarioBank::model_entries() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return models_.size();
}

std::size_t ScenarioBank::steady_entries() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return steadies_.size();
}

bool ScenarioBank::has_steady(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return steadies_.find(key) != steadies_.end();
}

}  // namespace tac3d::sim
