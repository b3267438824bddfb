#include "sim/prepared.hpp"

#include <bit>
#include <cstdint>
#include <sstream>

#include "arch/niagara.hpp"
#include "common/fnv.hpp"
#include "power/workloads.hpp"

namespace tac3d::sim {

namespace {

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

/// Exact textual encoding of a double (hex of its bit pattern): two
/// fields compare equal iff the doubles are bitwise identical, which is
/// the sharing contract of the bank tiers.
std::string bits(double v) { return hex(std::bit_cast<std::uint64_t>(v)); }

/// FNV-1a over the raw sample bits of an explicit trace. Keys by
/// content, so the fingerprint is stable across separately built
/// scenario lists that attached equal traces (synthesis is deterministic
/// in its axes) and distinct for any custom trace that differs in a
/// single bit.
std::string trace_fingerprint(const power::UtilizationTrace& t) {
  std::uint64_t h =
      fnv1a(kFnvOffsetBasis, static_cast<std::uint64_t>(t.threads()));
  h = fnv1a(h, static_cast<std::uint64_t>(t.seconds()));
  for (int th = 0; th < t.threads(); ++th) {
    for (int s = 0; s < t.seconds(); ++s) h = fnv1a(h, t.at(th, s));
  }
  return hex(h);
}

/// FNV-1a over only the t=0 sample column. The initial steady state
/// consumes nothing else of the trace (compute_initial_state balances
/// the t=0 demand), so the steady tier keys attached traces by this
/// coarser fingerprint: scenarios differing only in later trace content
/// share the cached steady solve.
std::string trace_t0_fingerprint(const power::UtilizationTrace& t) {
  std::uint64_t h =
      fnv1a(kFnvOffsetBasis, static_cast<std::uint64_t>(t.threads()));
  for (int th = 0; th < t.threads(); ++th) h = fnv1a(h, t.sample(th, 0.0));
  return hex(h);
}

}  // namespace

bool scenario_trace_usable(const Scenario& s) {
  return s.trace != nullptr &&
         s.trace->threads() ==
             arch::NiagaraConfig::paper().hardware_threads();
}

std::string scenario_trace_key(const Scenario& s) {
  if (scenario_trace_usable(s)) {
    // Explicit trace: content-keyed, so equal attached traces collapse
    // even across separately built scenario lists.
    return "trace#" + s.trace->name() + "|thr=" +
           std::to_string(s.trace->threads()) + "|len=" +
           std::to_string(s.trace->seconds()) + "|h=" +
           trace_fingerprint(*s.trace);
  }
  // No trace attached — or one the chip cannot use (thread-count
  // mismatch), which instantiate() ignores in favor of synthesis; key by
  // the synthesis axes so the bank does exactly the same.
  return "trace:" + power::workload_name(s.workload) +
         "|seed=" + std::to_string(s.seed) +
         "|len=" + std::to_string(s.trace_seconds);
}

std::string scenario_model_key(const Scenario& s) {
  const thermal::GridOptions& g = s.grid;
  return "model:tiers=" + std::to_string(s.tiers) + "|cool=" +
         std::to_string(static_cast<int>(s.effective_cooling())) +
         "|grid=" + std::to_string(g.rows) + "x" + std::to_string(g.cols) +
         "|disc=" + std::to_string(g.discrete_channels ? 1 : 0) +
         "|xr=" + std::to_string(g.x_refine) +
         "|zr=" + std::to_string(g.z_refine);
}

std::string scenario_steady_key(const Scenario& s) {
  // Initial flow: liquid stacks start at the pump's maximum level; air
  // stacks carry no flow (marker distinct from any real rate).
  const bool liquid =
      s.effective_cooling() == arch::CoolingKind::kLiquidCooled;
  const std::string flow =
      liquid ? bits(s.sim.pump.flow_per_cavity(s.sim.pump.levels() - 1))
             : "air";
  // Only the t=0 demand enters the initial steady solve, so a usable
  // attached trace is keyed by its t=0 sample column alone — scenarios
  // whose traces diverge later still share the cached solve. Synthesized
  // traces keep the full synthesis-axes key: their t=0 content is a
  // function of (workload, seed, length) that is unknown until the trace
  // tier builds them.
  const std::string trace_part =
      scenario_trace_usable(s)
          ? "t0#thr=" + std::to_string(s.trace->threads()) + "|h=" +
                trace_t0_fingerprint(*s.trace)
          : scenario_trace_key(s);
  return "steady:" + scenario_model_key(s) + "|" + trace_part +
         "|q=" + flow + "|init=" + std::to_string(s.sim.init_iterations);
}

}  // namespace tac3d::sim
