#pragma once
/// \file bank.hpp
/// \brief ScenarioBank: keyed compilation cache that makes design-space
/// sweeps construction-free.
///
/// Every scenario of a sweep used to re-synthesize its trace,
/// re-assemble its Mpsoc3D/RcModel and re-solve the leakage-consistent
/// initial steady state — and after PR 3 made stepping ~25x faster, that
/// construction work dominated sweep wall time. A ScenarioBank compiles
/// each scenario once into three tiers of shareable artifacts (see
/// sim/prepared.hpp for the exact keys):
///
///   trace tier   one immutable power::UtilizationTrace per synthesis key
///                (the one place traces are deduplicated: a
///                ScenarioMatrix attaches none)
///   model tier   a pristine Mpsoc3D prototype (deep-cloned per
///                scenario) and the SymbolicStructure of its conductance
///                pattern (RCM, band extents, ILU(0) schedule, sliced
///                layout; shared by the steady solve and every session's
///                transient solver)
///   steady tier  the InitialThermalState of the leakage-consistent
///                fixed point, applied as a vector copy
///
/// prepare() is thread-safe (sweep workers share one bank); equal keys
/// build once and everyone else waits, distinct keys build concurrently.
/// Sharing is bitwise-neutral by construction: a prepared session steps
/// arithmetic identical to from-scratch materialization
/// (test_scenario_bank asserts this across solver kinds, serial and
/// parallel). A bank handed to several sweeps keeps its artifacts warm
/// across them — the steady-state regime of repeated design-space
/// exploration, where per-scenario setup collapses to a clone and two
/// vector copies.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "sim/prepared.hpp"

namespace tac3d::sim {

/// Per-tier hit/miss counters: a "miss" built the artifact. They are
/// exact under concurrency, since one request per key builds it and the
/// others wait for it and count as hits. Scenarios
/// carrying their own usable trace bypass the trace tier entirely and
/// are not counted — the counters report cache behavior, not
/// pass-throughs.
struct BankCounters {
  std::uint64_t trace_hits = 0;
  std::uint64_t trace_misses = 0;
  std::uint64_t model_hits = 0;
  std::uint64_t model_misses = 0;
  std::uint64_t steady_hits = 0;
  std::uint64_t steady_misses = 0;

  std::uint64_t hits() const { return trace_hits + model_hits + steady_hits; }
  std::uint64_t misses() const {
    return trace_misses + model_misses + steady_misses;
  }
};

/// Thread-safe scenario compilation cache.
class ScenarioBank {
 public:
  /// Compile \p spec: resolve the label, attach the shared trace, clone
  /// the model prototype and fill the instance's shared set-up with the
  /// model's symbolic structure and the cached initial state. The
  /// returned instance owns or co-owns everything its session reads, so
  /// it may outlive the bank.
  ScenarioInstance prepare(const Scenario& spec);

  BankCounters counters() const;

  /// Distinct artifacts currently cached per tier.
  std::size_t trace_entries() const;
  std::size_t model_entries() const;
  std::size_t steady_entries() const;

  /// Has some prepare() already requested this steady-tier key (see
  /// scenario_steady_key)? Lets schedulers cost equal-keyed scenarios
  /// as clone-and-reset even on the first sweep against a warm bank.
  bool has_steady(const std::string& key) const;

 private:
  struct TraceSlot {
    std::once_flag once;
    std::shared_ptr<const power::UtilizationTrace> value;
  };
  struct ModelSlot {
    std::once_flag once;
    std::unique_ptr<const arch::Mpsoc3D> prototype;
    /// Symbolic analysis of the prototype's conductance pattern.
    std::shared_ptr<const sparse::SymbolicStructure> structure;
  };
  struct SteadySlot {
    std::once_flag once;
    std::shared_ptr<const InitialThermalState> value;
  };

  template <typename Slot>
  std::shared_ptr<Slot> slot(
      std::unordered_map<std::string, std::shared_ptr<Slot>>& map,
      const std::string& key);

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<TraceSlot>> traces_;
  std::unordered_map<std::string, std::shared_ptr<ModelSlot>> models_;
  std::unordered_map<std::string, std::shared_ptr<SteadySlot>> steadies_;

  std::atomic<std::uint64_t> trace_hits_{0}, trace_misses_{0};
  std::atomic<std::uint64_t> model_hits_{0}, model_misses_{0};
  std::atomic<std::uint64_t> steady_hits_{0}, steady_misses_{0};
};

}  // namespace tac3d::sim
