#pragma once
/// \file workloads.hpp
/// \brief Synthetic workload-trace generators.
///
/// The paper collected traces from real applications (web server,
/// database management, multimedia processing) on an UltraSPARC T1; the
/// raw traces are not available, so these generators synthesize traces
/// with the same statistical shape at the same 1 s granularity (see
/// DESIGN.md "Substitutions"). All generators are deterministic in the
/// seed.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "power/trace.hpp"

namespace tac3d::power {

/// Workload families used in the paper's evaluation.
enum class WorkloadKind {
  kWebServer,   ///< bursty, medium average utilization
  kDatabase,    ///< steady-high with slow phase changes
  kMultimedia,  ///< periodic frame-processing load
  kMixed,       ///< half web, half database threads
  kMaxUtil,     ///< all threads near 100% (worst case)
  kIdle,        ///< near-zero background
  /// Exactly periodic frame loop: one noisy per-thread pattern of
  /// kPeriodicWorkloadSeconds, stored once and tiled over the whole
  /// trace (UtilizationTrace::tiled; period_hint() finds it).
  /// kMultimedia is *statistically* periodic but never repeats samples
  /// exactly; this kind models a steady-state frame pipeline whose
  /// per-frame load is literally the same every frame — the workload
  /// shape the limit-cycle replay fast-forward (sim/replay.hpp) engages
  /// on. Not part of average_case_workloads().
  kPeriodic,
};

/// Tiled pattern length [s] of WorkloadKind::kPeriodic.
inline constexpr int kPeriodicWorkloadSeconds = 12;

/// Human-readable name ("web", "db", ...).
std::string workload_name(WorkloadKind kind);

/// Generate a trace of \p kind for \p threads hardware threads over
/// \p seconds.
UtilizationTrace generate_workload(WorkloadKind kind, int threads,
                                   int seconds, std::uint64_t seed);

/// generate_workload() wrapped in a shared immutable handle, so one
/// synthesized trace can back every scenario that shares its
/// (kind, threads, seconds, seed) — the trace tier of sim/bank.hpp hands
/// these out, and instantiate() holds its own one the same way.
std::shared_ptr<const UtilizationTrace> shared_workload(WorkloadKind kind,
                                                        int threads,
                                                        int seconds,
                                                        std::uint64_t seed);

/// The average-case workload set of the evaluation (web, db, multimedia,
/// mixed) — Fig. 6/7 report averages across these.
std::vector<WorkloadKind> average_case_workloads();

}  // namespace tac3d::power
