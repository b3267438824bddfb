#include "power/workloads.hpp"

#include <algorithm>
#include <vector>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace tac3d::power {

namespace {

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

void fill_web(UtilizationTrace& tr, Rng& rng) {
  // Flash crowds hit every thread at once; individual requests add
  // per-thread bursts on top.
  std::vector<double> crowd(tr.seconds(), 0.0);
  {
    int left = 0;
    double amp = 0.0;
    for (int t = 0; t < tr.seconds(); ++t) {
      if (left == 0 && rng.uniform() < 0.03) {
        left = 8 + static_cast<int>(rng.uniform_index(20));
        amp = rng.uniform(0.35, 0.55);
      }
      if (left > 0) {
        crowd[t] = amp;
        --left;
      }
    }
  }
  for (int th = 0; th < tr.threads(); ++th) {
    const double base = rng.uniform(0.30, 0.45);
    int burst_left = 0;
    double burst_amp = 0.0;
    for (int t = 0; t < tr.seconds(); ++t) {
      if (burst_left == 0 && rng.uniform() < 0.04) {
        burst_left = 4 + static_cast<int>(rng.uniform_index(12));
        burst_amp = rng.uniform(0.25, 0.45);
      }
      double u = base + crowd[t] + rng.normal(0.0, 0.04);
      if (burst_left > 0) {
        u += burst_amp;
        --burst_left;
      }
      tr.set(th, t, clamp01(u));
    }
  }
}

void fill_database(UtilizationTrace& tr, Rng& rng) {
  // Query load is system-wide: a shared phase drives all threads, with
  // small per-thread offsets (different query mixes).
  std::vector<double> global(tr.seconds(), 0.0);
  double phase = rng.uniform(0.65, 0.85);
  for (int t = 0; t < tr.seconds(); ++t) {
    if (t % 30 == 0 && t > 0) {
      phase = std::clamp(phase + rng.uniform(-0.15, 0.17), 0.55, 0.99);
    }
    global[t] = phase;
  }
  for (int th = 0; th < tr.threads(); ++th) {
    const double offset = rng.uniform(-0.05, 0.05);
    for (int t = 0; t < tr.seconds(); ++t) {
      tr.set(th, t, clamp01(global[t] + offset + rng.normal(0.0, 0.04)));
    }
  }
}

void fill_multimedia(UtilizationTrace& tr, Rng& rng) {
  for (int th = 0; th < tr.threads(); ++th) {
    const double period = rng.uniform(8.0, 12.0);
    const double offset = rng.uniform(0.0, period);
    for (int t = 0; t < tr.seconds(); ++t) {
      const double s = std::sin(2.0 * M_PI * (t + offset) / period);
      const double u = 0.74 + 0.16 * (s > 0.0 ? 1.0 : -1.0) +
                       rng.normal(0.0, 0.03);
      tr.set(th, t, clamp01(u));
    }
  }
}

void fill_max(UtilizationTrace& tr, Rng& rng) {
  for (int th = 0; th < tr.threads(); ++th) {
    for (int t = 0; t < tr.seconds(); ++t) {
      tr.set(th, t, clamp01(0.99 + rng.normal(0.0, 0.005)));
    }
  }
}

UtilizationTrace periodic_trace(int threads, int seconds, Rng& rng) {
  // One noisy sinusoidal frame pattern per thread (distinct phases and
  // noise), stored once and tiled: every repetition reads the same
  // doubles, so the trace is bitwise periodic at kPeriodicWorkloadSeconds
  // even though each period looks as irregular as a kMultimedia window.
  const int period = std::min(kPeriodicWorkloadSeconds, seconds);
  UtilizationTrace block(workload_name(WorkloadKind::kPeriodic), threads,
                         period);
  for (int th = 0; th < threads; ++th) {
    const double offset = rng.uniform(0.0, static_cast<double>(period));
    for (int t = 0; t < period; ++t) {
      const double s = std::sin(2.0 * M_PI * (t + offset) / period);
      block.set(th, t, clamp01(0.55 + 0.30 * s + rng.normal(0.0, 0.05)));
    }
  }
  return UtilizationTrace::tiled(std::move(block), seconds);
}

void fill_idle(UtilizationTrace& tr, Rng& rng) {
  for (int th = 0; th < tr.threads(); ++th) {
    for (int t = 0; t < tr.seconds(); ++t) {
      tr.set(th, t, clamp01(0.02 + std::abs(rng.normal(0.0, 0.01))));
    }
  }
}

}  // namespace

std::string workload_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kWebServer:
      return "web";
    case WorkloadKind::kDatabase:
      return "db";
    case WorkloadKind::kMultimedia:
      return "mmedia";
    case WorkloadKind::kMixed:
      return "mixed";
    case WorkloadKind::kMaxUtil:
      return "maxutil";
    case WorkloadKind::kIdle:
      return "idle";
    case WorkloadKind::kPeriodic:
      return "periodic";
  }
  throw InvalidArgument("workload_name: unknown kind");
}

UtilizationTrace generate_workload(WorkloadKind kind, int threads,
                                   int seconds, std::uint64_t seed) {
  Rng rng(seed ^ (static_cast<std::uint64_t>(kind) << 32));
  if (kind == WorkloadKind::kPeriodic) {
    return periodic_trace(threads, seconds, rng);
  }
  UtilizationTrace tr(workload_name(kind), threads, seconds);
  switch (kind) {
    case WorkloadKind::kWebServer:
      fill_web(tr, rng);
      break;
    case WorkloadKind::kDatabase:
      fill_database(tr, rng);
      break;
    case WorkloadKind::kMultimedia:
      fill_multimedia(tr, rng);
      break;
    case WorkloadKind::kMixed: {
      UtilizationTrace web = tr, db = tr;
      fill_web(web, rng);
      fill_database(db, rng);
      for (int th = 0; th < threads; ++th) {
        const UtilizationTrace& src = th < threads / 2 ? web : db;
        for (int t = 0; t < seconds; ++t) tr.set(th, t, src.at(th, t));
      }
      break;
    }
    case WorkloadKind::kMaxUtil:
      fill_max(tr, rng);
      break;
    case WorkloadKind::kIdle:
      fill_idle(tr, rng);
      break;
    case WorkloadKind::kPeriodic:  // returned above, stored once
      break;
  }
  return tr;
}

std::shared_ptr<const UtilizationTrace> shared_workload(WorkloadKind kind,
                                                        int threads,
                                                        int seconds,
                                                        std::uint64_t seed) {
  return std::make_shared<const UtilizationTrace>(
      generate_workload(kind, threads, seconds, seed));
}

std::vector<WorkloadKind> average_case_workloads() {
  return {WorkloadKind::kWebServer, WorkloadKind::kDatabase,
          WorkloadKind::kMultimedia, WorkloadKind::kMixed};
}

}  // namespace tac3d::power
