#pragma once
/// \file workloads.hpp
/// \brief The benchmark's four workloads. Each one builds its inputs
/// from the run seed, sets up, measures for the requested seconds and
/// returns raw samples; with tracing on it instead splits the time into
/// an untraced and a traced pass and adds the per-layer record.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "support.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
};

/// Oracle key of a scenario's outputs.
std::string scenario_key(const tac3d::sim::Scenario& s);

RunRecord run_paper_sweep(const RunOptions& opt);
RunRecord run_long_horizon(const RunOptions& opt);
RunRecord run_periodic_replay(const RunOptions& opt);
RunRecord run_service_openloop(const RunOptions& opt);

/// Every scenario a workload can run for any seed, for the reference.
std::vector<tac3d::sim::Scenario> paper_sweep_pool();
std::vector<tac3d::sim::Scenario> long_horizon_pool();
std::vector<tac3d::sim::Scenario> periodic_replay_pool();
std::vector<tac3d::sim::Scenario> service_pool();

}  // namespace perfbench
