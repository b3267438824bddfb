// The benchmark program: runs one workload and writes its raw record (samples,
// counters, per-scenario outputs) as JSON for run.py, or writes the
// reference outputs of a workload's whole scenario pool.
//
//   tac3d_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --out RECORD.json [--trace-file TRACE.json]
//   tac3d_perfbench --reference NAME --out REFERENCE.json
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "sim/sweep.hpp"
#include "workloads.hpp"

namespace perfbench {

std::string scenario_key(const tac3d::sim::Scenario& s) {
  return tac3d::sim::scenario_label(s);
}

namespace {

using namespace tac3d;

struct Workload {
  RunRecord (*run)(const RunOptions&);
  std::vector<sim::Scenario> (*pool)();
};

const std::map<std::string, Workload>& workloads() {
  static const std::map<std::string, Workload> w = {
      {"paper_sweep", {run_paper_sweep, paper_sweep_pool}},
      {"long_horizon", {run_long_horizon, long_horizon_pool}},
      {"periodic_replay", {run_periodic_replay, periodic_replay_pool}},
      {"service_openloop", {run_service_openloop, service_pool}},
  };
  return w;
}

/// The reference path: bank off, structure sharing off, batch width 1,
/// replay off, one job.
std::vector<RunRecord::Output> reference_outputs(
    std::vector<sim::Scenario> pool) {
  for (sim::Scenario& s : pool) s.sim.limit_cycle_replay = false;
  sim::SweepOptions opts;
  opts.jobs = 1;
  opts.use_bank = false;
  opts.share_structures = false;
  opts.batch_width = 1;
  const sim::SweepReport report = sim::run_sweep(pool, opts);
  if (!report.all_ok()) {
    throw std::runtime_error("reference path failed: " +
                             report.errors().front());
  }
  std::vector<RunRecord::Output> out;
  for (const sim::SweepResult& r : report.results()) {
    out.push_back({scenario_key(r.scenario), r.metrics});
  }
  return out;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path);
}

/// Each of these switches the code path being timed (worker count, the
/// scalar tail, library tracing, registry publication).
bool environment_clean() {
  bool clean = true;
  for (const char* var :
       {"TAC3D_JOBS", "TAC3D_SCALAR_TAIL", "TAC3D_TRACE", "TAC3D_METRICS"}) {
    if (std::getenv(var) != nullptr) {
      std::cerr << "tac3d_perfbench: refusing to run with " << var
                << " set; unset it\n";
      clean = false;
    }
  }
  return clean;
}

int usage() {
  std::cerr << "usage: tac3d_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out RECORD.json [--trace-file TRACE.json]\n"
               "       tac3d_perfbench --reference NAME --out REFERENCE.json\n";
  return 2;
}

int run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0 || !args.count("out")) return usage();
  if (!environment_clean()) return 2;

  if (args.count("reference")) {
    const auto it = workloads().find(args["reference"]);
    if (it == workloads().end()) return usage();
    write_file(args["out"],
               reference_json(it->first, reference_outputs(it->second.pool())));
    return 0;
  }

  const auto it = workloads().find(args["workload"]);
  if (it == workloads().end() || !args.count("seed") ||
      !args.count("seconds") || !args.count("trace")) {
    return usage();
  }
  RunOptions opt;
  opt.seed = std::stoull(args["seed"]);
  opt.seconds = std::stod(args["seconds"]);
  opt.traced = args["trace"] == "1";
  if (!(opt.seconds > 0.0)) return usage();

  const RunRecord rec = it->second.run(opt);
  if (opt.traced && args.count("trace-file")) {
    trace::write_chrome_trace(args["trace-file"]);
  }
  write_file(args["out"], to_json(rec, it->first, opt.seed, opt.traced));
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "tac3d_perfbench: " << e.what() << '\n';
    return 1;
  }
}
