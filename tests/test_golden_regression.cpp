// Golden-reference regression suite: the paper's seven Fig. 6/7
// stack x policy configurations run as one sweep and every metric is
// compared against the recorded CSVs in tests/golden/. Numeric refactors
// of the solver stack (kernel fusion, set-up sharing, workspace
// reuse) must not drift the paper's results — the tolerances are tight
// enough to catch a single misplaced operation while absorbing
// last-digit libm differences across platforms.
//
// Refreshing the baselines after an *intentional* numeric change:
//   TAC3D_UPDATE_GOLDEN=1 ./test_golden_regression
// rewrites the CSVs in the source tree (build with the default
// TAC3D_GOLDEN_DIR pointing at tests/golden). Commit the diff together
// with the change that explains it.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/sweep.hpp"

#ifndef TAC3D_GOLDEN_DIR
#define TAC3D_GOLDEN_DIR "tests/golden"
#endif

namespace tac3d::sim {
namespace {

/// The canned configuration behind the golden files: the seven paper
/// cells on the max-utilization workload, sized to run in seconds.
/// Changing anything here invalidates the recorded baselines.
std::vector<Scenario> golden_scenarios() {
  return ScenarioMatrix::paper_fig67()
      .workloads({power::WorkloadKind::kMaxUtil})
      .trace_seconds(30)
      .grid(thermal::GridOptions{12, 12})
      .build();
}

struct GoldenRow {
  std::vector<double> values;
};

using GoldenTable = std::map<std::string, GoldenRow>;

std::string golden_path(const std::string& file) {
  return std::string(TAC3D_GOLDEN_DIR) + "/" + file;
}

/// Parse "label,v1,v2,..." CSV with one header line.
GoldenTable read_golden(const std::string& file,
                        std::vector<std::string>* header_out = nullptr) {
  std::ifstream in(golden_path(file));
  if (!in) return {};
  GoldenTable table;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::stringstream ss(line);
    std::string cell;
    std::vector<std::string> cells;
    while (std::getline(ss, cell, ',')) cells.push_back(cell);
    if (first) {
      first = false;
      if (header_out) *header_out = cells;
      continue;
    }
    GoldenRow row;
    for (std::size_t i = 1; i < cells.size(); ++i) {
      row.values.push_back(std::stod(cells[i]));
    }
    table[cells[0]] = std::move(row);
  }
  return table;
}

void write_golden(const std::string& file, const std::string& header,
                  const std::vector<std::pair<std::string,
                                              std::vector<double>>>& rows) {
  std::ofstream out(golden_path(file));
  ASSERT_TRUE(out) << "cannot write " << golden_path(file);
  out << header << "\n";
  out.precision(17);
  for (const auto& [label, values] : rows) {
    out << label;
    for (const double v : values) out << "," << v;
    out << "\n";
  }
}

/// Fig. 6 quantities: temperatures and hot-spot residency.
std::vector<double> hotspot_values(const SimMetrics& m) {
  return {m.peak_temp, m.hotspot_frac_any(), m.hotspot_frac_avg_core(),
          m.duration};
}
constexpr const char* kHotspotHeader =
    "label,peak_temp_k,hotspot_frac_any,hotspot_frac_avg_core,duration_s";

/// Fig. 7 quantities: energy split, pumping effort, policy counters.
std::vector<double> energy_values(const SimMetrics& m) {
  return {m.chip_energy, m.pump_energy, m.system_energy(),
          m.avg_flow_fraction, static_cast<double>(m.migrations),
          m.perf_degradation()};
}
constexpr const char* kEnergyHeader =
    "label,chip_energy_j,pump_energy_j,system_energy_j,avg_flow_fraction,"
    "migrations,perf_degradation";

/// Tight relative tolerance: far below any physical effect, far above
/// cross-platform last-digit libm drift accumulated over a run.
constexpr double kRelTol = 1e-6;

void expect_near_golden(double actual, double golden, const std::string& ctx) {
  const double tol = kRelTol * std::max(1.0, std::abs(golden));
  EXPECT_NEAR(actual, golden, tol) << ctx;
}

class GoldenRegression : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    report_ = new SweepReport(run_sweep(golden_scenarios(), {.jobs = 2}));
  }
  static void TearDownTestSuite() {
    delete report_;
    report_ = nullptr;
  }
  static SweepReport* report_;
};

SweepReport* GoldenRegression::report_ = nullptr;

bool update_mode() {
  const char* env = std::getenv("TAC3D_UPDATE_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

TEST_F(GoldenRegression, SweepCompletes) {
  ASSERT_NE(report_, nullptr);
  ASSERT_TRUE(report_->all_ok())
      << "golden sweep had failures: "
      << (report_->errors().empty() ? "" : report_->errors().front());
  ASSERT_EQ(report_->size(), 7u) << "the paper evaluates seven cells";
}

TEST_F(GoldenRegression, HotspotMetricsMatchGolden) {
  ASSERT_TRUE(report_->all_ok());
  if (update_mode()) {
    std::vector<std::pair<std::string, std::vector<double>>> rows;
    for (const SweepResult& r : report_->results()) {
      rows.emplace_back(r.scenario.label, hotspot_values(r.metrics));
    }
    write_golden("fig67_hotspots.csv", kHotspotHeader, rows);
    GTEST_SKIP() << "golden hotspot baselines rewritten";
  }
  const GoldenTable golden = read_golden("fig67_hotspots.csv");
  ASSERT_EQ(golden.size(), 7u)
      << "missing/incomplete " << golden_path("fig67_hotspots.csv")
      << " — regenerate with TAC3D_UPDATE_GOLDEN=1";
  for (const SweepResult& r : report_->results()) {
    const auto it = golden.find(r.scenario.label);
    ASSERT_NE(it, golden.end()) << "no golden row for " << r.scenario.label;
    const auto actual = hotspot_values(r.metrics);
    ASSERT_EQ(actual.size(), it->second.values.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
      expect_near_golden(actual[i], it->second.values[i],
                         r.scenario.label + " hotspot col " +
                             std::to_string(i));
    }
  }
}

TEST_F(GoldenRegression, EnergyMetricsMatchGolden) {
  ASSERT_TRUE(report_->all_ok());
  if (update_mode()) {
    std::vector<std::pair<std::string, std::vector<double>>> rows;
    for (const SweepResult& r : report_->results()) {
      rows.emplace_back(r.scenario.label, energy_values(r.metrics));
    }
    write_golden("fig67_energy.csv", kEnergyHeader, rows);
    GTEST_SKIP() << "golden energy baselines rewritten";
  }
  const GoldenTable golden = read_golden("fig67_energy.csv");
  ASSERT_EQ(golden.size(), 7u)
      << "missing/incomplete " << golden_path("fig67_energy.csv")
      << " — regenerate with TAC3D_UPDATE_GOLDEN=1";
  for (const SweepResult& r : report_->results()) {
    const auto it = golden.find(r.scenario.label);
    ASSERT_NE(it, golden.end()) << "no golden row for " << r.scenario.label;
    const auto actual = energy_values(r.metrics);
    ASSERT_EQ(actual.size(), it->second.values.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
      expect_near_golden(actual[i], it->second.values[i],
                         r.scenario.label + " energy col " +
                             std::to_string(i));
    }
  }
}

/// Bit pattern of a double, so a comparison tells -0.0 from 0.0 and
/// matches equal NaNs.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// The structural invariant behind the golden numbers. The fixture's
// sweep shares set-up through the bank (traces, models with their
// symbolic analysis, initial states) and runs on two workers with
// batched lanes; the reference path (bank off, one job) shares nothing,
// not even a trace. Every metric must agree bit for bit.
TEST_F(GoldenRegression, SharedSetupIsBitwiseNeutral) {
  ASSERT_TRUE(report_->all_ok());
  ASSERT_NE(report_->bank(), nullptr);
  SweepOptions reference;
  reference.jobs = 1;
  reference.use_bank = false;
  const SweepReport isolated = run_sweep(golden_scenarios(), reference);
  ASSERT_TRUE(isolated.all_ok());
  ASSERT_EQ(isolated.bank(), nullptr);
  ASSERT_EQ(isolated.size(), report_->size());
  for (std::size_t i = 0; i < isolated.size(); ++i) {
    const SimMetrics& a = isolated.at(i).metrics;
    const SimMetrics& b = report_->at(i).metrics;
    const std::string& what = isolated.at(i).scenario.label;
    EXPECT_EQ(bits(a.duration), bits(b.duration)) << what;
    EXPECT_EQ(bits(a.any_hot_time), bits(b.any_hot_time)) << what;
    EXPECT_EQ(bits(a.peak_temp), bits(b.peak_temp)) << what;
    EXPECT_EQ(bits(a.chip_energy), bits(b.chip_energy)) << what;
    EXPECT_EQ(bits(a.pump_energy), bits(b.pump_energy)) << what;
    EXPECT_EQ(bits(a.offered_work), bits(b.offered_work)) << what;
    EXPECT_EQ(bits(a.lost_work), bits(b.lost_work)) << what;
    EXPECT_EQ(a.migrations, b.migrations) << what;
    EXPECT_EQ(bits(a.avg_flow_fraction), bits(b.avg_flow_fraction)) << what;
    ASSERT_EQ(a.core_hot_time.size(), b.core_hot_time.size()) << what;
    for (std::size_t c = 0; c < a.core_hot_time.size(); ++c) {
      EXPECT_EQ(bits(a.core_hot_time[c]), bits(b.core_hot_time[c]))
          << what << " core " << c;
    }
  }
}

}  // namespace
}  // namespace tac3d::sim
