// Tests of the power substrate: VF table, leakage model, utilization
// traces (dense and tiled) and the synthetic workload generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "power/leakage.hpp"
#include "power/trace.hpp"
#include "power/vf.hpp"
#include "power/workloads.hpp"
#include "sim/prepared.hpp"

namespace tac3d::power {
namespace {

TEST(VfTable, UltrasparcLadderShape) {
  const VfTable vf = VfTable::ultrasparc_t1();
  EXPECT_EQ(vf.levels(), 5);
  EXPECT_DOUBLE_EQ(vf.point(vf.max_level()).frequency, 1.2e9);
  EXPECT_DOUBLE_EQ(vf.point(0).voltage, 0.90);
}

TEST(VfTable, PowerScaleIsVSquaredF) {
  const VfTable vf = VfTable::ultrasparc_t1();
  EXPECT_DOUBLE_EQ(vf.power_scale(vf.max_level()), 1.0);
  // Lowest point: (0.9/1.2)^2 * (0.6/1.2) = 0.28125.
  EXPECT_NEAR(vf.power_scale(0), 0.28125, 1e-9);
  for (int l = 1; l < vf.levels(); ++l) {
    EXPECT_GT(vf.power_scale(l), vf.power_scale(l - 1));
    EXPECT_GT(vf.speed_scale(l), vf.speed_scale(l - 1));
  }
}

TEST(VfTable, LevelForDemandCoversDemand) {
  const VfTable vf = VfTable::ultrasparc_t1();
  for (double demand : {0.0, 0.2, 0.45, 0.6, 0.85, 1.0}) {
    const int l = vf.level_for_demand(demand, 0.05);
    EXPECT_GE(vf.speed_scale(l) + 1e-12, std::min(1.0, demand + 0.05))
        << "demand " << demand;
    if (l > 0) {
      // One level lower would not cover it.
      EXPECT_LT(vf.speed_scale(l - 1), std::min(1.0, demand + 0.05));
    }
  }
}

TEST(VfTable, RejectsUnsortedPoints) {
  EXPECT_THROW(VfTable({{1.2e9, 1.2}, {0.6e9, 0.9}}), InvalidArgument);
}

TEST(Leakage, ExponentialInTemperatureWithClamp) {
  const LeakageModel leak(1e4, celsius_to_kelvin(45.0), 50.0, 4.0);
  EXPECT_DOUBLE_EQ(leak.factor(celsius_to_kelvin(45.0)), 1.0);
  EXPECT_NEAR(leak.factor(celsius_to_kelvin(45.0 + 50.0 * std::log(2.0))),
              2.0, 1e-9);
  EXPECT_DOUBLE_EQ(leak.factor(celsius_to_kelvin(300.0)), 4.0);  // clamped
}

TEST(Leakage, ScalesWithArea) {
  const LeakageModel leak(1e4, celsius_to_kelvin(45.0), 50.0);
  const double t = celsius_to_kelvin(60.0);
  EXPECT_NEAR(leak.power(2e-5, t), 2.0 * leak.power(1e-5, t), 1e-12);
  EXPECT_DOUBLE_EQ(leak.power(0.0, t), 0.0);
  EXPECT_THROW(leak.power(-1.0, t), InvalidArgument);
}

TEST(Trace, SetGetAndInterpolation) {
  UtilizationTrace tr("test", 2, 3);
  tr.set(0, 0, 0.2);
  tr.set(0, 1, 0.6);
  tr.set(0, 2, 1.0);
  EXPECT_DOUBLE_EQ(tr.at(0, 1), 0.6);
  EXPECT_DOUBLE_EQ(tr.sample(0, 0.5), 0.4);
  EXPECT_DOUBLE_EQ(tr.sample(0, 2.9), 1.0);   // clamped at trace end
  EXPECT_DOUBLE_EQ(tr.sample(0, -1.0), 0.2);  // clamped at start
}

TEST(Trace, RejectsOutOfRangeValues) {
  UtilizationTrace tr("test", 1, 2);
  EXPECT_THROW(tr.set(0, 0, 1.5), InvalidArgument);
  EXPECT_THROW(tr.set(1, 0, 0.5), InvalidArgument);
  EXPECT_THROW(tr.at(5, 0), InvalidArgument);
}

TEST(Trace, CsvRoundTrip) {
  UtilizationTrace tr("rt", 3, 4);
  for (int th = 0; th < 3; ++th) {
    for (int t = 0; t < 4; ++t) {
      tr.set(th, t, 0.1 * (th + 1) + 0.01 * t);
    }
  }
  std::stringstream ss;
  tr.to_csv(ss);
  const UtilizationTrace back = UtilizationTrace::from_csv(ss, "rt");
  EXPECT_EQ(back.threads(), 3);
  EXPECT_EQ(back.seconds(), 4);
  for (int th = 0; th < 3; ++th) {
    for (int t = 0; t < 4; ++t) {
      EXPECT_NEAR(back.at(th, t), tr.at(th, t), 1e-12);
    }
  }
}

TEST(Trace, Statistics) {
  UtilizationTrace tr("s", 2, 2);
  tr.set(0, 0, 0.0);
  tr.set(0, 1, 1.0);
  tr.set(1, 0, 0.5);
  tr.set(1, 1, 0.5);
  EXPECT_DOUBLE_EQ(tr.mean(), 0.5);
  EXPECT_DOUBLE_EQ(tr.peak(), 1.0);
  EXPECT_DOUBLE_EQ(tr.thread_mean(1), 0.5);
}

// --- tiled traces ----------------------------------------------------------
//
// A tiled trace stores one block and wraps every read into it; it must
// read, summarize, serialize and probe bit for bit like the same samples
// written out densely, including the clamped reads before 0 and past the
// end.

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Block sample: irrational rotations, so no two rows repeat by accident
/// and sums round (a changed summation order shows). With
/// \p inner_period > 0 the rows repeat every inner_period seconds.
double block_value(int th, int t, int inner_period) {
  const int phase = inner_period > 0 ? t % inner_period : t;
  return std::fmod(0.7548776662 * (phase + 1) + 0.5698402910 * th, 1.0);
}

UtilizationTrace make_block(int threads, int block, int inner_period) {
  UtilizationTrace b("tile", threads, block);
  for (int th = 0; th < threads; ++th) {
    for (int t = 0; t < block; ++t) {
      b.set(th, t, block_value(th, t, inner_period));
    }
  }
  return b;
}

UtilizationTrace expand(const UtilizationTrace& block, int seconds) {
  UtilizationTrace dense(block.name(), block.threads(), seconds);
  for (int th = 0; th < block.threads(); ++th) {
    for (int t = 0; t < seconds; ++t) {
      dense.set(th, t, block.at(th, t % block.seconds()));
    }
  }
  return dense;
}

std::string csv(const UtilizationTrace& tr) {
  std::ostringstream os;
  tr.to_csv(os);
  return os.str();
}

std::string trace_key(const UtilizationTrace& tr) {
  sim::Scenario s;
  s.trace = std::make_shared<const UtilizationTrace>(tr);
  EXPECT_TRUE(sim::scenario_trace_usable(s));  // keyed by content
  return sim::scenario_trace_key(s);
}

void expect_same_trace(const UtilizationTrace& tiled,
                       const UtilizationTrace& dense) {
  const int n = dense.seconds();
  ASSERT_EQ(tiled.seconds(), n);
  ASSERT_EQ(tiled.threads(), dense.threads());
  for (int th = 0; th < dense.threads(); ++th) {
    for (int t = -1; t <= n + 1; ++t) {
      ASSERT_EQ(bits(tiled.at(th, t)), bits(dense.at(th, t)))
          << "at(" << th << ", " << t << ")";
      for (const double frac : {0.0, 0.375}) {
        ASSERT_EQ(bits(tiled.sample(th, t + frac)),
                  bits(dense.sample(th, t + frac)))
            << "sample(" << th << ", " << t + frac << ")";
      }
    }
    EXPECT_EQ(bits(tiled.thread_mean(th)), bits(dense.thread_mean(th)));
  }
  EXPECT_EQ(bits(tiled.mean()), bits(dense.mean()));
  EXPECT_EQ(bits(tiled.peak()), bits(dense.peak()));
  EXPECT_EQ(csv(tiled), csv(dense));
  EXPECT_EQ(tiled.period_hint(), dense.period_hint());
}

TEST(TiledTrace, ReadsLikeItsDenseExpansion) {
  for (const int block : {1, 3, 12}) {
    for (const int seconds : {5, 12, 25, 24000}) {
      if (block > seconds) continue;
      SCOPED_TRACE("block " + std::to_string(block) + " s, length " +
                   std::to_string(seconds) + " s");
      const UtilizationTrace b = make_block(4, block, 0);
      const UtilizationTrace tiled = UtilizationTrace::tiled(b, seconds);
      EXPECT_EQ(tiled.block_seconds(), block);
      expect_same_trace(tiled, expand(b, seconds));
      // The bank keys attached traces with the chip's 32 threads by
      // content.
      const UtilizationTrace chip = make_block(32, block, 0);
      EXPECT_EQ(trace_key(UtilizationTrace::tiled(chip, seconds)),
                trace_key(expand(chip, seconds)));
    }
  }
}

TEST(TiledTrace, PeriodHintFindsAPeriodInsideTheBlock) {
  // A 12 s block whose rows repeat every 3 s: the probe reports 3 s,
  // the shortest period, not the 12 s tile.
  const UtilizationTrace b = make_block(4, 12, 3);
  for (const int seconds : {12, 25, 24000}) {
    const UtilizationTrace tiled = UtilizationTrace::tiled(b, seconds);
    EXPECT_EQ(tiled.period_hint(), 3) << seconds;
    EXPECT_EQ(expand(b, seconds).period_hint(), 3) << seconds;
  }
  // Rows that repeat every 5 s inside the block break that pattern at
  // each tile boundary (12 is no multiple of 5), so only the tile counts.
  const UtilizationTrace inner5 = make_block(4, 12, 5);
  for (const int seconds : {25, 24000}) {
    EXPECT_EQ(UtilizationTrace::tiled(inner5, seconds).period_hint(), 12);
    EXPECT_EQ(expand(inner5, seconds).period_hint(), 12);
  }
  // Too short to confirm one repetition of the aperiodic 12 s block.
  const UtilizationTrace aperiodic = make_block(4, 12, 0);
  EXPECT_EQ(UtilizationTrace::tiled(aperiodic, 23).period_hint(), 0);
  EXPECT_EQ(UtilizationTrace::tiled(aperiodic, 24).period_hint(), 12);
}

TEST(TiledTrace, WindowsEqualAcrossTilesAndTheTraceEnd) {
  for (const int block : {3, 12}) {
    for (const int seconds : {25, 24000}) {
      const UtilizationTrace b = make_block(4, block, 0);
      const UtilizationTrace tiled = UtilizationTrace::tiled(b, seconds);
      const UtilizationTrace dense = expand(b, seconds);
      int matches = 0;
      // Starts on, just before and past a tile boundary, and windows
      // that run into the clamped trace end.
      for (const int s0 : {0, block - 1, block + 1, seconds - block - 2,
                           seconds - 3, seconds - 1}) {
        for (const int shift : {1, block, 2 * block}) {
          for (const int len : {1, block, block + 2}) {
            const bool want = dense.windows_equal(s0, s0 + shift, len);
            EXPECT_EQ(tiled.windows_equal(s0, s0 + shift, len), want)
                << "block " << block << " length " << seconds << " s0 "
                << s0 << " shift " << shift << " len " << len;
            matches += want ? 1 : 0;
          }
        }
      }
      EXPECT_GT(matches, 0);  // both outcomes are exercised
      EXPECT_LT(matches, 6 * 3 * 3);
    }
  }
}

TEST(TiledTrace, RejectsBlocksLongerThanTheTraceAndUnstoredWrites) {
  const UtilizationTrace b = make_block(2, 12, 0);
  EXPECT_THROW(UtilizationTrace::tiled(b, 11), InvalidArgument);
  UtilizationTrace tiled = UtilizationTrace::tiled(b, 30);
  EXPECT_THROW(tiled.set(0, 12, 0.5), InvalidArgument);  // not stored
}

/// kPeriodic as it was synthesized before it was stored once: the same
/// draws, every second written out.
UtilizationTrace dense_periodic(int threads, int seconds, std::uint64_t seed) {
  UtilizationTrace tr("periodic", threads, seconds);
  Rng rng(seed ^ (static_cast<std::uint64_t>(WorkloadKind::kPeriodic) << 32));
  const int period = std::min(kPeriodicWorkloadSeconds, seconds);
  for (int th = 0; th < threads; ++th) {
    const double offset = rng.uniform(0.0, static_cast<double>(period));
    std::vector<double> base(static_cast<std::size_t>(period));
    for (int t = 0; t < period; ++t) {
      const double s = std::sin(2.0 * M_PI * (t + offset) / period);
      base[static_cast<std::size_t>(t)] =
          std::clamp(0.55 + 0.30 * s + rng.normal(0.0, 0.05), 0.0, 1.0);
    }
    for (int t = 0; t < seconds; ++t) {
      tr.set(th, t, base[static_cast<std::size_t>(t % period)]);
    }
  }
  return tr;
}

TEST(TiledTrace, PeriodicWorkloadMatchesTheDenseSynthesis) {
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    for (const int seconds : {5, 12, 25, 24000}) {
      const UtilizationTrace tr =
          generate_workload(WorkloadKind::kPeriodic, 32, seconds, seed);
      const UtilizationTrace dense = dense_periodic(32, seconds, seed);
      EXPECT_EQ(tr.block_seconds(),
                std::min(kPeriodicWorkloadSeconds, seconds));
      EXPECT_EQ(tr.name(), dense.name());
      ASSERT_EQ(tr.seconds(), seconds);
      for (int th = 0; th < 32; ++th) {
        for (int t = 0; t < seconds; ++t) {
          ASSERT_EQ(bits(tr.at(th, t)), bits(dense.at(th, t)))
              << "seed " << seed << " length " << seconds << " thread "
              << th << " second " << t;
        }
      }
    }
  }
}

class WorkloadSweep : public ::testing::TestWithParam<WorkloadKind> {};

TEST_P(WorkloadSweep, BoundedAndDeterministic) {
  const auto a = generate_workload(GetParam(), 32, 60, 99);
  const auto b = generate_workload(GetParam(), 32, 60, 99);
  for (int th = 0; th < 32; th += 7) {
    for (int t = 0; t < 60; t += 11) {
      ASSERT_GE(a.at(th, t), 0.0);
      ASSERT_LE(a.at(th, t), 1.0);
      ASSERT_DOUBLE_EQ(a.at(th, t), b.at(th, t));
    }
  }
}

TEST_P(WorkloadSweep, DifferentSeedsGiveDifferentTraces) {
  if (GetParam() == WorkloadKind::kMaxUtil) {
    GTEST_SKIP() << "max-util traces are near-constant by design";
  }
  const auto a = generate_workload(GetParam(), 8, 60, 1);
  const auto b = generate_workload(GetParam(), 8, 60, 2);
  double diff = 0.0;
  for (int t = 0; t < 60; ++t) diff += std::abs(a.at(0, t) - b.at(0, t));
  EXPECT_GT(diff, 0.1);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, WorkloadSweep,
    ::testing::Values(WorkloadKind::kWebServer, WorkloadKind::kDatabase,
                      WorkloadKind::kMultimedia, WorkloadKind::kMixed,
                      WorkloadKind::kMaxUtil, WorkloadKind::kIdle));

TEST(Workloads, ClassStatisticsHaveTheRightShape) {
  const auto web = generate_workload(WorkloadKind::kWebServer, 32, 300, 5);
  const auto db = generate_workload(WorkloadKind::kDatabase, 32, 300, 5);
  const auto mm = generate_workload(WorkloadKind::kMultimedia, 32, 300, 5);
  const auto mx = generate_workload(WorkloadKind::kMaxUtil, 32, 300, 5);
  const auto idle = generate_workload(WorkloadKind::kIdle, 32, 300, 5);

  // Ordering: idle << web < db/mmedia << maxutil.
  EXPECT_LT(idle.mean(), 0.1);
  EXPECT_GT(web.mean(), 0.35);
  EXPECT_LT(web.mean(), db.mean());
  EXPECT_GT(mm.mean(), 0.6);
  EXPECT_GT(mx.mean(), 0.97);

  // Web is bursty: peak far above mean.
  EXPECT_GT(web.peak(), web.mean() + 0.3);
}

TEST(Workloads, MixedIsHalfWebHalfDb) {
  const auto mixed = generate_workload(WorkloadKind::kMixed, 32, 200, 3);
  double lo = 0.0, hi = 0.0;
  for (int th = 0; th < 16; ++th) lo += mixed.thread_mean(th) / 16.0;
  for (int th = 16; th < 32; ++th) hi += mixed.thread_mean(th) / 16.0;
  EXPECT_LT(lo, hi);  // web half is lighter than the db half
}

TEST(Workloads, AverageCaseSetMatchesPaper) {
  const auto set = average_case_workloads();
  EXPECT_EQ(set.size(), 4u);
  EXPECT_EQ(workload_name(set[0]), "web");
  EXPECT_EQ(workload_name(set[1]), "db");
}

}  // namespace
}  // namespace tac3d::power
