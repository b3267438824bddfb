// Contract tests of the sweep-service wire protocol
// (service/protocol.hpp): every message type round-trips bit-exactly
// through encode_frame/split_frame/decode_payload, and adversarial
// inputs — truncated frames at every prefix length, hostile length
// prefixes, unknown tags, version mismatches, out-of-range enums,
// trailing garbage, random bytes — are rejected with the matching typed
// DecodeError, never UB (this suite runs under ASan/UBSan in the
// sanitize CI leg).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <variant>
#include <vector>

#include "service/protocol.hpp"

namespace tac3d::service::protocol {
namespace {

// --- helpers --------------------------------------------------------------

/// Payload bytes of an encoded frame (version byte onward).
std::vector<std::uint8_t> payload_of(const Message& msg) {
  const std::vector<std::uint8_t> frame = encode_frame(msg);
  EXPECT_GE(frame.size(), 6u);  // prefix + version + tag
  return {frame.begin() + 4, frame.end()};
}

Decoded decode(const std::vector<std::uint8_t>& payload) {
  return decode_payload(std::span<const std::uint8_t>(payload));
}

sim::Scenario sample_scenario() {
  sim::Scenario s;
  s.label = "2-tier LC_FUZZY web s7";
  s.tiers = 2;
  s.policy = sim::PolicyKind::kLcFuzzy;
  s.cooling = arch::CoolingKind::kLiquidCooled;
  s.workload = power::WorkloadKind::kWebServer;
  s.trace_seconds = 42;
  s.seed = 7;
  s.grid = thermal::GridOptions{12, 14};
  s.grid.x_refine = 2;
  s.sim.control_dt = 0.25;
  s.sim.duration = 33.5;
  return s;
}

void expect_scenario_equal(const sim::Scenario& a, const sim::Scenario& b) {
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.tiers, b.tiers);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.cooling.has_value(), b.cooling.has_value());
  if (a.cooling && b.cooling) EXPECT_EQ(*a.cooling, *b.cooling);
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.trace_seconds, b.trace_seconds);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.grid.rows, b.grid.rows);
  EXPECT_EQ(a.grid.cols, b.grid.cols);
  EXPECT_EQ(a.grid.x_refine, b.grid.x_refine);
  EXPECT_EQ(a.sim.control_dt, b.sim.control_dt);
  EXPECT_EQ(a.sim.duration, b.sim.duration);
}

sim::SimMetrics sample_metrics() {
  sim::SimMetrics m;
  m.duration = 180.0;
  m.core_hot_time = {1.5, 0.0, 2.25, 0.125};
  m.any_hot_time = 3.875;
  m.peak_temp = 361.125;
  m.chip_energy = 1234.5;
  m.pump_energy = 67.875;
  m.offered_work = 100.0;
  m.lost_work = 3.0625;
  m.migrations = -9;  // sign must survive the wire
  m.avg_flow_fraction = 0.7265625;
  return m;
}

void expect_metrics_equal(const sim::SimMetrics& a, const sim::SimMetrics& b) {
  // Bitwise: doubles travel as IEEE bit patterns.
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.core_hot_time, b.core_hot_time);
  EXPECT_EQ(a.any_hot_time, b.any_hot_time);
  EXPECT_EQ(a.peak_temp, b.peak_temp);
  EXPECT_EQ(a.chip_energy, b.chip_energy);
  EXPECT_EQ(a.pump_energy, b.pump_energy);
  EXPECT_EQ(a.offered_work, b.offered_work);
  EXPECT_EQ(a.lost_work, b.lost_work);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.avg_flow_fraction, b.avg_flow_fraction);
}

/// Round-trip through the full pipeline: encode, split, decode.
Decoded round_trip(const Message& msg) {
  const std::vector<std::uint8_t> frame = encode_frame(msg);
  const FrameSplit split = split_frame(frame);
  EXPECT_EQ(split.status, FrameSplit::Status::kFrame);
  EXPECT_EQ(split.consumed, frame.size());
  return decode_payload(std::span<const std::uint8_t>(frame).subspan(
      split.payload_offset, split.payload_size));
}

// --- round-trips, every message type --------------------------------------

TEST(ServiceProtocol, RoundTripSubmitSweep) {
  SubmitSweepMsg msg;
  msg.client_tag = 0xDEADBEEF;
  msg.cores_requested = 3;
  msg.scenarios.push_back(sample_scenario());
  sim::Scenario second = sample_scenario();
  second.label = "";
  second.cooling.reset();
  second.policy = sim::PolicyKind::kAcLb;
  msg.scenarios.push_back(second);

  const Decoded d = round_trip(msg);
  ASSERT_TRUE(d.ok()) << d.detail;
  const auto& out = std::get<SubmitSweepMsg>(d.msg);
  EXPECT_EQ(out.client_tag, msg.client_tag);
  EXPECT_EQ(out.cores_requested, msg.cores_requested);
  ASSERT_EQ(out.scenarios.size(), 2u);
  expect_scenario_equal(out.scenarios[0], msg.scenarios[0]);
  expect_scenario_equal(out.scenarios[1], msg.scenarios[1]);
}

TEST(ServiceProtocol, RoundTripWhatIf) {
  WhatIfMsg msg;
  msg.client_tag = 11;
  msg.scenario = sample_scenario();
  const Decoded d = round_trip(msg);
  ASSERT_TRUE(d.ok()) << d.detail;
  const auto& out = std::get<WhatIfMsg>(d.msg);
  EXPECT_EQ(out.client_tag, 11u);
  expect_scenario_equal(out.scenario, msg.scenario);
}

TEST(ServiceProtocol, RoundTripQueryStatusCancelShutdown) {
  {
    QueryStatusMsg msg;
    msg.job_id = 5;
    const Decoded d = round_trip(msg);
    ASSERT_TRUE(d.ok()) << d.detail;
    EXPECT_EQ(std::get<QueryStatusMsg>(d.msg).job_id, 5u);
  }
  {
    CancelMsg msg;
    msg.job_id = 99;
    const Decoded d = round_trip(msg);
    ASSERT_TRUE(d.ok()) << d.detail;
    EXPECT_EQ(std::get<CancelMsg>(d.msg).job_id, 99u);
  }
  {
    const Decoded d = round_trip(ShutdownDrainMsg{});
    ASSERT_TRUE(d.ok()) << d.detail;
    EXPECT_TRUE(std::holds_alternative<ShutdownDrainMsg>(d.msg));
  }
}

TEST(ServiceProtocol, RoundTripSubmitAck) {
  SubmitAckMsg msg;
  msg.client_tag = 21;
  msg.job_id = 17;
  msg.admitted = 0;
  msg.queue_position = 4;
  const Decoded d = round_trip(msg);
  ASSERT_TRUE(d.ok()) << d.detail;
  const auto& out = std::get<SubmitAckMsg>(d.msg);
  EXPECT_EQ(out.client_tag, 21u);
  EXPECT_EQ(out.job_id, 17u);
  EXPECT_EQ(out.admitted, 0);
  EXPECT_EQ(out.queue_position, 4u);
}

TEST(ServiceProtocol, RoundTripScenarioResult) {
  ScenarioResultMsg msg;
  msg.job_id = 3;
  msg.index = 12;
  msg.ok = 1;
  msg.metrics = sample_metrics();
  const Decoded d = round_trip(msg);
  ASSERT_TRUE(d.ok()) << d.detail;
  const auto& out = std::get<ScenarioResultMsg>(d.msg);
  EXPECT_EQ(out.job_id, 3u);
  EXPECT_EQ(out.index, 12u);
  EXPECT_EQ(out.ok, 1);
  expect_metrics_equal(out.metrics, msg.metrics);

  ScenarioResultMsg failed;
  failed.job_id = 3;
  failed.index = 13;
  failed.ok = 0;
  failed.error = "control_dt must be positive";
  const Decoded df = round_trip(failed);
  ASSERT_TRUE(df.ok()) << df.detail;
  EXPECT_EQ(std::get<ScenarioResultMsg>(df.msg).error, failed.error);
}

TEST(ServiceProtocol, RoundTripSweepCompleteStatusErrorDrain) {
  {
    SweepCompleteMsg msg;
    msg.job_id = 8;
    msg.completed = 30;
    msg.failed = 1;
    msg.cancelled = 4;
    msg.was_cancelled = 1;
    const Decoded d = round_trip(msg);
    ASSERT_TRUE(d.ok()) << d.detail;
    const auto& out = std::get<SweepCompleteMsg>(d.msg);
    EXPECT_EQ(out.completed, 30u);
    EXPECT_EQ(out.failed, 1u);
    EXPECT_EQ(out.cancelled, 4u);
    EXPECT_EQ(out.was_cancelled, 1);
  }
  {
    StatusMsg msg;
    msg.active_jobs = 2;
    msg.queued_jobs = 5;
    msg.scenarios_completed = 1234567890123ull;
    msg.core_budget = 8;
    msg.cores_in_use = 7;
    msg.draining = 1;
    msg.bank_steady_hits = 42;
    const Decoded d = round_trip(msg);
    ASSERT_TRUE(d.ok()) << d.detail;
    const auto& out = std::get<StatusMsg>(d.msg);
    EXPECT_EQ(out.scenarios_completed, 1234567890123ull);
    EXPECT_EQ(out.queued_jobs, 5u);
    EXPECT_EQ(out.draining, 1);
    EXPECT_EQ(out.bank_steady_hits, 42u);
  }
  {
    ErrorMsg msg;
    msg.code = static_cast<std::uint16_t>(ServiceError::kRejectedDraining);
    msg.client_tag = 77;
    msg.text = "server is draining";
    const Decoded d = round_trip(msg);
    ASSERT_TRUE(d.ok()) << d.detail;
    const auto& out = std::get<ErrorMsg>(d.msg);
    EXPECT_EQ(out.code, msg.code);
    EXPECT_EQ(out.client_tag, 77u);
    EXPECT_EQ(out.text, msg.text);
  }
  {
    DrainCompleteMsg msg;
    msg.scenarios_finished = 420;
    const Decoded d = round_trip(msg);
    ASSERT_TRUE(d.ok()) << d.detail;
    EXPECT_EQ(std::get<DrainCompleteMsg>(d.msg).scenarios_finished, 420u);
  }
}

MetricsMsg sample_metrics_msg() {
  MetricEntryMsg counter;
  counter.name = "bank/steady_hits";
  counter.kind = MetricEntryMsg::kCounter;
  counter.count = 1234567890123ull;
  MetricEntryMsg gauge;
  gauge.name = "service/queue_depth";
  gauge.kind = MetricEntryMsg::kGauge;
  gauge.value = 3.0;
  MetricEntryMsg hist;
  hist.name = "service/ttfr_ms";
  hist.kind = MetricEntryMsg::kHistogram;
  hist.count = 42;
  hist.value = 1234.5;  // sum
  hist.min = 0.5;
  hist.max = 250.25;
  hist.buckets = {{3, 10}, {57, 30}, {127, 2}};
  MetricsMsg msg;
  msg.entries = {counter, gauge, hist};
  return msg;
}

TEST(ServiceProtocol, RoundTripQueryMetricsAndMetrics) {
  {
    const Decoded d = round_trip(QueryMetricsMsg{});
    ASSERT_TRUE(d.ok()) << d.detail;
    EXPECT_TRUE(std::holds_alternative<QueryMetricsMsg>(d.msg));
  }
  const MetricsMsg msg = sample_metrics_msg();
  const Decoded d = round_trip(msg);
  ASSERT_TRUE(d.ok()) << d.detail;
  const auto& out = std::get<MetricsMsg>(d.msg);
  ASSERT_EQ(out.entries.size(), msg.entries.size());
  for (std::size_t i = 0; i < msg.entries.size(); ++i) {
    const MetricEntryMsg& a = msg.entries[i];
    const MetricEntryMsg& b = out.entries[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.value, b.value);  // bitwise, IEEE bit pattern
    EXPECT_EQ(a.min, b.min);
    EXPECT_EQ(a.max, b.max);
    EXPECT_EQ(a.buckets, b.buckets);
  }
}

// --- adversarial decoding -------------------------------------------------

TEST(ServiceProtocol, TruncationAtEveryPrefixLengthIsTyped) {
  // Every proper prefix of every message type's payload must decode to a
  // typed error — kTruncated for mid-field cuts, kMalformed for an empty
  // payload — and never crash (ASan/UBSan guard the never-UB claim).
  SubmitSweepMsg sweep;
  sweep.client_tag = 1;
  sweep.scenarios.push_back(sample_scenario());
  ScenarioResultMsg result;
  result.ok = 1;
  result.metrics = sample_metrics();
  const std::vector<Message> all = {
      sweep,          WhatIfMsg{2, sample_scenario()},
      QueryStatusMsg{}, CancelMsg{3},
      ShutdownDrainMsg{}, QueryMetricsMsg{},
      SubmitAckMsg{4, 5, 1, 0},
      result,         SweepCompleteMsg{6, 7, 8, 9, 1},
      StatusMsg{},    ErrorMsg{1, 2, "boom"},
      DrainCompleteMsg{10}, sample_metrics_msg()};

  for (const Message& msg : all) {
    const std::vector<std::uint8_t> payload = payload_of(msg);
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      const std::vector<std::uint8_t> prefix(payload.begin(),
                                             payload.begin() + cut);
      const Decoded d = decode(prefix);
      EXPECT_FALSE(d.ok()) << "tag " << static_cast<int>(msg_type(msg))
                           << " cut at " << cut;
      EXPECT_TRUE(d.error == DecodeError::kTruncated ||
                  d.error == DecodeError::kMalformed)
          << "tag " << static_cast<int>(msg_type(msg)) << " cut at " << cut
          << " -> " << decode_error_name(d.error);
    }
    // The full payload still decodes.
    EXPECT_TRUE(decode(payload).ok());
  }
}

TEST(ServiceProtocol, OversizedLengthPrefixIsRejectedNotTrusted) {
  for (const std::uint32_t declared :
       {kMaxFramePayload + 1, 0x40000000u,
        std::numeric_limits<std::uint32_t>::max()}) {
    std::vector<std::uint8_t> buffer(4);
    std::memcpy(buffer.data(), &declared, 4);  // host LE in CI
    // Ensure byte order explicitly:
    for (int i = 0; i < 4; ++i) {
      buffer[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(declared >> (8 * i));
    }
    const FrameSplit split = split_frame(buffer);
    EXPECT_EQ(split.status, FrameSplit::Status::kOversized);
    EXPECT_EQ(split.consumed, 4u);
    EXPECT_EQ(split.declared_size, declared);
  }
}

TEST(ServiceProtocol, ZeroLengthFrameIsMalformed) {
  const std::vector<std::uint8_t> buffer = {0, 0, 0, 0};
  const FrameSplit split = split_frame(buffer);
  EXPECT_EQ(split.status, FrameSplit::Status::kMalformed);
  EXPECT_EQ(split.consumed, 4u);
}

TEST(ServiceProtocol, SplitNeedsMoreUntilComplete) {
  const std::vector<std::uint8_t> frame = encode_frame(CancelMsg{1});
  for (std::size_t n = 0; n < frame.size(); ++n) {
    const FrameSplit split = split_frame(
        std::span<const std::uint8_t>(frame.data(), n));
    EXPECT_EQ(split.status, FrameSplit::Status::kNeedMore) << "at " << n;
    EXPECT_EQ(split.consumed, 0u);
  }
  EXPECT_EQ(split_frame(frame).status, FrameSplit::Status::kFrame);
}

TEST(ServiceProtocol, UnknownTagIsTyped) {
  // 6 (kQueryMetrics) and 70 (kMetrics) became real tags in protocol
  // v2; the probes sit just past the live request/response ranges.
  for (const std::uint8_t tag : {0, 7, 42, 63, 71, 255}) {
    const std::vector<std::uint8_t> payload = {kProtocolVersion, tag};
    const Decoded d = decode(payload);
    EXPECT_FALSE(d.ok());
    EXPECT_EQ(d.error, DecodeError::kUnknownType) << "tag " << int(tag);
  }
}

TEST(ServiceProtocol, VersionMismatchIsTyped) {
  std::vector<std::uint8_t> payload = payload_of(CancelMsg{1});
  payload[0] = kProtocolVersion + 1;
  const Decoded d = decode(payload);
  EXPECT_EQ(d.error, DecodeError::kVersionMismatch);
  payload[0] = 0;
  EXPECT_EQ(decode(payload).error, DecodeError::kVersionMismatch);
}

TEST(ServiceProtocol, TrailingBytesAreMalformed) {
  std::vector<std::uint8_t> payload = payload_of(CancelMsg{1});
  payload.push_back(0xAB);
  const Decoded d = decode(payload);
  EXPECT_EQ(d.error, DecodeError::kMalformed);
}

TEST(ServiceProtocol, OutOfRangeEnumsAreBadValue) {
  WhatIfMsg msg;
  msg.client_tag = 1;
  msg.scenario = sample_scenario();
  const std::vector<std::uint8_t> good = payload_of(msg);

  // Find an enum's byte by differential encoding: change one scenario
  // field and diff the payloads.
  const auto byte_of = [&](const WhatIfMsg& other) {
    const std::vector<std::uint8_t> alt = payload_of(other);
    EXPECT_EQ(good.size(), alt.size());
    for (std::size_t i = 0; i < good.size() && i < alt.size(); ++i) {
      if (good[i] != alt[i]) return i;
    }
    return good.size();
  };

  WhatIfMsg other = msg;
  other.scenario.policy = sim::PolicyKind::kAcLb;
  const std::size_t policy_at = byte_of(other);
  ASSERT_LT(policy_at, good.size());
  std::vector<std::uint8_t> evil = good;
  evil[policy_at] = 200;  // far past the last PolicyKind
  Decoded d = decode(evil);
  EXPECT_EQ(d.error, DecodeError::kBadValue) << d.detail;

  // Solver kinds are 0 (banded LU) and 1 (BiCGSTAB+ILU(0)); 2 is past
  // the last one.
  other = msg;
  other.scenario.sim.solver = sparse::SolverKind::kBandedLu;
  const std::size_t solver_at = byte_of(other);
  ASSERT_LT(solver_at, good.size());
  ASSERT_EQ(good[solver_at], 1);
  evil = good;
  evil[solver_at] = 2;
  d = decode(evil);
  EXPECT_EQ(d.error, DecodeError::kBadValue) << d.detail;
}

TEST(ServiceProtocol, ScenarioSizesPastTheirLimitsAreBadValue) {
  WhatIfMsg msg;
  msg.client_tag = 1;
  msg.scenario = sample_scenario();
  const std::vector<std::uint8_t> good = payload_of(msg);
  ASSERT_TRUE(decode(good).ok());
  const auto decode_with = [&](auto mutate) {
    WhatIfMsg other = msg;
    mutate(other.scenario);
    return decode(payload_of(other)).error;
  };

  // The largest grid the u16 fields carry would map ~2.7e8 cells per
  // floorplan element.
  EXPECT_EQ(decode_with([](sim::Scenario& s) {
              s.grid.rows = 65535;
              s.grid.cols = 65535;
            }),
            DecodeError::kBadValue);

  // u32 fields past int range: locate the field by differential
  // encoding (its low byte differs first), then overwrite its 4 bytes.
  const auto with_u32 = [&](auto mutate, std::uint32_t value) {
    WhatIfMsg other = msg;
    mutate(other.scenario);
    const std::vector<std::uint8_t> alt = payload_of(other);
    std::size_t at = 0;
    while (at < good.size() && good[at] == alt[at]) ++at;
    EXPECT_LE(at + 4, good.size());
    std::vector<std::uint8_t> evil = good;
    for (std::size_t i = 0; i < 4 && at + i < evil.size(); ++i) {
      evil[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
    return decode(evil).error;
  };
  EXPECT_EQ(with_u32([](sim::Scenario& s) { s.trace_seconds += 1; },
                     0xFFFFFFFFu),
            DecodeError::kBadValue);
  EXPECT_EQ(with_u32([](sim::Scenario& s) { s.sim.init_iterations += 1; },
                     0x80000000u),
            DecodeError::kBadValue);

  // Every limit is inclusive, and one past it (or below 1) is rejected.
  const auto check_limits = [&](const char* name, auto set, int lo, int hi) {
    const auto with = [&](int v) {
      return decode_with([&](sim::Scenario& s) { set(s, v); });
    };
    EXPECT_EQ(with(lo), DecodeError::kOk) << name;
    EXPECT_EQ(with(hi), DecodeError::kOk) << name;
    EXPECT_EQ(with(lo - 1), DecodeError::kBadValue) << name;
    EXPECT_EQ(with(hi + 1), DecodeError::kBadValue) << name;
  };
  check_limits("rows", [](sim::Scenario& s, int v) { s.grid.rows = v; },
               kMinGridCells, kMaxGridCells);
  check_limits("cols", [](sim::Scenario& s, int v) { s.grid.cols = v; },
               kMinGridCells, kMaxGridCells);
  check_limits("x_refine",
               [](sim::Scenario& s, int v) { s.grid.x_refine = v; }, 1,
               kMaxGridRefine);
  check_limits("z_refine",
               [](sim::Scenario& s, int v) { s.grid.z_refine = v; }, 1,
               kMaxGridRefine);
  check_limits("trace_seconds",
               [](sim::Scenario& s, int v) { s.trace_seconds = v; }, 1,
               kMaxTraceSeconds);
  check_limits("init_iterations",
               [](sim::Scenario& s, int v) { s.sim.init_iterations = v; }, 1,
               kMaxInitIterations);
}

TEST(ServiceProtocol, TimingPastItsLimitsIsBadValue) {
  WhatIfMsg msg;
  msg.client_tag = 1;
  msg.scenario = sample_scenario();
  ASSERT_TRUE(decode(payload_of(msg)).ok());
  const auto decode_with = [&](double control_dt, double duration) {
    WhatIfMsg other = msg;
    other.scenario.sim.control_dt = control_dt;
    other.scenario.sim.duration = duration;
    return decode(payload_of(other)).error;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();

  for (const double dt : {0.0, -0.25, inf, -inf, nan}) {
    EXPECT_EQ(decode_with(dt, 10.0), DecodeError::kBadValue)
        << "control_dt " << dt;
  }
  for (const double duration : {-1.0, inf, -inf, nan}) {
    EXPECT_EQ(decode_with(0.25, duration), DecodeError::kBadValue)
        << "duration " << duration;
  }
  // Finite durations that would pin a worker for days (5e8 s is 2e9
  // steps at 0.25 s) or wrap an int step count (1e12 s), and the whole
  // trace at a vanishing step.
  EXPECT_EQ(decode_with(0.25, 5e8), DecodeError::kBadValue);
  EXPECT_EQ(decode_with(0.25, 1e12), DecodeError::kBadValue);
  // A rejected request still names its tag, so the client can match the
  // server's error to it.
  WhatIfMsg endless = msg;
  endless.client_tag = 41;
  endless.scenario.sim.duration = 1e12;
  EXPECT_EQ(decode(payload_of(endless)).client_tag, 41u);
  EXPECT_EQ(decode_with(1e-300, 0.0), DecodeError::kBadValue);

  // The cap itself decodes and one step past it does not; so does a
  // one-day trace stepped whole at 1/48 s.
  EXPECT_EQ(decode_with(0.25, kMaxControlSteps * 0.25), DecodeError::kOk);
  EXPECT_EQ(decode_with(0.25, (kMaxControlSteps + 1) * 0.25),
            DecodeError::kBadValue);
  WhatIfMsg day = msg;
  day.scenario.trace_seconds = kMaxTraceSeconds;
  day.scenario.sim.control_dt = 1.0 / 48.0;
  day.scenario.sim.duration = 0.0;
  EXPECT_EQ(decode(payload_of(day)).error, DecodeError::kOk);
}

TEST(ServiceProtocol, SolverToleranceOutsideUnitIntervalIsBadValue) {
  WhatIfMsg msg;
  msg.client_tag = 1;
  msg.scenario = sample_scenario();
  const auto decode_with = [&](double tolerance) {
    WhatIfMsg other = msg;
    other.scenario.sim.solver_tolerance = tolerance;
    return decode(payload_of(other)).error;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // None of these can ever be met: the solve would run to its iteration
  // cap, or a direct solve would ignore the value silently.
  for (const double tol : {nan, inf, -inf, 0.0, -1e-8, 1.0}) {
    EXPECT_EQ(decode_with(tol), DecodeError::kBadValue) << "tolerance " << tol;
  }
  for (const double tol : {1e-8, 1e-12}) {
    EXPECT_EQ(decode_with(tol), DecodeError::kOk) << "tolerance " << tol;
  }
}

TEST(ServiceProtocol, MetricEntryBadKindIsTyped) {
  // Same differential trick as the policy enum: two payloads identical
  // except for the entry's kind byte locate it, then an out-of-range
  // kind (past kHistogram) must decode to kBadValue.
  MetricEntryMsg e;
  e.name = "x";
  e.kind = MetricEntryMsg::kCounter;
  MetricsMsg a;
  a.entries = {e};
  e.kind = MetricEntryMsg::kGauge;
  MetricsMsg b;
  b.entries = {e};
  const std::vector<std::uint8_t> good = payload_of(a);
  const std::vector<std::uint8_t> alt = payload_of(b);
  ASSERT_EQ(good.size(), alt.size());
  std::size_t kind_at = good.size();
  for (std::size_t i = 0; i < good.size(); ++i) {
    if (good[i] != alt[i]) {
      kind_at = i;
      break;
    }
  }
  ASSERT_LT(kind_at, good.size());

  std::vector<std::uint8_t> evil = good;
  evil[kind_at] = 3;  // one past kHistogram
  EXPECT_EQ(decode(evil).error, DecodeError::kBadValue);
  evil[kind_at] = 255;
  EXPECT_EQ(decode(evil).error, DecodeError::kBadValue);
}

TEST(ServiceProtocol, MetricsEntryCountPastCapIsTyped) {
  // A kMetrics frame claiming 2^32-1 entries (or any count past
  // kMaxMetricEntries) must be rejected by the count cap, not trusted
  // into an allocation loop.
  std::vector<std::uint8_t> payload = {
      kProtocolVersion, static_cast<std::uint8_t>(MsgType::kMetrics)};
  for (int i = 0; i < 4; ++i) payload.push_back(0xFF);
  const Decoded d = decode(payload);
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(d.error == DecodeError::kTruncated ||
              d.error == DecodeError::kMalformed ||
              d.error == DecodeError::kBadValue)
      << decode_error_name(d.error);
}

TEST(ServiceProtocol, HugeStringLengthInsideBodyIsTyped) {
  // An ErrorMsg whose string claims 2^31 bytes: the count cap must
  // reject it instead of allocating or reading past the payload.
  std::vector<std::uint8_t> payload = {
      kProtocolVersion, static_cast<std::uint8_t>(MsgType::kError)};
  payload.push_back(1);  // code u16 LE
  payload.push_back(0);
  for (int i = 0; i < 4; ++i) payload.push_back(0);  // client_tag
  payload.push_back(0x00);  // string length 0x80000000
  payload.push_back(0x00);
  payload.push_back(0x00);
  payload.push_back(0x80);
  payload.push_back('x');  // one actual byte
  const Decoded d = decode(payload);
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(d.error == DecodeError::kTruncated ||
              d.error == DecodeError::kMalformed ||
              d.error == DecodeError::kBadValue)
      << decode_error_name(d.error);
}

TEST(ServiceProtocol, DeterministicFuzzNeverCrashes) {
  // A cheap xorshift fuzz over random payloads: every outcome must be a
  // typed error or a clean decode — never a crash, hang, or sanitizer
  // report. Deterministic seed so failures reproduce.
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t len = static_cast<std::size_t>(next() % 96);
    std::vector<std::uint8_t> payload(len);
    for (auto& b : payload) b = static_cast<std::uint8_t>(next());
    if (len >= 1 && iter % 2 == 0) payload[0] = kProtocolVersion;
    if (len >= 2 && iter % 4 == 0) {
      payload[1] = static_cast<std::uint8_t>(1 + next() % 5);  // real tags
    }
    const Decoded d = decode(payload);
    if (d.ok()) continue;  // a tiny fraction may decode; that's fine
    EXPECT_NE(d.error, DecodeError::kOk);
  }
}

}  // namespace
}  // namespace tac3d::service::protocol
