#include "service/protocol.hpp"

#include <bit>
#include <cmath>
#include <cstring>

namespace tac3d::service::protocol {

namespace {

// --- little-endian writer -------------------------------------------------

class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    // Encoding is trusted (our own messages); decoding enforces the cap.
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }

 private:
  std::vector<std::uint8_t>& out_;
};

// --- bounds-checked little-endian reader ----------------------------------

/// Every read checks the remaining byte count and latches kTruncated on
/// underflow; subsequent reads return zeros. Callers check ok() (or the
/// latched error) once at the end instead of after every field — no read
/// ever touches memory past the payload.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  bool ok() const { return error_ == DecodeError::kOk; }
  DecodeError error() const { return error_; }
  std::size_t remaining() const { return data_.size() - pos_; }

  void fail(DecodeError e) {
    if (error_ == DecodeError::kOk) error_ = e;
  }

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return data_[pos_++];
  }
  std::uint16_t u16() {
    if (!take(2)) return 0;
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) {
      v = static_cast<std::uint16_t>(v | (static_cast<std::uint16_t>(
                                             data_[pos_ + static_cast<std::size_t>(i)])
                                         << (8 * i)));
    }
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }

  std::string str() {
    const std::uint32_t n = u32();
    if (!ok()) return {};
    if (n > kMaxStringBytes) {
      fail(DecodeError::kBadValue);
      return {};
    }
    if (!take(n)) return {};
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  /// A bounded count prefix (vector lengths). Rejects values above
  /// \p max with kBadValue so a hostile count cannot drive a huge
  /// reserve or a quadratic loop.
  std::uint32_t count(std::uint32_t max) {
    const std::uint32_t n = u32();
    if (ok() && n > max) fail(DecodeError::kBadValue);
    return ok() ? n : 0;
  }

 private:
  bool take(std::size_t n) {
    if (!ok()) return false;
    if (remaining() < n) {
      error_ = DecodeError::kTruncated;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  DecodeError error_ = DecodeError::kOk;
};

// --- scenario / metrics codecs --------------------------------------------

void encode_scenario(Writer& w, const sim::Scenario& s) {
  w.str(s.label);
  w.u8(static_cast<std::uint8_t>(s.tiers));
  w.u8(static_cast<std::uint8_t>(s.policy));
  w.u8(s.cooling.has_value() ? 1 : 0);
  w.u8(s.cooling ? static_cast<std::uint8_t>(*s.cooling) : 0);
  w.u8(static_cast<std::uint8_t>(s.workload));
  w.u32(static_cast<std::uint32_t>(s.trace_seconds));
  w.u64(s.seed);
  w.u16(static_cast<std::uint16_t>(s.grid.rows));
  w.u16(static_cast<std::uint16_t>(s.grid.cols));
  w.u8(s.grid.discrete_channels ? 1 : 0);
  w.u16(static_cast<std::uint16_t>(s.grid.x_refine));
  w.u16(static_cast<std::uint16_t>(s.grid.z_refine));
  w.u8(static_cast<std::uint8_t>(s.sim.solver));
  w.f64(s.sim.control_dt);
  w.f64(s.sim.duration);
  w.f64(s.sim.solver_tolerance);
  w.u32(static_cast<std::uint32_t>(s.sim.init_iterations));
}

sim::Scenario decode_scenario(Reader& r) {
  sim::Scenario s;
  s.label = r.str();
  s.tiers = r.u8();
  const std::uint8_t policy = r.u8();
  const std::uint8_t has_cooling = r.u8();
  const std::uint8_t cooling = r.u8();
  const std::uint8_t workload = r.u8();
  const std::uint32_t trace_seconds = r.u32();
  s.seed = r.u64();
  const std::uint16_t rows = r.u16();
  const std::uint16_t cols = r.u16();
  s.grid.discrete_channels = r.u8() != 0;
  const std::uint16_t x_refine = r.u16();
  const std::uint16_t z_refine = r.u16();
  const std::uint8_t solver = r.u8();
  s.sim.control_dt = r.f64();
  s.sim.duration = r.f64();
  s.sim.solver_tolerance = r.f64();
  const std::uint32_t init_iterations = r.u32();
  if (!r.ok()) return s;
  // Range-validate every enum before the cast becomes a live value, and
  // every size field against its documented limit.
  const auto within = [](std::uint32_t v, int lo, int hi) {
    return v >= static_cast<std::uint32_t>(lo) &&
           v <= static_cast<std::uint32_t>(hi);
  };
  if (policy > static_cast<std::uint8_t>(sim::PolicyKind::kLcFuzzy) ||
      has_cooling > 1 ||
      cooling > static_cast<std::uint8_t>(arch::CoolingKind::kLiquidCooled) ||
      workload > static_cast<std::uint8_t>(power::WorkloadKind::kPeriodic) ||
      solver > static_cast<std::uint8_t>(sparse::SolverKind::kBicgstabIlu0) ||
      !within(rows, kMinGridCells, kMaxGridCells) ||
      !within(cols, kMinGridCells, kMaxGridCells) ||
      !within(x_refine, 1, kMaxGridRefine) ||
      !within(z_refine, 1, kMaxGridRefine) ||
      !within(trace_seconds, 1, kMaxTraceSeconds) ||
      !within(init_iterations, 1, kMaxInitIterations) ||
      !(std::isfinite(s.sim.control_dt) && s.sim.control_dt > 0.0) ||
      !(std::isfinite(s.sim.duration) && s.sim.duration >= 0.0) ||
      !(s.sim.solver_tolerance > 0.0 && s.sim.solver_tolerance < 1.0) ||
      !(sim::control_steps(s.sim, static_cast<int>(trace_seconds)) <=
        kMaxControlSteps)) {
    r.fail(DecodeError::kBadValue);
    return s;
  }
  s.trace_seconds = static_cast<int>(trace_seconds);
  s.grid.rows = rows;
  s.grid.cols = cols;
  s.grid.x_refine = x_refine;
  s.grid.z_refine = z_refine;
  s.sim.init_iterations = static_cast<int>(init_iterations);
  s.policy = static_cast<sim::PolicyKind>(policy);
  if (has_cooling) s.cooling = static_cast<arch::CoolingKind>(cooling);
  s.workload = static_cast<power::WorkloadKind>(workload);
  s.sim.solver = static_cast<sparse::SolverKind>(solver);
  return s;
}

void encode_metrics(Writer& w, const sim::SimMetrics& m) {
  w.f64(m.duration);
  w.f64(m.any_hot_time);
  w.f64(m.peak_temp);
  w.f64(m.chip_energy);
  w.f64(m.pump_energy);
  w.f64(m.offered_work);
  w.f64(m.lost_work);
  w.f64(m.avg_flow_fraction);
  w.i64(m.migrations);
  w.u32(static_cast<std::uint32_t>(m.core_hot_time.size()));
  for (const double t : m.core_hot_time) w.f64(t);
}

sim::SimMetrics decode_metrics(Reader& r) {
  sim::SimMetrics m;
  m.duration = r.f64();
  m.any_hot_time = r.f64();
  m.peak_temp = r.f64();
  m.chip_energy = r.f64();
  m.pump_energy = r.f64();
  m.offered_work = r.f64();
  m.lost_work = r.f64();
  m.avg_flow_fraction = r.f64();
  m.migrations = r.i64();
  // 1024 cores is far beyond any modeled chip; the cap bounds the
  // allocation a hostile count could demand.
  const std::uint32_t n = r.count(1024);
  // A truthful count still cannot outrun the payload: each entry is 8
  // bytes, so an overlong count fails as kTruncated on the first read.
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    m.core_hot_time.push_back(r.f64());
  }
  return m;
}

void encode_metric_entry(Writer& w, const MetricEntryMsg& e) {
  w.str(e.name);
  w.u8(e.kind);
  w.u64(e.count);
  w.f64(e.value);
  w.f64(e.min);
  w.f64(e.max);
  w.u32(static_cast<std::uint32_t>(e.buckets.size()));
  for (const auto& [idx, c] : e.buckets) {
    w.u8(idx);
    w.u64(c);
  }
}

MetricEntryMsg decode_metric_entry(Reader& r) {
  MetricEntryMsg e;
  e.name = r.str();
  e.kind = r.u8();
  e.count = r.u64();
  e.value = r.f64();
  e.min = r.f64();
  e.max = r.f64();
  if (r.ok() && e.kind > MetricEntryMsg::kHistogram) {
    r.fail(DecodeError::kBadValue);
    return e;
  }
  // Each bucket is 9 bytes, so a truthful count cannot outrun the
  // payload; the cap bounds what a hostile one may reserve.
  const std::uint32_t n = r.count(kMaxMetricBuckets);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    const std::uint8_t idx = r.u8();
    const std::uint64_t c = r.u64();
    e.buckets.emplace_back(idx, c);
  }
  return e;
}

}  // namespace

const char* decode_error_name(DecodeError e) {
  switch (e) {
    case DecodeError::kOk: return "ok";
    case DecodeError::kTruncated: return "truncated";
    case DecodeError::kOversized: return "oversized";
    case DecodeError::kUnknownType: return "unknown-type";
    case DecodeError::kVersionMismatch: return "version-mismatch";
    case DecodeError::kMalformed: return "malformed";
    case DecodeError::kBadValue: return "bad-value";
  }
  return "invalid-error-code";
}

MsgType msg_type(const Message& msg) {
  struct Visitor {
    MsgType operator()(const SubmitSweepMsg&) { return MsgType::kSubmitSweep; }
    MsgType operator()(const WhatIfMsg&) { return MsgType::kWhatIf; }
    MsgType operator()(const QueryStatusMsg&) { return MsgType::kQueryStatus; }
    MsgType operator()(const CancelMsg&) { return MsgType::kCancel; }
    MsgType operator()(const ShutdownDrainMsg&) {
      return MsgType::kShutdownDrain;
    }
    MsgType operator()(const SubmitAckMsg&) { return MsgType::kSubmitAck; }
    MsgType operator()(const ScenarioResultMsg&) {
      return MsgType::kScenarioResult;
    }
    MsgType operator()(const SweepCompleteMsg&) {
      return MsgType::kSweepComplete;
    }
    MsgType operator()(const StatusMsg&) { return MsgType::kStatus; }
    MsgType operator()(const ErrorMsg&) { return MsgType::kError; }
    MsgType operator()(const DrainCompleteMsg&) {
      return MsgType::kDrainComplete;
    }
    MsgType operator()(const QueryMetricsMsg&) {
      return MsgType::kQueryMetrics;
    }
    MsgType operator()(const MetricsMsg&) { return MsgType::kMetrics; }
  };
  return std::visit(Visitor{}, msg);
}

std::vector<std::uint8_t> encode_frame(const Message& msg) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  w.u32(0);  // length placeholder
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(msg_type(msg)));

  struct Visitor {
    Writer& w;
    void operator()(const SubmitSweepMsg& m) {
      w.u32(m.client_tag);
      w.u16(m.cores_requested);
      w.u32(static_cast<std::uint32_t>(m.scenarios.size()));
      for (const sim::Scenario& s : m.scenarios) encode_scenario(w, s);
    }
    void operator()(const WhatIfMsg& m) {
      w.u32(m.client_tag);
      encode_scenario(w, m.scenario);
    }
    void operator()(const QueryStatusMsg& m) { w.u32(m.job_id); }
    void operator()(const CancelMsg& m) { w.u32(m.job_id); }
    void operator()(const ShutdownDrainMsg&) {}
    void operator()(const SubmitAckMsg& m) {
      w.u32(m.client_tag);
      w.u32(m.job_id);
      w.u8(m.admitted);
      w.u32(m.queue_position);
    }
    void operator()(const ScenarioResultMsg& m) {
      w.u32(m.job_id);
      w.u32(m.index);
      w.u8(m.ok);
      if (m.ok) {
        encode_metrics(w, m.metrics);
      } else {
        w.str(m.error);
      }
    }
    void operator()(const SweepCompleteMsg& m) {
      w.u32(m.job_id);
      w.u32(m.completed);
      w.u32(m.failed);
      w.u32(m.cancelled);
      w.u8(m.was_cancelled);
    }
    void operator()(const StatusMsg& m) {
      w.u32(m.active_jobs);
      w.u32(m.queued_jobs);
      w.u64(m.scenarios_completed);
      w.u64(m.scenarios_failed);
      w.u64(m.scenarios_cancelled);
      w.u32(m.core_budget);
      w.u32(m.cores_in_use);
      w.u8(m.draining);
      w.u64(m.bank_trace_hits);
      w.u64(m.bank_trace_misses);
      w.u64(m.bank_model_hits);
      w.u64(m.bank_model_misses);
      w.u64(m.bank_steady_hits);
      w.u64(m.bank_steady_misses);
    }
    void operator()(const ErrorMsg& m) {
      w.u16(m.code);
      w.u32(m.client_tag);
      w.str(m.text);
    }
    void operator()(const DrainCompleteMsg& m) { w.u64(m.scenarios_finished); }
    void operator()(const QueryMetricsMsg&) {}
    void operator()(const MetricsMsg& m) {
      w.u32(static_cast<std::uint32_t>(m.entries.size()));
      for (const MetricEntryMsg& e : m.entries) encode_metric_entry(w, e);
    }
  };
  std::visit(Visitor{w}, msg);

  const std::uint32_t payload =
      static_cast<std::uint32_t>(out.size() - 4);
  for (int i = 0; i < 4; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(payload >> (8 * i));
  }
  return out;
}

Decoded decode_payload(std::span<const std::uint8_t> payload) {
  Decoded d;
  Reader r(payload);
  const std::uint8_t version = r.u8();
  const std::uint8_t tag = r.u8();
  if (!r.ok()) {
    d.error = DecodeError::kTruncated;
    d.detail = "payload shorter than the version/tag header";
    return d;
  }
  if (version != kProtocolVersion) {
    d.error = DecodeError::kVersionMismatch;
    d.detail = "frame version " + std::to_string(version) + ", expected " +
               std::to_string(kProtocolVersion);
    return d;
  }

  switch (static_cast<MsgType>(tag)) {
    case MsgType::kSubmitSweep: {
      SubmitSweepMsg m;
      m.client_tag = d.client_tag = r.u32();
      m.cores_requested = r.u16();
      const std::uint32_t n = r.count(kMaxScenariosPerSubmit);
      for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        m.scenarios.push_back(decode_scenario(r));
      }
      d.msg = std::move(m);
      break;
    }
    case MsgType::kWhatIf: {
      WhatIfMsg m;
      m.client_tag = d.client_tag = r.u32();
      m.scenario = decode_scenario(r);
      d.msg = std::move(m);
      break;
    }
    case MsgType::kQueryStatus: {
      QueryStatusMsg m;
      m.job_id = r.u32();
      d.msg = m;
      break;
    }
    case MsgType::kCancel: {
      CancelMsg m;
      m.job_id = r.u32();
      d.msg = m;
      break;
    }
    case MsgType::kShutdownDrain:
      d.msg = ShutdownDrainMsg{};
      break;
    case MsgType::kSubmitAck: {
      SubmitAckMsg m;
      m.client_tag = r.u32();
      m.job_id = r.u32();
      m.admitted = r.u8();
      m.queue_position = r.u32();
      if (r.ok() && m.admitted > 1) r.fail(DecodeError::kBadValue);
      d.msg = m;
      break;
    }
    case MsgType::kScenarioResult: {
      ScenarioResultMsg m;
      m.job_id = r.u32();
      m.index = r.u32();
      m.ok = r.u8();
      if (r.ok() && m.ok > 1) {
        r.fail(DecodeError::kBadValue);
      } else if (m.ok) {
        m.metrics = decode_metrics(r);
      } else {
        m.error = r.str();
      }
      d.msg = std::move(m);
      break;
    }
    case MsgType::kSweepComplete: {
      SweepCompleteMsg m;
      m.job_id = r.u32();
      m.completed = r.u32();
      m.failed = r.u32();
      m.cancelled = r.u32();
      m.was_cancelled = r.u8();
      if (r.ok() && m.was_cancelled > 1) r.fail(DecodeError::kBadValue);
      d.msg = m;
      break;
    }
    case MsgType::kStatus: {
      StatusMsg m;
      m.active_jobs = r.u32();
      m.queued_jobs = r.u32();
      m.scenarios_completed = r.u64();
      m.scenarios_failed = r.u64();
      m.scenarios_cancelled = r.u64();
      m.core_budget = r.u32();
      m.cores_in_use = r.u32();
      m.draining = r.u8();
      m.bank_trace_hits = r.u64();
      m.bank_trace_misses = r.u64();
      m.bank_model_hits = r.u64();
      m.bank_model_misses = r.u64();
      m.bank_steady_hits = r.u64();
      m.bank_steady_misses = r.u64();
      if (r.ok() && m.draining > 1) r.fail(DecodeError::kBadValue);
      d.msg = m;
      break;
    }
    case MsgType::kError: {
      ErrorMsg m;
      m.code = r.u16();
      m.client_tag = r.u32();
      m.text = r.str();
      d.msg = std::move(m);
      break;
    }
    case MsgType::kDrainComplete: {
      DrainCompleteMsg m;
      m.scenarios_finished = r.u64();
      d.msg = m;
      break;
    }
    case MsgType::kQueryMetrics:
      d.msg = QueryMetricsMsg{};
      break;
    case MsgType::kMetrics: {
      MetricsMsg m;
      const std::uint32_t n = r.count(kMaxMetricEntries);
      for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        m.entries.push_back(decode_metric_entry(r));
      }
      d.msg = std::move(m);
      break;
    }
    default:
      d.error = DecodeError::kUnknownType;
      d.detail = "unknown message tag " + std::to_string(tag);
      return d;
  }

  if (!r.ok()) {
    d.error = r.error();
    d.detail = std::string(decode_error_name(r.error())) +
               " while decoding message tag " + std::to_string(tag);
    return d;
  }
  if (r.remaining() != 0) {
    d.error = DecodeError::kMalformed;
    d.detail = std::to_string(r.remaining()) +
               " trailing bytes after message tag " + std::to_string(tag);
    return d;
  }
  return d;
}

FrameSplit split_frame(std::span<const std::uint8_t> buffer) {
  FrameSplit out;
  if (buffer.size() < 4) return out;  // kNeedMore
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(buffer[static_cast<std::size_t>(i)])
           << (8 * i);
  }
  if (len == 0) {
    out.status = FrameSplit::Status::kMalformed;
    out.consumed = 4;
    return out;
  }
  if (len > kMaxFramePayload) {
    out.status = FrameSplit::Status::kOversized;
    out.consumed = 4;
    out.declared_size = len;
    return out;
  }
  if (buffer.size() < 4u + len) return out;  // kNeedMore
  out.status = FrameSplit::Status::kFrame;
  out.consumed = 4u + len;
  out.payload_offset = 4;
  out.payload_size = len;
  return out;
}

}  // namespace tac3d::service::protocol
