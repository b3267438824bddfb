#include "service/protocol.hpp"

#include <bit>
#include <cmath>
#include <type_traits>
#include <utility>

namespace tac3d::service::protocol {

namespace {

// --- little-endian writer -------------------------------------------------

/// Appends fields to a frame. Ranges and checks are the Reader's
/// business: encoding trusts our own messages.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  template <class T, class... Range>
  void u8(const T& v, Range...) { put<std::uint8_t>(v); }
  template <class T, class... Range>
  void u16(const T& v, Range...) { put<std::uint16_t>(v); }
  template <class T, class... Range>
  void u32(const T& v, Range...) { put<std::uint32_t>(v); }
  template <class T>
  void u64(const T& v) { put<std::uint64_t>(v); }
  void f64(double v) { put<std::uint64_t>(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u32(s.size());
    out_.insert(out_.end(), s.begin(), s.end());
  }
  /// A presence flag, then the value (0 when absent).
  template <class T>
  void optional_u8(const std::optional<T>& v, T, T) {
    u8(v.has_value());
    u8(v.value_or(T{}));
  }
  /// A u32 count, then \p item on each element.
  template <class T, class Item>
  void list(const std::vector<T>& v, std::uint32_t, Item item) {
    u32(v.size());
    for (const T& e : v) item(e);
  }
  template <class... Valid>
  void check(Valid...) {}

 private:
  template <class Wire, class T>
  void put(const T& v) {
    const auto w = static_cast<Wire>(v);
    for (std::size_t i = 0; i < sizeof(Wire); ++i) {
      out_.push_back(static_cast<std::uint8_t>(w >> (8 * i)));
    }
  }

  std::vector<std::uint8_t>& out_;
};

// --- bounds-checked little-endian reader ----------------------------------

/// Reads fields into a message. Every read checks the remaining byte
/// count and latches kTruncated on underflow; later reads leave their
/// field untouched. Callers check ok() (or the latched error) once at
/// the end instead of after every field — no read ever touches memory
/// past the payload.
///
/// A field read with a [lo, hi] range is stored only when inside it.
/// One outside is reported as kBadValue by the record's next check(),
/// after the record's fixed fields are in, so a short payload is
/// kTruncated even when a field before the cut was out of range.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  bool ok() const { return error_ == DecodeError::kOk; }
  DecodeError error() const { return error_; }
  std::size_t remaining() const { return data_.size() - pos_; }

  template <class T, class... Range>
  void u8(T& v, Range... range) { get<std::uint8_t>(v, range...); }
  template <class T, class... Range>
  void u16(T& v, Range... range) { get<std::uint16_t>(v, range...); }
  template <class T, class... Range>
  void u32(T& v, Range... range) { get<std::uint32_t>(v, range...); }
  template <class T>
  void u64(T& v) { get<std::uint64_t>(v); }
  void f64(double& v) {
    std::uint64_t bits = 0;
    get<std::uint64_t>(bits);
    if (ok()) v = std::bit_cast<double>(bits);
  }

  void str(std::string& s) {
    std::uint32_t n = 0;
    get<std::uint32_t>(n);
    if (!ok()) return;
    if (n > kMaxStringBytes) {
      fail(DecodeError::kBadValue);
      return;
    }
    if (!take(n)) return;
    s.assign(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
  }

  template <class T>
  void optional_u8(std::optional<T>& v, T lo, T hi) {
    std::uint8_t present = 0;
    T value{};
    u8(present, 0, 1);
    u8(value, lo, hi);
    if (present) v = value;
  }

  /// A count above \p max fails as kBadValue at once, so a hostile
  /// count cannot drive a huge reserve or a quadratic loop.
  template <class T, class Item>
  void list(std::vector<T>& v, std::uint32_t max, Item item) {
    std::uint32_t n = 0;
    get<std::uint32_t>(n);
    if (ok() && n > max) fail(DecodeError::kBadValue);
    for (std::uint32_t i = 0; i < n && ok(); ++i) item(v.emplace_back());
  }

  /// Closes the ranged fields read so far: kBadValue when one was out
  /// of range or \p valid() is false, unless the payload already failed.
  template <class Valid>
  void check(Valid valid) {
    if (ok() && (out_of_range_ || !valid())) fail(DecodeError::kBadValue);
    out_of_range_ = false;
  }
  void check() {
    check([] { return true; });
  }

 private:
  template <class Wire, class T>
  void get(T& v) {
    if (!take(sizeof(Wire))) return;
    v = static_cast<T>(load<Wire>());
  }
  /// The range is checked on the wire value, before the cast, so a bool
  /// field bounded (false, true) rejects 0x02 instead of reading it as
  /// true. Every range's bounds are non-negative.
  template <class Wire, class T>
  void get(T& v, std::type_identity_t<T> lo, std::type_identity_t<T> hi) {
    if (!take(sizeof(Wire))) return;
    const Wire w = load<Wire>();
    if (w < static_cast<Wire>(lo) || static_cast<Wire>(hi) < w) {
      out_of_range_ = true;
    } else {
      v = static_cast<T>(w);
    }
  }
  template <class Wire>
  Wire load() {
    Wire w = 0;
    for (std::size_t i = 0; i < sizeof(Wire); ++i) {
      w = static_cast<Wire>(w | static_cast<Wire>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(Wire);
    return w;
  }
  bool take(std::size_t n) {
    if (!ok()) return false;
    if (remaining() < n) {
      error_ = DecodeError::kTruncated;
      return false;
    }
    return true;
  }
  void fail(DecodeError e) {
    if (error_ == DecodeError::kOk) error_ = e;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  DecodeError error_ = DecodeError::kOk;
  bool out_of_range_ = false;
};

// --- one field list per message -------------------------------------------

/// \p T as fields() sees it: read-only to the Writer, filled by the
/// Reader.
template <class IO, class T>
using Field = std::conditional_t<std::is_same_v<IO, Writer>, const T, T>;

template <class IO>
void fields(IO& io, Field<IO, sim::Scenario>& s) {
  io.str(s.label);
  io.u8(s.tiers);
  io.u8(s.policy, sim::PolicyKind::kAcLb, sim::PolicyKind::kLcFuzzy);
  io.optional_u8(s.cooling, arch::CoolingKind::kAirCooled,
                 arch::CoolingKind::kLiquidCooled);
  io.u8(s.workload, power::WorkloadKind::kWebServer,
        power::WorkloadKind::kPeriodic);
  io.u32(s.trace_seconds, 1, kMaxTraceSeconds);
  io.u64(s.seed);
  io.u16(s.grid.rows, kMinGridCells, kMaxGridCells);
  io.u16(s.grid.cols, kMinGridCells, kMaxGridCells);
  io.u8(s.grid.discrete_channels, false, true);
  io.u16(s.grid.x_refine, 1, kMaxGridRefine);
  io.u16(s.grid.z_refine, 1, kMaxGridRefine);
  io.u8(s.sim.solver, sparse::SolverKind::kBandedLu,
        sparse::SolverKind::kBicgstabIlu0);
  io.f64(s.sim.control_dt);
  io.f64(s.sim.duration);
  io.f64(s.sim.solver_tolerance);
  io.u32(s.sim.init_iterations, 1, kMaxInitIterations);
  // The timing limits documented in protocol.hpp; control_steps() runs
  // only on a scenario whose other fields passed.
  io.check([&] {
    return std::isfinite(s.sim.control_dt) && s.sim.control_dt > 0.0 &&
           std::isfinite(s.sim.duration) && s.sim.duration >= 0.0 &&
           s.sim.solver_tolerance > 0.0 && s.sim.solver_tolerance < 1.0 &&
           sim::control_steps(s.sim, s.trace_seconds) <= kMaxControlSteps;
  });
}

template <class IO>
void fields(IO& io, Field<IO, sim::SimMetrics>& m) {
  io.f64(m.duration);
  io.f64(m.any_hot_time);
  io.f64(m.peak_temp);
  io.f64(m.chip_energy);
  io.f64(m.pump_energy);
  io.f64(m.offered_work);
  io.f64(m.lost_work);
  io.f64(m.avg_flow_fraction);
  io.u64(m.migrations);
  // 1024 cores is far beyond any modeled chip; the cap bounds the
  // allocation a hostile count could demand. A truthful count still
  // cannot outrun the payload: an overlong one fails as kTruncated.
  io.list(m.core_hot_time, 1024, [&](auto& t) { io.f64(t); });
}

template <class IO>
void fields(IO& io, Field<IO, MetricEntryMsg>& e) {
  io.str(e.name);
  io.u8(e.kind, MetricEntryMsg::kCounter, MetricEntryMsg::kHistogram);
  io.u64(e.count);
  io.f64(e.value);
  io.f64(e.min);
  io.f64(e.max);
  io.check();
  // Each bucket is 9 bytes, so a truthful count cannot outrun the
  // payload; the cap bounds what a hostile one may reserve.
  io.list(e.buckets, kMaxMetricBuckets, [&](auto& b) {
    io.u8(b.first);
    io.u64(b.second);
  });
}

template <class IO>
void fields(IO& io, Field<IO, SubmitSweepMsg>& m) {
  io.u32(m.client_tag);
  io.u16(m.cores_requested);
  io.list(m.scenarios, kMaxScenariosPerSubmit,
          [&](auto& s) { fields(io, s); });
}

template <class IO>
void fields(IO& io, Field<IO, WhatIfMsg>& m) {
  io.u32(m.client_tag);
  fields(io, m.scenario);
}

template <class IO>
void fields(IO& io, Field<IO, QueryStatusMsg>& m) {
  io.u32(m.job_id);
}

template <class IO>
void fields(IO& io, Field<IO, CancelMsg>& m) {
  io.u32(m.job_id);
}

template <class IO>
void fields(IO&, Field<IO, ShutdownDrainMsg>&) {}

template <class IO>
void fields(IO&, Field<IO, QueryMetricsMsg>&) {}

template <class IO>
void fields(IO& io, Field<IO, SubmitAckMsg>& m) {
  io.u32(m.client_tag);
  io.u32(m.job_id);
  io.u8(m.admitted, 0, 1);
  io.u32(m.queue_position);
  io.check();
}

template <class IO>
void fields(IO& io, Field<IO, ScenarioResultMsg>& m) {
  io.u32(m.job_id);
  io.u32(m.index);
  io.u8(m.ok, 0, 1);
  io.check();  // the rest of the body depends on ok
  if (m.ok) {
    fields(io, m.metrics);
  } else {
    io.str(m.error);
  }
}

template <class IO>
void fields(IO& io, Field<IO, SweepCompleteMsg>& m) {
  io.u32(m.job_id);
  io.u32(m.completed);
  io.u32(m.failed);
  io.u32(m.cancelled);
  io.u8(m.was_cancelled, 0, 1);
  io.check();
}

template <class IO>
void fields(IO& io, Field<IO, StatusMsg>& m) {
  io.u32(m.active_jobs);
  io.u32(m.queued_jobs);
  io.u64(m.scenarios_completed);
  io.u64(m.scenarios_failed);
  io.u64(m.scenarios_cancelled);
  io.u32(m.core_budget);
  io.u32(m.cores_in_use);
  io.u8(m.draining, 0, 1);
  io.u64(m.bank.trace_hits);
  io.u64(m.bank.trace_misses);
  io.u64(m.bank.model_hits);
  io.u64(m.bank.model_misses);
  io.u64(m.bank.steady_hits);
  io.u64(m.bank.steady_misses);
  io.check();
}

template <class IO>
void fields(IO& io, Field<IO, ErrorMsg>& m) {
  io.u16(m.code);
  io.u32(m.client_tag);
  io.str(m.text);
}

template <class IO>
void fields(IO& io, Field<IO, DrainCompleteMsg>& m) {
  io.u64(m.scenarios_finished);
}

template <class IO>
void fields(IO& io, Field<IO, MetricsMsg>& m) {
  io.list(m.entries, kMaxMetricEntries, [&](auto& e) { fields(io, e); });
}

/// Make \p msg the default alternative whose kType is \p tag; false when
/// no message carries that tag.
template <std::size_t I = 0>
bool emplace_tagged(Message& msg, std::uint8_t tag) {
  if constexpr (I < std::variant_size_v<Message>) {
    using M = std::variant_alternative_t<I, Message>;
    if (tag != static_cast<std::uint8_t>(M::kType)) {
      return emplace_tagged<I + 1>(msg, tag);
    }
    msg.emplace<I>();
    return true;
  }
  return false;
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

std::vector<std::uint8_t> encode_frame(const Message& msg) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  w.u32(0u);  // length placeholder
  w.u8(kProtocolVersion);
  std::visit(
      [&](const auto& m) {
        w.u8(m.kType);
        fields(w, m);
      },
      msg);

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
  std::uint8_t version = 0;
  std::uint8_t tag = 0;
  r.u8(version);
  r.u8(tag);
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
  if (!emplace_tagged(d.msg, tag)) {
    d.error = DecodeError::kUnknownType;
    d.detail = "unknown message tag " + std::to_string(tag);
    return d;
  }

  std::visit(
      [&](auto& m) {
        fields(r, m);
        // The tag leads the body, so a rejection can still name the
        // request it answers.
        using M = std::remove_cvref_t<decltype(m)>;
        if constexpr (M::kType == MsgType::kSubmitSweep ||
                      M::kType == MsgType::kWhatIf) {
          d.client_tag = m.client_tag;
        }
      },
      d.msg);

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
