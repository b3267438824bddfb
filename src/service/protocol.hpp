#pragma once
/// \file protocol.hpp
/// \brief Wire protocol of the sweep service: length-prefixed binary
/// frames with versioned message types.
///
/// Framing: every message travels as
///
///   u32 LE payload length | u8 version | u8 message tag | body
///
/// The length counts the payload (version byte onward) and is capped at
/// kMaxFramePayload; a prefix above the cap is reported as kOversized
/// with the declared size, so a server can reject the frame, discard the
/// declared bytes as they arrive and keep the connection alive. All
/// integers are little-endian regardless of host order; doubles travel
/// as their IEEE-754 bit pattern.
///
/// Each message struct names its tag once (kType), and protocol.cpp
/// lists its wire fields once, in one fields() function that both
/// encode_frame and decode_payload run: the encoder and the decoder
/// cannot drift apart field by field.
///
/// Decoding is defensive by contract: every read is bounds-checked, enum
/// fields and scenario sizes are range-validated, strings carry explicit
/// lengths, and a payload must be consumed exactly — any violation
/// yields a typed DecodeError (never UB, never an exception), which
/// tests/test_service_protocol.cpp exercises adversarially under
/// ASan/UBSan; its golden frames and decode-outcome digest pin the
/// format to committed values.
///
/// Scenarios are self-describing on the wire: the swept axes (stack,
/// policy, workload, trace synthesis, grid, solver, timing) cross, while
/// process-local attachments (shared trace pointers, structure caches,
/// prepared initial states) never do — the serving side re-resolves them
/// through its ScenarioBank, which is bitwise-neutral by construction.

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "sim/bank.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"

namespace tac3d::service::protocol {

/// Protocol version carried by every frame; a mismatch is rejected with
/// DecodeError::kVersionMismatch (no negotiation — the service and its
/// clients ship from one tree).
inline constexpr std::uint8_t kProtocolVersion = 2;

/// Maximum payload bytes of one frame. Generous for the largest real
/// message (a submit of kMaxScenariosPerSubmit scenarios) while keeping
/// a hostile length prefix from reserving gigabytes.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;

/// Maximum scenarios one submit-sweep request may carry.
inline constexpr std::uint32_t kMaxScenariosPerSubmit = 4096;

/// Maximum bytes of any string field (labels, error texts).
inline constexpr std::uint32_t kMaxStringBytes = 1u << 14;

/// Documented ranges of a scenario's size fields. A scenario outside
/// them decodes to DecodeError::kBadValue: the grid, the trace length,
/// the control step count and the leakage fixed-point iterations set a
/// scenario's memory and its time, so one hostile request could
/// otherwise exhaust the server or hold a worker for hours (cancel stops
/// a running scenario only at its next control interval). So does a sim.solver_tolerance outside (0, 1),
/// the range thermal::TransientSolver accepts: a NaN, zero or negative
/// tolerance can never be met.
///
/// grid.rows and grid.cols: [kMinGridCells, kMaxGridCells].
inline constexpr int kMinGridCells = 2;
inline constexpr int kMaxGridCells = 64;
/// grid.x_refine and grid.z_refine: [1, kMaxGridRefine].
inline constexpr int kMaxGridRefine = 4;
/// trace_seconds: [1, kMaxTraceSeconds] (one day).
inline constexpr int kMaxTraceSeconds = 86400;
/// sim.control_dt must be finite and positive, sim.duration finite and
/// non-negative, and sim::control_steps() — the count a session steps —
/// at most kMaxControlSteps: a one-day trace at 1/48 s.
inline constexpr int kMaxControlSteps = 1 << 22;
/// sim.init_iterations: [1, kMaxInitIterations].
inline constexpr int kMaxInitIterations = 64;

/// Message tags. Requests are < 64, responses >= 64; unknown values are
/// rejected with DecodeError::kUnknownType.
enum class MsgType : std::uint8_t {
  // requests
  kSubmitSweep = 1,    ///< run a batch of scenarios, stream the results
  kWhatIf = 2,         ///< single-scenario convenience submit
  kQueryStatus = 3,    ///< server/bank/admission counters
  kCancel = 4,         ///< cancel one job (its scenarios stop or are skipped)
  kShutdownDrain = 5,  ///< finish accepted work, then shut down
  kQueryMetrics = 6,   ///< live registry snapshot (obs counters/histograms)
  // responses
  kSubmitAck = 64,       ///< job id + admitted-or-queued
  kScenarioResult = 65,  ///< one scenario's metrics, streamed on finish
  kSweepComplete = 66,   ///< end of a job's stream
  kStatus = 67,          ///< answer to kQueryStatus
  kError = 68,           ///< typed rejection (decode or service level)
  kDrainComplete = 69,   ///< all accepted work finished; server stopping
  kMetrics = 70,         ///< answer to kQueryMetrics
};

/// Typed decode failures. Values double as wire error codes (ErrorMsg).
enum class DecodeError : std::uint16_t {
  kOk = 0,
  kTruncated = 1,        ///< payload ended before a field did
  kOversized = 2,        ///< length prefix beyond kMaxFramePayload
  kUnknownType = 3,      ///< unrecognized message tag
  kVersionMismatch = 4,  ///< frame version != kProtocolVersion
  kMalformed = 5,        ///< structurally invalid (zero frame, trailing bytes)
  kBadValue = 6,         ///< enum/range-validated field out of range
};

/// Service-level error codes (share the ErrorMsg::code space with
/// DecodeError; decode codes are < 64, service codes >= 64).
enum class ServiceError : std::uint16_t {
  kRejectedDraining = 64,  ///< submit or connection refused: draining
  kBadRequest = 65,        ///< semantically invalid request (0 scenarios)
  kUnknownJob = 66,        ///< cancel/query of a job id never issued
};

const char* decode_error_name(DecodeError e);

// --- message bodies -------------------------------------------------------
//
// Flags travel as one byte and decode rejects any value above 1. The
// check reads the wire byte, so it bounds a bool field too (the
// scenario's grid.discrete_channels).

struct SubmitSweepMsg {
  static constexpr MsgType kType = MsgType::kSubmitSweep;
  std::uint32_t client_tag = 0;  ///< echoed in the ack (client correlation)
  std::uint16_t cores_requested = 1;  ///< admission weight against the budget
  std::vector<sim::Scenario> scenarios;
};

struct WhatIfMsg {
  static constexpr MsgType kType = MsgType::kWhatIf;
  std::uint32_t client_tag = 0;
  sim::Scenario scenario;
};

struct QueryStatusMsg {
  static constexpr MsgType kType = MsgType::kQueryStatus;
  std::uint32_t job_id = 0;  ///< reserved; 0 = server-wide status
};

struct CancelMsg {
  static constexpr MsgType kType = MsgType::kCancel;
  std::uint32_t job_id = 0;
};

struct ShutdownDrainMsg {
  static constexpr MsgType kType = MsgType::kShutdownDrain;
};

struct SubmitAckMsg {
  static constexpr MsgType kType = MsgType::kSubmitAck;
  std::uint32_t client_tag = 0;
  std::uint32_t job_id = 0;
  std::uint8_t admitted = 0;        ///< 1 = running, 0 = queued
  std::uint32_t queue_position = 0; ///< 0-based position when queued
};

struct ScenarioResultMsg {
  static constexpr MsgType kType = MsgType::kScenarioResult;
  std::uint32_t job_id = 0;
  std::uint32_t index = 0;  ///< position in the submitted scenario list
  std::uint8_t ok = 0;
  sim::SimMetrics metrics;  ///< valid when ok
  std::string error;        ///< non-empty when !ok
};

struct SweepCompleteMsg {
  static constexpr MsgType kType = MsgType::kSweepComplete;
  std::uint32_t job_id = 0;
  std::uint32_t completed = 0;
  std::uint32_t failed = 0;
  std::uint32_t cancelled = 0;
  std::uint8_t was_cancelled = 0;
};

struct StatusMsg {
  static constexpr MsgType kType = MsgType::kStatus;
  std::uint32_t active_jobs = 0;
  std::uint32_t queued_jobs = 0;
  std::uint64_t scenarios_completed = 0;
  std::uint64_t scenarios_failed = 0;
  std::uint64_t scenarios_cancelled = 0;
  std::uint32_t core_budget = 0;
  std::uint32_t cores_in_use = 0;
  std::uint8_t draining = 0;
  sim::BankCounters bank;  ///< the shared bank's tier counters
};

struct ErrorMsg {
  static constexpr MsgType kType = MsgType::kError;
  std::uint16_t code = 0;  ///< DecodeError or ServiceError value
  /// The request's client_tag, also when its body failed to decode; 0
  /// when the tag itself could not be read.
  std::uint32_t client_tag = 0;
  std::string text;
};

struct DrainCompleteMsg {
  static constexpr MsgType kType = MsgType::kDrainComplete;
  std::uint64_t scenarios_finished = 0;  ///< completed over the server's life
};

struct QueryMetricsMsg {
  static constexpr MsgType kType = MsgType::kQueryMetrics;
};

/// One metric of a registry snapshot on the wire.
struct MetricEntryMsg {
  /// Kinds; range-validated on decode (kBadValue past kHistogram).
  enum : std::uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };
  std::string name;        ///< registry name, e.g. "service/ttfr_ms"
  std::uint8_t kind = kCounter;
  std::uint64_t count = 0; ///< counter value / histogram sample count
  double value = 0.0;      ///< gauge value / histogram sum
  double min = 0.0, max = 0.0;  ///< histogram extremes (0 otherwise)
  /// Sparse non-empty histogram buckets: (obs::Histogram index, count).
  std::vector<std::pair<std::uint8_t, std::uint64_t>> buckets;
};

/// Maximum entries of one kMetrics frame / buckets of one entry (the
/// truthful counts cannot outrun the payload cap, but the bounds keep
/// a hostile count from reserving memory up front).
inline constexpr std::uint32_t kMaxMetricEntries = 1024;
inline constexpr std::uint32_t kMaxMetricBuckets = 128;

struct MetricsMsg {
  static constexpr MsgType kType = MsgType::kMetrics;
  std::vector<MetricEntryMsg> entries;
};

using Message =
    std::variant<SubmitSweepMsg, WhatIfMsg, QueryStatusMsg, CancelMsg,
                 ShutdownDrainMsg, QueryMetricsMsg, SubmitAckMsg,
                 ScenarioResultMsg, SweepCompleteMsg, StatusMsg, ErrorMsg,
                 DrainCompleteMsg, MetricsMsg>;

inline MsgType msg_type(const Message& msg) {
  return std::visit([](const auto& m) { return m.kType; }, msg);
}

// --- encode ---------------------------------------------------------------

/// Serialize \p msg into one complete frame (length prefix included).
std::vector<std::uint8_t> encode_frame(const Message& msg);

// --- decode ---------------------------------------------------------------

/// Result of decoding one frame payload.
struct Decoded {
  DecodeError error = DecodeError::kOk;
  std::string detail;  ///< human-readable context on failure
  Message msg;         ///< valid when ok()
  /// A submit or what-if request's client_tag, read before its body, so
  /// a rejection can still name the request (0 otherwise).
  std::uint32_t client_tag = 0;

  bool ok() const { return error == DecodeError::kOk; }
};

/// Decode one payload (the bytes after the length prefix). Never throws,
/// never reads out of bounds; rejects unknown tags, version mismatches,
/// truncated/overlong bodies and out-of-range enum values with the
/// matching DecodeError.
Decoded decode_payload(std::span<const std::uint8_t> payload);

/// Stream-splitting outcome of split_frame().
struct FrameSplit {
  enum class Status {
    kNeedMore,   ///< buffer holds no complete frame yet
    kFrame,      ///< one payload available at [payload_offset, +payload_size)
    kOversized,  ///< length prefix exceeds kMaxFramePayload
    kMalformed,  ///< zero-length frame
  };
  Status status = Status::kNeedMore;
  std::size_t consumed = 0;        ///< bytes to drop from the buffer head
  std::size_t payload_offset = 0;  ///< valid for kFrame
  std::size_t payload_size = 0;    ///< valid for kFrame
  /// kOversized: payload bytes the peer declared (still in flight); the
  /// server discards exactly this many bytes to stay frame-aligned
  /// without buffering them.
  std::uint64_t declared_size = 0;
};

/// Find the first complete frame at the head of \p buffer. kFrame
/// consumes prefix+payload; kOversized/kMalformed consume only the
/// 4-byte prefix (the caller discards declared_size bytes for
/// kOversized).
FrameSplit split_frame(std::span<const std::uint8_t> buffer);

}  // namespace tac3d::service::protocol
