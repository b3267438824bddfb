#pragma once
/// \file client.hpp
/// \brief Blocking client of the sweep service: framing, request
/// helpers, and a collect loop that gathers a job's streamed results.
///
/// One ServiceClient wraps one connection and is meant to be driven from
/// one thread (tests and the bench run one client per worker thread).
/// Messages the current call is not waiting for — e.g. results of an
/// earlier job still streaming — are parked in an inbox and replayed to
/// later calls, so several jobs may be in flight on one connection.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "service/protocol.hpp"

namespace tac3d::service {

/// A job's collected stream: per-scenario results (input order) plus the
/// terminating completion summary.
struct SweepOutcome {
  std::uint32_t job_id = 0;
  std::vector<protocol::ScenarioResultMsg> results;  ///< sorted by index
  protocol::SweepCompleteMsg complete;
};

class ServiceClient {
 public:
  ServiceClient() = default;
  ~ServiceClient();

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  /// Connect to a sweep server. Throws tac3d::Error on failure.
  void connect(const std::string& host, int port);
  bool connected() const { return fd_ >= 0; }
  void close();

  // --- low level (adversarial tests drive these directly) ---------------

  /// Encode + send one message. Throws when the peer is gone.
  void send(const protocol::Message& msg);
  /// Send raw bytes verbatim (malformed-frame injection).
  void send_raw(const void* data, std::size_t n);
  /// Block until one complete, decodable message arrives. Server-side
  /// rejections travel as ErrorMsg values, not exceptions. Throws
  /// tac3d::Error on EOF or an undecodable frame.
  protocol::Message read_message();

  // --- requests ---------------------------------------------------------

  /// Submit a sweep and wait for its ack. Throws on an ErrorMsg reply.
  protocol::SubmitAckMsg submit_sweep(std::vector<sim::Scenario> scenarios,
                                      int cores_requested = 1,
                                      std::uint32_t client_tag = 0);

  /// Gather job_id's streamed results until its kSweepComplete. Results
  /// are returned sorted by scenario index. \p on_result (optional) is
  /// invoked per result in arrival order — e.g. to timestamp the first
  /// one for time-to-first-result measurements.
  SweepOutcome collect(
      std::uint32_t job_id,
      const std::function<void(const protocol::ScenarioResultMsg&)>&
          on_result = nullptr);

  /// submit_sweep + collect.
  SweepOutcome run_sweep(std::vector<sim::Scenario> scenarios,
                         int cores_requested = 1);

  /// Single-scenario submit; returns its result message. Each call tags
  /// its request with a fresh nonzero client_tag from this client's
  /// counter and takes only the ack or error carrying it, so sweeps
  /// pipelined on the same connection keep their own acks.
  protocol::ScenarioResultMsg what_if(const sim::Scenario& scenario);

  protocol::StatusMsg query_status();

  /// Live registry snapshot (queue depth, bank hit rates, TTFR/
  /// admission histograms) streamed as kMetrics.
  protocol::MetricsMsg query_metrics();

  /// Request cancellation of \p job_id. The job's stream still ends with
  /// kSweepComplete (was_cancelled); an unknown id yields an ErrorMsg,
  /// returned as false.
  bool cancel(std::uint32_t job_id);

  /// Ask the server to drain (finish accepted work, then shut down).
  void request_drain();

  /// Block until the server's kDrainComplete arrives (other messages are
  /// parked in the inbox).
  protocol::DrainCompleteMsg wait_drain_complete();

 private:
  /// Next message matching \p pred; non-matching ones go to the inbox.
  template <typename Pred>
  protocol::Message read_matching(Pred pred);

  /// The ack of the request tagged \p client_tag; throws on its
  /// ErrorMsg, naming the request \p what.
  protocol::SubmitAckMsg read_ack(std::uint32_t client_tag, const char* what);

  int fd_ = -1;
  std::vector<std::uint8_t> buffer_;
  std::deque<protocol::Message> inbox_;
  std::uint32_t what_if_tag_ = 0;  ///< last tag what_if() used
};

}  // namespace tac3d::service
