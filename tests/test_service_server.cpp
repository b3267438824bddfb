// Server paths a hostile or confused client reaches, driven through a
// real ServiceServer on loopback: malformed and oversized frames, empty
// and late submits, a connection opened during a drain, a response sent
// as a request, cancellation and the live metrics query. Each case asserts the typed answer and that the
// connection keeps serving afterwards (the TSan CI job runs this suite
// too).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

namespace tac3d::service {
namespace {

namespace proto = protocol;

/// A scenario the service runs in a few tens of milliseconds.
sim::Scenario quick_scenario(int seed) {
  sim::Scenario s;
  s.tiers = 2;
  s.policy = sim::PolicyKind::kLcFuzzy;
  s.workload = power::WorkloadKind::kWebServer;
  s.trace_seconds = 20;
  s.seed = static_cast<std::uint64_t>(seed);
  s.grid = thermal::GridOptions{10, 10};
  return s;
}

/// A job long enough to stay running while a test acts on it: on one
/// core its 256 distinct seeds take seconds, and the tests cancel it.
std::vector<sim::Scenario> long_sweep() {
  std::vector<sim::Scenario> v;
  for (int seed = 1; seed <= 256; ++seed) v.push_back(quick_scenario(seed));
  return v;
}

ServerOptions one_core() {
  ServerOptions opts;
  opts.service.core_budget = 1;
  return opts;
}

template <class Code>
void expect_error(const proto::Message& msg, Code code,
                  std::uint32_t client_tag) {
  const auto* err = std::get_if<proto::ErrorMsg>(&msg);
  ASSERT_NE(err, nullptr) << "message tag "
                          << static_cast<int>(proto::msg_type(msg));
  EXPECT_EQ(err->code, static_cast<std::uint16_t>(code)) << err->text;
  EXPECT_EQ(err->client_tag, client_tag) << err->text;
}

/// The connection still answers, and nothing stray was queued ahead of
/// the answer.
void expect_next_is_status(ServiceClient& client) {
  client.send(proto::QueryStatusMsg{});
  const proto::Message reply = client.read_message();
  EXPECT_TRUE(std::holds_alternative<proto::StatusMsg>(reply))
      << "message tag " << static_cast<int>(proto::msg_type(reply));
}

TEST(ServiceServer, ZeroLengthFrameIsMalformed) {
  ServiceServer server(one_core());
  server.start();
  ServiceClient client;
  client.connect("127.0.0.1", server.port());

  const std::uint8_t zero_length[4] = {0, 0, 0, 0};
  client.send_raw(zero_length, sizeof(zero_length));
  expect_error(client.read_message(), proto::DecodeError::kMalformed, 0);
  expect_next_is_status(client);
  server.stop();
}

TEST(ServiceServer, OversizedFrameIsDiscardedAndTheStreamStaysAligned) {
  ServiceServer server(one_core());
  server.start();
  ServiceClient client;
  client.connect("127.0.0.1", server.port());

  // The payload is zeros: a server that parsed it instead of dropping it
  // would answer a kMalformed per 4 bytes ahead of the status below.
  const std::uint32_t declared = proto::kMaxFramePayload + 1;
  std::vector<std::uint8_t> frame(4 + std::size_t{declared}, 0);
  for (int i = 0; i < 4; ++i) {
    frame[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(declared >> (8 * i));
  }
  client.send_raw(frame.data(), frame.size());
  expect_error(client.read_message(), proto::DecodeError::kOversized, 0);
  expect_next_is_status(client);
  server.stop();
}

TEST(ServiceServer, ZeroScenarioSubmitIsBadRequestWithItsTag) {
  ServiceServer server(one_core());
  server.start();
  ServiceClient client;
  client.connect("127.0.0.1", server.port());

  proto::SubmitSweepMsg empty;
  empty.client_tag = 77;
  client.send(empty);
  expect_error(client.read_message(), proto::ServiceError::kBadRequest, 77);
  expect_next_is_status(client);
  server.stop();
}

TEST(ServiceServer, ResponseSentAsARequestIsBadRequest) {
  ServiceServer server(one_core());
  server.start();
  ServiceClient client;
  client.connect("127.0.0.1", server.port());

  client.send(proto::SubmitAckMsg{});
  const proto::Message reply = client.read_message();
  expect_error(reply, proto::ServiceError::kBadRequest, 0);
  const auto* err = std::get_if<proto::ErrorMsg>(&reply);
  ASSERT_NE(err, nullptr);
  EXPECT_NE(err->text.find("not a request"), std::string::npos) << err->text;
  expect_next_is_status(client);
  server.stop();
}

TEST(ServiceServer, SubmitWhileDrainingIsRejectedDraining) {
  ServiceServer server(one_core());
  server.start();
  ServiceClient owner;
  owner.connect("127.0.0.1", server.port());
  // A drain refuses new connections, so the late client connects first.
  ServiceClient late;
  late.connect("127.0.0.1", server.port());

  const proto::SubmitAckMsg ack = owner.submit_sweep(long_sweep(), 1);
  ASSERT_EQ(ack.admitted, 1);
  owner.request_drain();
  // The drain starts on its own thread; the job holds it open.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (late.query_status().draining == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the drain never started";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  proto::SubmitSweepMsg request;
  request.client_tag = 5;
  request.scenarios = {quick_scenario(1000)};
  late.send(request);
  expect_error(late.read_message(), proto::ServiceError::kRejectedDraining,
               5);

  // Cancelling the job lets the drain finish.
  EXPECT_TRUE(owner.cancel(ack.job_id));
  EXPECT_EQ(owner.collect(ack.job_id).complete.was_cancelled, 1);
  owner.wait_drain_complete();
  server.wait();
  EXPECT_FALSE(server.running());
}

TEST(ServiceServer, ConnectionDuringADrainIsRejectedDraining) {
  ServiceServer server(one_core());
  server.start();
  ServiceClient owner;
  owner.connect("127.0.0.1", server.port());
  const proto::SubmitAckMsg ack = owner.submit_sweep(long_sweep(), 1);
  ASSERT_EQ(ack.admitted, 1);
  owner.request_drain();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (owner.query_status().draining == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the drain never started";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The job holds the drain open: a new connection is answered with a
  // typed refusal before it is closed, not closed silently.
  ServiceClient late;
  late.connect("127.0.0.1", server.port());
  expect_error(late.read_message(), proto::ServiceError::kRejectedDraining,
               0);

  EXPECT_TRUE(owner.cancel(ack.job_id));
  EXPECT_EQ(owner.collect(ack.job_id).complete.was_cancelled, 1);
  owner.wait_drain_complete();
  server.wait();
  EXPECT_FALSE(server.running());
}

TEST(ServiceServer, CancelEndsARunningJobAndRefusesAnUnknownOne) {
  ServiceServer server(one_core());
  server.start();
  ServiceClient client;
  client.connect("127.0.0.1", server.port());

  const std::vector<sim::Scenario> sweep = long_sweep();
  const proto::SubmitAckMsg ack = client.submit_sweep(sweep, 1);
  ASSERT_EQ(ack.admitted, 1);
  EXPECT_TRUE(client.cancel(ack.job_id));
  const SweepOutcome out = client.collect(ack.job_id);
  EXPECT_EQ(out.complete.was_cancelled, 1);
  EXPECT_GT(out.complete.cancelled, 0u);
  EXPECT_EQ(out.complete.completed + out.complete.failed +
                out.complete.cancelled,
            sweep.size());
  EXPECT_EQ(out.results.size(), out.complete.completed + out.complete.failed);

  EXPECT_FALSE(client.cancel(ack.job_id + 1000));
  expect_next_is_status(client);
  server.stop();
}

TEST(ServiceServer, QueryMetricsStreamsTheServiceEntries) {
  ServiceServer server(one_core());
  server.start();
  ServiceClient client;
  client.connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.what_if(quick_scenario(1)).ok);

  const proto::MetricsMsg metrics = client.query_metrics();
  // Registered names stream whether or not recording is on; the what-if
  // above counts only when it is.
  const bool counts = obs::metrics_enabled();
  std::set<std::string> service_entries;
  for (const proto::MetricEntryMsg& e : metrics.entries) {
    if (e.name.starts_with("service/")) service_entries.insert(e.name);
    if (e.name == "service/ttfr_ms") {
      EXPECT_EQ(e.kind, proto::MetricEntryMsg::kHistogram);
      EXPECT_TRUE(!counts || e.count >= 1u);
    }
    if (e.name == "service/scenarios_done") {
      EXPECT_EQ(e.kind, proto::MetricEntryMsg::kCounter);
      EXPECT_TRUE(!counts || e.count >= 1u);
    }
    if (e.name == "service/queue_depth") {
      EXPECT_EQ(e.kind, proto::MetricEntryMsg::kGauge);
    }
    if (e.name == "service/scenarios_lent" || e.name == "service/reclaims") {
      EXPECT_EQ(e.kind, proto::MetricEntryMsg::kCounter);
    }
  }
  for (const char* name :
       {"service/ttfr_ms", "service/scenarios_done", "service/queue_depth",
        "service/scenarios_lent", "service/reclaims"}) {
    EXPECT_TRUE(service_entries.contains(name)) << name;
  }
  expect_next_is_status(client);
  server.stop();
}

}  // namespace
}  // namespace tac3d::service
