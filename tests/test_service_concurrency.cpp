// Concurrency contract of the sweep service: several clients hammering
// one server over loopback get results bitwise identical to a direct
// run_sweep of the same scenarios, the shared warm bank serves every
// repeat submission from its cached tiers, acks always precede the
// job's streamed results, and admission respects the core budget.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "sim/bank.hpp"
#include "sim/prepared.hpp"
#include "sim/sweep.hpp"

namespace tac3d::service {
namespace {

/// The paper's Fig. 6/7 stack x policy matrix, shrunk (short trace,
/// coarse grid) so the whole suite runs in seconds.
std::vector<sim::Scenario> paper_matrix() {
  sim::Scenario base;
  base.trace_seconds = 20;
  base.grid = thermal::GridOptions{10, 10};
  return sim::ScenarioMatrix::paper_fig67().base(base).build();
}

void expect_bitwise_equal(const sim::SimMetrics& a, const sim::SimMetrics& b,
                          const std::string& what) {
  EXPECT_EQ(a.duration, b.duration) << what;
  EXPECT_EQ(a.peak_temp, b.peak_temp) << what;
  EXPECT_EQ(a.any_hot_time, b.any_hot_time) << what;
  EXPECT_EQ(a.chip_energy, b.chip_energy) << what;
  EXPECT_EQ(a.pump_energy, b.pump_energy) << what;
  EXPECT_EQ(a.offered_work, b.offered_work) << what;
  EXPECT_EQ(a.lost_work, b.lost_work) << what;
  EXPECT_EQ(a.avg_flow_fraction, b.avg_flow_fraction) << what;
  EXPECT_EQ(a.migrations, b.migrations) << what;
  EXPECT_EQ(a.core_hot_time, b.core_hot_time) << what;
}

TEST(ServiceConcurrency, ConcurrentClientsMatchDirectSweepBitwise) {
  const std::vector<sim::Scenario> scenarios = paper_matrix();

  // Direct reference: the plain parallel sweep runner.
  const sim::SweepReport reference = sim::run_sweep(scenarios);
  ASSERT_TRUE(reference.all_ok());

  ServerOptions opts;
  opts.service.core_budget = 4;
  ServiceServer server(opts);
  server.start();

  constexpr int kClients = 3;
  std::vector<SweepOutcome> outcomes(kClients);
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        ServiceClient client;
        client.connect("127.0.0.1", server.port());
        outcomes[static_cast<std::size_t>(c)] =
            client.run_sweep(scenarios, /*cores_requested=*/2);
      } catch (const std::exception& e) {
        failures[static_cast<std::size_t>(c)] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();

  for (int c = 0; c < kClients; ++c) {
    SCOPED_TRACE("client " + std::to_string(c));
    ASSERT_TRUE(failures[static_cast<std::size_t>(c)].empty())
        << failures[static_cast<std::size_t>(c)];
    const SweepOutcome& out = outcomes[static_cast<std::size_t>(c)];
    EXPECT_FALSE(out.complete.was_cancelled);
    EXPECT_EQ(out.complete.failed, 0u);
    EXPECT_EQ(out.complete.completed, scenarios.size());
    ASSERT_EQ(out.results.size(), scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      ASSERT_TRUE(out.results[i].ok) << out.results[i].error;
      EXPECT_EQ(out.results[i].index, i);
      expect_bitwise_equal(out.results[i].metrics,
                           reference.at(i).metrics,
                           "scenario " + scenarios[i].label);
    }
  }

  server.stop();
}

TEST(ServiceConcurrency, WarmBankServesRepeatSubmissionsFromCache) {
  const std::vector<sim::Scenario> scenarios = paper_matrix();

  ServerOptions opts;
  opts.service.core_budget = 2;
  ServiceServer server(opts);
  server.start();

  // The server synthesizes each trace from its (workload, seed, length)
  // axes. Count the distinct bank keys: policies sharing a stack share
  // model and steady artifacts.
  std::set<std::string> steady_keys, model_keys;
  for (const sim::Scenario& s : scenarios) {
    steady_keys.insert(sim::scenario_steady_key(s));
    model_keys.insert(sim::scenario_model_key(s));
  }
  ASSERT_LT(steady_keys.size(), scenarios.size());  // sharing is real

  ServiceClient first;
  first.connect("127.0.0.1", server.port());
  const SweepOutcome cold = first.run_sweep(scenarios, 2);
  ASSERT_EQ(cold.complete.failed, 0u);

  const protocol::StatusMsg after_cold = first.query_status();
  // The cold sweep built each distinct steady state exactly once and
  // served the equal-keyed repeats from the tier.
  EXPECT_EQ(after_cold.bank.steady_misses, steady_keys.size());
  EXPECT_EQ(after_cold.bank.steady_hits,
            scenarios.size() - steady_keys.size());
  EXPECT_EQ(after_cold.bank.model_misses, model_keys.size());

  // A second client replaying the matrix must be served entirely from
  // the shared warm bank: steady hits grow by the scenario count, the
  // miss counters stay frozen.
  ServiceClient second;
  second.connect("127.0.0.1", server.port());
  const SweepOutcome warm = second.run_sweep(scenarios, 2);
  ASSERT_EQ(warm.complete.failed, 0u);

  const protocol::StatusMsg after_warm = second.query_status();
  EXPECT_EQ(after_warm.bank.steady_misses, after_cold.bank.steady_misses);
  EXPECT_EQ(after_warm.bank.steady_hits,
            after_cold.bank.steady_hits + scenarios.size());
  EXPECT_EQ(after_warm.bank.model_misses, after_cold.bank.model_misses);
  EXPECT_EQ(after_warm.scenarios_completed, 2 * scenarios.size());

  // Warm results stay bitwise identical to cold ones.
  ASSERT_EQ(warm.results.size(), cold.results.size());
  for (std::size_t i = 0; i < warm.results.size(); ++i) {
    expect_bitwise_equal(warm.results[i].metrics, cold.results[i].metrics,
                         "warm vs cold " + scenarios[i].label);
  }

  server.stop();
}

TEST(ServiceConcurrency, ResultsStreamBeforeSweepCompletes) {
  // Streaming contract: with a multi-scenario job, at least one
  // kScenarioResult is observable before kSweepComplete (trivially true
  // by ordering) AND the ack arrives before any result.
  std::vector<sim::Scenario> scenarios = paper_matrix();
  scenarios.resize(3);

  ServerOptions opts;
  opts.service.core_budget = 2;
  ServiceServer server(opts);
  server.start();

  ServiceClient client;
  client.connect("127.0.0.1", server.port());
  const protocol::SubmitAckMsg ack = client.submit_sweep(scenarios, 2);
  EXPECT_EQ(ack.admitted, 1);

  int results_seen = 0;
  bool complete_seen = false;
  const SweepOutcome out =
      client.collect(ack.job_id, [&](const protocol::ScenarioResultMsg&) {
        EXPECT_FALSE(complete_seen);
        ++results_seen;
      });
  complete_seen = true;
  EXPECT_EQ(results_seen, 3);
  EXPECT_EQ(out.complete.completed, 3u);

  server.stop();
}

TEST(ServiceConcurrency, WhatIfTakesItsOwnAckBehindAPipelinedSweep) {
  // A one-scenario sweep sent without waiting for its ack, then a what-if
  // of another scenario on the same connection: the what-if must take
  // its own ack and return its own scenario's metrics.
  const std::vector<sim::Scenario> scenarios = paper_matrix();
  const sim::Scenario& other = scenarios.front();
  const sim::Scenario& mine = scenarios.back();
  ASSERT_NE(other.label, mine.label);

  ServerOptions opts;
  opts.service.core_budget = 2;
  ServiceServer server(opts);
  server.start();

  ServiceClient client;
  client.connect("127.0.0.1", server.port());
  protocol::SubmitSweepMsg sweep;
  sweep.scenarios = {other};
  client.send(sweep);
  const protocol::ScenarioResultMsg result = client.what_if(mine);
  ASSERT_EQ(result.ok, 1) << result.error;
  expect_bitwise_equal(result.metrics, sim::run_scenario(mine), mine.label);

  // A what-if that decode rejects gets its error under its own tag, so
  // the call throws instead of waiting for an ack that never comes.
  sim::Scenario endless = mine;
  endless.sim.duration = 1e12;
  EXPECT_THROW(client.what_if(endless), Error);

  server.stop();
}

}  // namespace
}  // namespace tac3d::service
