// Concurrency contract of the sweep service: several clients hammering
// one server over loopback get results bitwise identical to a direct
// run_sweep of the same scenarios, the shared warm bank serves every
// repeat submission from its cached tiers, acks always precede the
// job's streamed results, and admission respects the core budget. The
// ServiceScheduling cases drive a SweepService directly: an idle worker
// is lent to a running job beyond its grant and reclaimed for a newly
// admitted one, the session it puts down resumes bitwise on another
// worker, and cancel stops running scenarios (the TSan CI job repeats
// these).
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
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

// --- scheduling: lending, reclaim and cancel ------------------------------

namespace proto = protocol;

/// A 4-tier scenario long enough (some 60 ms on a 4-core Xeon VM) to
/// still be running while a test acts on it.
sim::Scenario long_scenario(std::uint64_t seed) {
  sim::Scenario s;
  s.tiers = 4;
  s.policy = sim::PolicyKind::kLcFuzzy;
  s.workload = power::WorkloadKind::kWebServer;
  s.trace_seconds = 120;
  s.seed = seed;
  s.grid = thermal::GridOptions{10, 10};
  return s;
}

/// A 16-step 2-tier scenario, tens of times shorter than long_scenario.
sim::Scenario short_scenario(std::uint64_t seed) {
  sim::Scenario s = long_scenario(seed);
  s.tiers = 2;
  s.trace_seconds = 5;
  return s;
}

ServiceOptions two_cores() {
  ServiceOptions opts;
  opts.core_budget = 2;
  return opts;
}

/// Two long scenarios: the sweep the lending tests submit.
const std::vector<sim::Scenario>& long_pair() {
  static const std::vector<sim::Scenario> pair = {long_scenario(1),
                                                  long_scenario(2)};
  return pair;
}

/// run_scenario of long_pair(), computed once per process: the TSan CI
/// job repeats these cases.
const sim::SimMetrics& long_pair_reference(std::size_t i) {
  static const std::vector<sim::SimMetrics> reference = [] {
    std::vector<sim::SimMetrics> v;
    for (const sim::Scenario& s : long_pair()) {
      v.push_back(sim::run_scenario(s));
    }
    return v;
  }();
  return reference.at(i);
}

/// Turns metric recording on for one test (the lending counters are
/// read through the registry).
class MetricsOn {
 public:
  MetricsOn() { obs::set_metrics_enabled(true); }
  ~MetricsOn() { obs::set_metrics_enabled(was_); }

 private:
  bool was_ = obs::metrics_enabled();
};

std::uint64_t counter(const char* name) {
  const obs::Snapshot snap = obs::snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// Blocks until \p done() holds; fails the test after a minute.
template <class Pred>
void wait_until(Pred done, const char* what) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!done()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << what;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// A SweepService event sink that keeps every event in arrival order.
class EventLog {
 public:
  SweepService::EventFn sink() {
    return [this](const proto::Message& m) {
      std::lock_guard<std::mutex> lk(mu_);
      events_.push_back(m);
      if (std::holds_alternative<proto::SweepCompleteMsg>(m)) ++completions_;
      cv_.notify_all();
    };
  }
  /// The events once \p jobs completions have arrived.
  std::vector<proto::Message> wait(int jobs) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return completions_ >= jobs; });
    return events_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<proto::Message> events_;
  int completions_ = 0;
};

/// The results of \p job_id among \p log, in arrival order.
std::vector<std::pair<std::size_t, const proto::ScenarioResultMsg*>>
results_of(const std::vector<proto::Message>& log, std::uint32_t job_id) {
  std::vector<std::pair<std::size_t, const proto::ScenarioResultMsg*>> out;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const auto* r = std::get_if<proto::ScenarioResultMsg>(&log[i]);
    if (r && r->job_id == job_id) out.emplace_back(i, r);
  }
  return out;
}

const proto::SweepCompleteMsg& completion_of(
    const std::vector<proto::Message>& log, std::uint32_t job_id) {
  for (const proto::Message& m : log) {
    const auto* c = std::get_if<proto::SweepCompleteMsg>(&m);
    if (c && c->job_id == job_id) return *c;
  }
  throw Error("no completion for job " + std::to_string(job_id));
}

TEST(ServiceScheduling, IdleWorkerIsLentToAOneCoreJobBitwise) {
  MetricsOn metrics;
  const std::vector<sim::Scenario>& sweep = long_pair();
  SweepService service(two_cores());
  EventLog events;
  const std::uint64_t lent = counter("service/scenarios_lent");
  const auto ack = service.submit(sweep, 1, events.sink());
  ASSERT_TRUE(ack && ack->admitted);
  const std::vector<proto::Message> log = events.wait(1);

  // The one-core job ran its second scenario on the idle second worker.
  EXPECT_EQ(counter("service/scenarios_lent") - lent, 1u);
  EXPECT_EQ(completion_of(log, ack->job_id).completed, sweep.size());
  const auto results = results_of(log, ack->job_id);
  ASSERT_EQ(results.size(), sweep.size());
  for (const auto& [at, r] : results) {
    ASSERT_TRUE(r->ok) << r->error;
    expect_bitwise_equal(r->metrics, long_pair_reference(r->index),
                         "scenario " + std::to_string(r->index));
  }
}

TEST(ServiceScheduling, WhatIfReclaimsTheLentWorkerAndThePutDownRunResumes) {
  MetricsOn metrics;
  const std::vector<sim::Scenario>& sweep = long_pair();
  SweepService service(two_cores());
  EventLog events;
  const std::uint64_t lent = counter("service/scenarios_lent");
  const std::uint64_t reclaims = counter("service/reclaims");
  const auto ack = service.submit(sweep, 1, events.sink());
  ASSERT_TRUE(ack && ack->admitted);
  ASSERT_NO_FATAL_FAILURE(
      wait_until([&] { return counter("service/scenarios_lent") > lent; },
                 "no worker was lent to the one-core job"));

  // Both workers run the sweep, so the what-if's grant has no free
  // worker: one of the sweep's sessions is put down for it.
  const auto what_if = service.submit({short_scenario(3)}, 1, events.sink());
  ASSERT_TRUE(what_if && what_if->admitted);
  const std::vector<proto::Message> log = events.wait(2);
  EXPECT_EQ(counter("service/reclaims") - reclaims, 1u);

  // The what-if answers before either sweep scenario, the put-down one
  // included, and every result is bitwise the direct run's.
  const auto quick = results_of(log, what_if->job_id);
  const auto slow = results_of(log, ack->job_id);
  ASSERT_EQ(quick.size(), 1u);
  ASSERT_EQ(slow.size(), sweep.size());
  ASSERT_TRUE(quick[0].second->ok) << quick[0].second->error;
  expect_bitwise_equal(quick[0].second->metrics,
                       sim::run_scenario(short_scenario(3)), "what-if");
  for (const auto& [at, r] : slow) {
    EXPECT_LT(quick[0].first, at) << "sweep scenario " << r->index;
    ASSERT_TRUE(r->ok) << r->error;
    expect_bitwise_equal(r->metrics, long_pair_reference(r->index),
                         "sweep scenario " + std::to_string(r->index));
  }
}

TEST(ServiceScheduling, LendsWhileAJobQueuesButNotPastAWholeBudget) {
  MetricsOn metrics;
  SweepService service(two_cores());
  EventLog events;
  const std::uint64_t lent = counter("service/scenarios_lent");

  // A job granted the whole budget has every worker within its grant.
  const auto whole = service.submit(
      {short_scenario(1), short_scenario(2), short_scenario(3)}, 2,
      events.sink());
  ASSERT_TRUE(whole && whole->admitted);
  events.wait(1);
  EXPECT_EQ(counter("service/scenarios_lent"), lent);

  // Once the first job ends, the one-core job runs and the two-core job
  // queues behind it. A queued job waits for grants, not workers: the
  // idle second worker is lent to the one-core job, and the two-core job
  // still starts only once the one-core job has released its grant.
  const auto first = service.submit(long_pair(), 2, events.sink());
  const auto one_core = service.submit(long_pair(), 1, events.sink());
  // Two scenarios: a grant is clamped to the job's scenario count.
  const auto queued = service.submit({short_scenario(6), short_scenario(7)},
                                     2, events.sink());
  ASSERT_TRUE(first && one_core && queued);
  ASSERT_TRUE(first->admitted);
  ASSERT_FALSE(one_core->admitted);
  ASSERT_FALSE(queued->admitted);
  const std::vector<proto::Message> log = events.wait(4);
  EXPECT_EQ(counter("service/scenarios_lent") - lent, 1u);
  EXPECT_EQ(completion_of(log, one_core->job_id).completed, 2u);
  EXPECT_EQ(completion_of(log, queued->job_id).completed, 2u);
  std::size_t one_core_done = log.size();
  for (std::size_t i = 0; i < log.size(); ++i) {
    const auto* c = std::get_if<proto::SweepCompleteMsg>(&log[i]);
    if (c && c->job_id == one_core->job_id) one_core_done = i;
  }
  const auto queued_results = results_of(log, queued->job_id);
  ASSERT_FALSE(queued_results.empty());
  EXPECT_LT(one_core_done, queued_results.front().first);
}

TEST(ServiceScheduling, CancelStopsRunningScenarios) {
  const std::vector<sim::Scenario> sweep = {
      long_scenario(1), long_scenario(2), long_scenario(3)};
  SweepService service(two_cores());
  EventLog events;
  const auto ack = service.submit(sweep, 1, events.sink());
  ASSERT_TRUE(ack && ack->admitted);
  // A worker fills the steady tier only once it prepares a scenario to
  // run it.
  ASSERT_NO_FATAL_FAILURE(wait_until(
      [&] {
        const sim::BankCounters bank = service.status().bank;
        return bank.steady_hits + bank.steady_misses > 0;
      },
      "no scenario started"));
  EXPECT_TRUE(service.cancel(ack->job_id));

  // The running scenarios stop at their next control interval: no
  // result, every scenario counted as cancelled.
  const std::vector<proto::Message> log = events.wait(1);
  ASSERT_EQ(log.size(), 1u);
  const proto::SweepCompleteMsg& done = completion_of(log, ack->job_id);
  EXPECT_EQ(done.was_cancelled, 1);
  EXPECT_EQ(done.completed, 0u);
  EXPECT_EQ(done.failed, 0u);
  EXPECT_EQ(done.cancelled, sweep.size());
  EXPECT_EQ(service.status().scenarios_cancelled, sweep.size());
}

}  // namespace
}  // namespace tac3d::service
