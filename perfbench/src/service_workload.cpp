// service_openloop: an in-process ServiceServer on loopback (core budget
// 2) fed a seeded open-loop arrival schedule at a fixed rate over two
// ServiceClient connections. One request in five is an 8-scenario sweep;
// the others are single-scenario what-ifs, which queue behind a sweep
// whenever the other core is busy too. Every request is timed from when
// it was due, so a stall delays the requests behind it.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <thread>

#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace tac3d;
namespace proto = service::protocol;

constexpr int kCoreBudget = 2;
constexpr int kConnections = 2;
constexpr int kSetupReps = 9;
/// Offered load [requests/s]: 6 x 2.4 = 14.4 scenarios/s. On the 4-core
/// Xeon VM the bounds were set on, the server sustained 35-65 scenarios/s
/// on such a mix with every request due at once, as the host's speed
/// drifted; at this rate it stays well under half loaded, where a sweep's
/// completion time does not yet grow faster than the host slows down.
constexpr double kRatePerSecond = 6.0;
constexpr int kMinRequests = 100;
constexpr int kSweepEvery = 5;  ///< one sweep per block of this many
/// Fixed TTFR limit of a service request.
constexpr double kServiceTtfrLimitMs = 250.0;
constexpr double kDrainSlackSeconds = 60.0;

const std::vector<sim::PolicyKind>& service_policies() {
  static const std::vector<sim::PolicyKind> p = {sim::PolicyKind::kLcFuzzy,
                                                 sim::PolicyKind::kLcLb,
                                                 sim::PolicyKind::kLcTdvfsLb};
  return p;
}
constexpr std::uint64_t kServiceSeeds = 3;

sim::Scenario service_scenario(int tiers, sim::PolicyKind policy,
                               power::WorkloadKind workload,
                               std::uint64_t seed) {
  sim::Scenario s;
  s.tiers = tiers;
  s.policy = policy;
  s.workload = workload;
  s.trace_seconds = 20;
  s.seed = seed;
  s.grid = thermal::GridOptions{12, 12};
  return s;
}

/// One policy across both stacks and the average-case workloads.
std::vector<sim::Scenario> sweep_request(sim::PolicyKind policy,
                                         std::uint64_t seed) {
  std::vector<sim::Scenario> v;
  for (const int tiers : {2, 4}) {
    for (const auto w : power::average_case_workloads()) {
      v.push_back(service_scenario(tiers, policy, w, seed));
    }
  }
  return v;
}

struct Planned {
  double due_s = 0.0;  ///< from the start of the schedule
  proto::SubmitSweepMsg msg;
};

/// One arrival per 1/kRatePerSecond slot, at a uniform random point of
/// it (no bursts beyond two in a row). In each block of kSweepEvery
/// requests one, at a random position, is a sweep; what-ifs run three
/// in four on the 2-tier stack, one on the 4-tier, and cycle through the
/// policies and workloads, so
/// every seed offers the same mix of work. The seed draws the arrival
/// points, sweep positions and trace seeds.
std::vector<Planned> make_schedule(std::uint64_t seed, int n) {
  Rng rng(seed);
  const auto& policies = service_policies();
  const auto workloads = power::average_case_workloads();
  std::vector<Planned> plan(static_cast<std::size_t>(n));
  int sweep_at = 0;
  std::size_t sweeps = 0, what_ifs = 0;
  for (int i = 0; i < n; ++i) {
    if (i % kSweepEvery == 0) {
      sweep_at = i + static_cast<int>(rng.below(kSweepEvery));
    }
    Planned& p = plan[static_cast<std::size_t>(i)];
    p.due_s = (i + rng.unit()) / kRatePerSecond;
    p.msg.client_tag = static_cast<std::uint32_t>(i + 1);
    const std::uint64_t trace_seed = 1 + rng.below(kServiceSeeds);
    // Every request asks for one core: a sweep asking for both would
    // park every what-if behind it, and p90 latency would then flip
    // between the parked and the free what-ifs from run to run.
    p.msg.cores_requested = 1;
    if (i == sweep_at) {
      p.msg.scenarios = sweep_request(policies[sweeps++ % policies.size()],
                                      trace_seed);
    } else {
      // Three what-ifs in four run on the 2-tier stack, so the median
      // first result lies inside the 2-tier mode of the latencies, not in
      // the gap between the two stacks' modes. k cycles the policies and,
      // every four what-ifs (one of them 4-tier), the workloads.
      const std::size_t k = what_ifs++;
      p.msg.scenarios.push_back(
          service_scenario(k % 4 == 3 ? 4 : 2, policies[k % policies.size()],
                           workloads[k / 4 % workloads.size()], trace_seed));
    }
  }
  return plan;
}

/// What one request saw, in steady-clock time points.
struct Tracker {
  Clock::time_point sent, ack, first, done;
  bool acked = false, has_first = false, finished = false, ok = true;
  std::vector<proto::ScenarioResultMsg> results;
};

/// Start a server and run the warm-up request: the service's set-up.
std::unique_ptr<service::ServiceServer> start_server(RunRecord& rec) {
  const Clock::time_point t0 = Clock::now();
  service::ServerOptions opts;
  opts.service.core_budget = kCoreBudget;
  auto server = std::make_unique<service::ServiceServer>(opts);
  server->start();
  const std::vector<sim::Scenario> warm =
      sweep_request(sim::PolicyKind::kLcFuzzy, 1);
  service::ServiceClient client;
  client.connect("127.0.0.1", server->port());
  const service::SweepOutcome out = client.run_sweep(warm, kCoreBudget);
  rec.samples["setup_s"].push_back(seconds_since(t0));
  // The warm-up is a request too, and its outputs go through the oracle.
  ++rec.attempted;
  rec.expected_outputs += static_cast<std::int64_t>(warm.size());
  bool ok = out.results.size() == warm.size();
  for (const proto::ScenarioResultMsg& r : out.results) {
    if (!r.ok) {
      ok = false;
      continue;
    }
    rec.add_output(scenario_key(warm.at(r.index)), r.metrics);
  }
  if (!ok) ++rec.failed;
  return server;
}

/// Receive loop of one connection: acks, streamed results, completions
/// and typed errors, until every request sent on it has ended.
void receive(service::ServiceClient& client, std::vector<Tracker>& trackers,
             int expected) {
  std::map<std::uint32_t, std::size_t> by_job;
  int ended = 0;
  while (ended < expected) {
    const proto::Message msg = client.read_message();
    const Clock::time_point now = Clock::now();
    trace::Span span("service/receive");
    if (const auto* ack = std::get_if<proto::SubmitAckMsg>(&msg)) {
      const std::size_t i = ack->client_tag - 1;
      trackers.at(i).ack = now;
      trackers.at(i).acked = true;
      by_job[ack->job_id] = i;
    } else if (const auto* r = std::get_if<proto::ScenarioResultMsg>(&msg)) {
      Tracker& t = trackers.at(by_job.at(r->job_id));
      if (!t.has_first) {
        t.first = now;
        t.has_first = true;
      }
      t.ok = t.ok && r->ok != 0;
      t.results.push_back(*r);
    } else if (const auto* c = std::get_if<proto::SweepCompleteMsg>(&msg)) {
      Tracker& t = trackers.at(by_job.at(c->job_id));
      t.done = now;
      t.finished = true;
      t.ok = t.ok && c->failed == 0 && c->cancelled == 0;
      ++ended;
    } else if (const auto* e = std::get_if<proto::ErrorMsg>(&msg)) {
      // A refusal ends its request; an untagged error ends nothing.
      if (e->client_tag == 0) continue;
      Tracker& t = trackers.at(e->client_tag - 1);
      t.ok = false;
      t.finished = true;
      t.done = now;
      ++ended;
    }
  }
}

/// Mean time [us] of encode_frame and of split_frame + decode_payload
/// over the workload's own messages.
void record_codec(const std::vector<proto::Message>& messages,
                  RunRecord& rec) {
  constexpr int kPasses = 20;
  std::vector<std::vector<std::uint8_t>> frames;
  double encode_s = 0.0;
  {
    trace::Span span("service/encode");
    const Clock::time_point t0 = Clock::now();
    for (int p = 0; p < kPasses; ++p) {
      frames.clear();
      for (const proto::Message& m : messages) {
        frames.push_back(proto::encode_frame(m));
      }
    }
    encode_s = seconds_since(t0);
  }
  std::size_t decoded_ok = 0;
  double decode_s = 0.0;
  {
    trace::Span span("service/decode");
    const Clock::time_point t0 = Clock::now();
    for (int p = 0; p < kPasses; ++p) {
      for (const std::vector<std::uint8_t>& f : frames) {
        const proto::FrameSplit split = proto::split_frame(f);
        const proto::Decoded d = proto::decode_payload(
            std::span<const std::uint8_t>(f).subspan(split.payload_offset,
                                                     split.payload_size));
        decoded_ok += d.ok() ? 1 : 0;
      }
    }
    decode_s = seconds_since(t0);
  }
  const double n = static_cast<double>(kPasses * messages.size());
  rec.layer_values["service.encode_us"] = encode_s * 1e6 / n;
  rec.layer_values["service.decode_us"] = decode_s * 1e6 / n;
  if (decoded_ok != kPasses * frames.size()) {
    rec.failed += 1;  // a frame of the workload's own did not round-trip
  }
}

double hit_ratio(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t n = hits + misses;
  return n > 0 ? static_cast<double>(hits) / static_cast<double>(n) : 0.0;
}

}  // namespace

std::vector<sim::Scenario> service_pool() {
  std::vector<sim::Scenario> pool;
  for (const sim::PolicyKind p : service_policies()) {
    for (std::uint64_t seed = 1; seed <= kServiceSeeds; ++seed) {
      for (sim::Scenario& s : sweep_request(p, seed)) {
        pool.push_back(std::move(s));
      }
    }
  }
  return pool;
}

RunRecord run_service_openloop(const RunOptions& opt) {
  RunRecord rec;
  rec.ttfr_limit_ms = kServiceTtfrLimitMs;
  std::unique_ptr<service::ServiceServer> server;
  for (int i = 0; i < kSetupReps; ++i) {
    if (server) server->stop();
    server = start_server(rec);
  }

  const int n = std::max(
      kMinRequests, static_cast<int>(std::lround(kRatePerSecond * opt.seconds)));
  // A traced run repeats the first half of the schedule as its second
  // half: the first half is the untraced baseline of the traced second.
  // It draws the schedule from seed 0 whatever the run seed, so its bank
  // counters are the same for every seed.
  std::vector<Planned> plan =
      opt.traced ? make_schedule(0, n / 2) : make_schedule(opt.seed, n);
  if (opt.traced) {
    const std::size_t half = plan.size();
    for (std::size_t i = 0; i < half; ++i) {
      Planned p = plan[i];
      p.due_s += static_cast<double>(half) / kRatePerSecond;
      p.msg.client_tag = static_cast<std::uint32_t>(half + i + 1);
      plan.push_back(std::move(p));
    }
  }
  // One tracker per request, written only by its connection's threads.
  std::vector<Tracker> trackers(plan.size());
  std::vector<std::unique_ptr<service::ServiceClient>> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.push_back(std::make_unique<service::ServiceClient>());
    clients.back()->connect("127.0.0.1", server->port());
  }

  const obs::Snapshot before = obs::snapshot();
  const sim::BankCounters bank_before = server->service().bank()->counters();
  const std::size_t traced_from = opt.traced ? plan.size() / 2 : plan.size();
  std::atomic<int> receivers_done{0};
  std::atomic<bool> polling{true};
  // One slot per thread: [2c] receiver, [2c + 1] sender of connection c.
  std::vector<std::string> errors(2 * kConnections);
  std::vector<double> queue_depth;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto due_at = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(plan[i].due_s));
  };

  // The ServiceClient of a connection is shared by its sender and its
  // receiver: send() only writes to the socket and read_message() only
  // reads it and the receive buffer, so the two never touch the same
  // member state.
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    service::ServiceClient& client = *clients[static_cast<std::size_t>(c)];
    int expected = 0;
    for (std::size_t i = c; i < plan.size(); i += kConnections) ++expected;
    threads.emplace_back([&, c, expected] {
      try {
        receive(client, trackers, expected);
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(2 * c)] = e.what();
      }
      receivers_done.fetch_add(1);
    });
    threads.emplace_back([&, c] {
      try {
        for (std::size_t i = c; i < plan.size(); i += kConnections) {
          std::this_thread::sleep_until(due_at(i));
          if (i == traced_from) trace::start();
          trace::Span span("service/submit");
          trackers[i].sent = Clock::now();
          client.send(plan[i].msg);
        }
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(2 * c + 1)] = e.what();
      }
    });
  }
  std::thread poller;
  if (opt.traced) {
    poller = std::thread([&] {
      std::this_thread::sleep_until(due_at(traced_from));
      while (polling.load()) {
        trace::Span span("service/status");
        queue_depth.push_back(server->service().status().queued_jobs);
        span.close();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }
  // Wait for every request to end; a server that stops answering is
  // stopped, which ends the receivers with an error.
  const Clock::time_point deadline =
      due_at(plan.size() - 1) +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(kDrainSlackSeconds));
  while (receivers_done.load() < kConnections && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (receivers_done.load() < kConnections) server->stop();
  for (std::thread& t : threads) t.join();
  polling.store(false);
  if (poller.joinable()) poller.join();
  const obs::Snapshot delta = obs::snapshot().since(before);
  const sim::BankCounters bank_after = server->service().bank()->counters();
  clients.clear();
  server->stop();

  // Fold the per-connection trackers into one record.
  std::vector<proto::Message> codec_messages;
  Clock::time_point last_done = start;
  double steps = 0.0, scenarios = 0.0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Tracker& t = trackers[i];
    const Clock::time_point due = due_at(i);
    const auto ms = [&](Clock::time_point tp) {
      return std::chrono::duration<double, std::milli>(tp - due).count();
    };
    const bool ok = t.ok && t.finished && t.has_first &&
                    t.results.size() == plan[i].msg.scenarios.size();
    ++rec.attempted;
    rec.expected_outputs +=
        static_cast<std::int64_t>(plan[i].msg.scenarios.size());
    if (!ok) ++rec.failed;
    rec.requests.push_back({t.has_first ? ms(t.first) : -1.0,
                            t.finished ? ms(t.done) : -1.0, ok});
    if (t.finished) last_done = std::max(last_done, t.done);
    if (opt.traced) {
      rec.layer_samples["service.send_lag_ms"].push_back(ms(t.sent));
      if (t.acked) rec.layer_samples["service.ack_ms"].push_back(ms(t.ack));
      if (t.has_first) {
        rec.layer_samples[i < traced_from ? "trace.overhead.base"
                                          : "trace.overhead.traced"]
            .push_back(ms(t.first));
      }
      codec_messages.push_back(plan[i].msg);
    }
    for (const proto::ScenarioResultMsg& r : t.results) {
      if (!r.ok) continue;
      const sim::Scenario& s = plan[i].msg.scenarios.at(r.index);
      rec.add_output(scenario_key(s), r.metrics);
      scenarios += 1.0;
      steps += std::round(r.metrics.duration / s.sim.control_dt);
      if (opt.traced) codec_messages.push_back(r);
    }
  }
  const double wall = std::chrono::duration<double>(last_done - start).count();
  rec.samples["scenarios_per_s"].push_back(scenarios / wall);
  rec.samples["steps_per_s"].push_back(steps / wall);
  // A dead connection already shows as failed requests; say why.
  for (const std::string& e : errors) {
    if (!e.empty()) std::cerr << "service_openloop: connection: " << e << '\n';
  }

  rec.layer_values["bank.trace_hit_ratio"] =
      hit_ratio(bank_after.trace_hits - bank_before.trace_hits,
                bank_after.trace_misses - bank_before.trace_misses);
  rec.layer_values["bank.model_hit_ratio"] =
      hit_ratio(bank_after.model_hits - bank_before.model_hits,
                bank_after.model_misses - bank_before.model_misses);
  rec.layer_values["bank.steady_hit_ratio"] =
      hit_ratio(bank_after.steady_hits - bank_before.steady_hits,
                bank_after.steady_misses - bank_before.steady_misses);
  if (!opt.traced) return rec;

  const auto wait = delta.histograms.find("service/admission_wait_ms");
  rec.layer_values["service.admission_wait_ms.p90"] =
      wait == delta.histograms.end() ? 0.0 : wait->second.quantile(0.9);
  rec.layer_samples["service.queue_depth"] = queue_depth;
  const double traced_wall =
      std::chrono::duration<double>(last_done - due_at(traced_from)).count();
  for (const auto& [layer, s] : trace::self_seconds_by_layer()) {
    rec.layer_values["self." + layer] = s / traced_wall;
  }
  // Offline, after the open loop: not part of its self times.
  record_codec(codec_messages, rec);
  trace::stop();
  return rec;
}

}  // namespace perfbench
