// tac3d_serve: sweep-as-a-service front door.
//
// Server mode (default) boots a ServiceServer on loopback and serves
// until SIGTERM/SIGINT, which triggers a graceful drain: admissions
// stop, accepted sweeps finish, every client gets kDrainComplete, then
// the process exits.
//
//   ./build/examples/tac3d_serve [--port N] [--budget CORES]
//
// Client subcommands (CI smoke tests and quick probes):
//
//   ./build/examples/tac3d_serve --what-if HOST PORT   # run one scenario
//   ./build/examples/tac3d_serve --status  HOST PORT   # server counters
//   ./build/examples/tac3d_serve --drain   HOST PORT   # graceful shutdown
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include <unistd.h>

#include "common/table.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

namespace {

// Self-pipe for async-signal-safe shutdown: the handler only write()s.
int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

int serve(int port, int budget) {
  using namespace tac3d::service;

  ServerOptions opts;
  opts.port = port;
  opts.service.core_budget = budget;
  ServiceServer server(opts);
  server.start();
  std::cout << "tac3d_serve listening on 127.0.0.1:" << server.port()
            << " (core budget " << server.service().core_budget() << ")"
            << std::endl;

  if (::pipe(g_signal_pipe) != 0) {
    std::cerr << "pipe() failed\n";
    return 1;
  }
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::thread watcher([&server] {
    char byte = 0;
    while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    if (!server.running()) return;  // already stopped (drain over the wire)
    std::cout << "tac3d_serve: shutdown signal, draining..." << std::endl;
    server.request_drain();
  });

  server.wait();
  const protocol::StatusMsg st = server.service().status();
  std::cout << "tac3d_serve: drained; " << st.scenarios_completed
            << " scenarios completed, " << st.scenarios_failed << " failed, "
            << st.scenarios_cancelled << " cancelled" << std::endl;

  // Unblock the watcher if the drain came over the wire instead.
  on_signal(0);
  watcher.join();
  server.stop();
  return 0;
}

int what_if(const std::string& host, int port) {
  using namespace tac3d;
  service::ServiceClient client;
  client.connect(host, port);

  sim::Scenario s;
  s.tiers = 2;
  s.policy = sim::PolicyKind::kLcFuzzy;
  s.workload = power::WorkloadKind::kWebServer;
  s.trace_seconds = 20;
  s.grid = thermal::GridOptions{10, 10};

  const auto result = client.what_if(s);
  if (!result.ok) {
    std::cerr << "what-if failed: " << result.error << "\n";
    return 1;
  }
  std::cout << "what-if ok: peak "
            << fmt(kelvin_to_celsius(result.metrics.peak_temp), 2)
            << " C, hot-time fraction "
            << fmt(result.metrics.hotspot_frac_any(), 4) << ", energy "
            << fmt(result.metrics.system_energy(), 1)
            << " J" << std::endl;
  return 0;
}

int status(const std::string& host, int port) {
  using namespace tac3d;
  using namespace tac3d::service;
  ServiceClient client;
  client.connect(host, port);
  const protocol::StatusMsg st = client.query_status();
  std::cout << "jobs: " << st.active_jobs << " active, " << st.queued_jobs
            << " queued; scenarios: " << st.scenarios_completed
            << " completed, " << st.scenarios_failed << " failed, "
            << st.scenarios_cancelled << " cancelled; cores: "
            << st.cores_in_use << "/" << st.core_budget
            << (st.draining ? " (draining)" : "") << "\n"
            << "bank: trace " << st.bank.trace_hits << "/"
            << st.bank.trace_hits + st.bank.trace_misses << ", model "
            << st.bank.model_hits << "/"
            << st.bank.model_hits + st.bank.model_misses << ", steady "
            << st.bank.steady_hits << "/"
            << st.bank.steady_hits + st.bank.steady_misses << " hits"
            << std::endl;

  // Live registry snapshot over the same connection: queue depth and
  // the latency histograms the StatusMsg cannot carry.
  const protocol::MetricsMsg metrics = client.query_metrics();
  for (const protocol::MetricEntryMsg& e : metrics.entries) {
    if (e.kind != protocol::MetricEntryMsg::kHistogram) continue;
    if (e.name != "service/ttfr_ms" && e.name != "service/admission_wait_ms")
      continue;
    const obs::Histogram h =
        obs::Histogram::from_parts(e.count, e.value, e.min, e.max, e.buckets);
    std::cout << e.name << ": n=" << h.count() << " mean="
              << fmt(h.mean(), 2) << " p50=" << fmt(h.quantile(0.5), 2)
              << " p99=" << fmt(h.quantile(0.99), 2) << " max="
              << fmt(h.max(), 2) << " ms" << std::endl;
  }
  for (const protocol::MetricEntryMsg& e : metrics.entries) {
    if (e.kind == protocol::MetricEntryMsg::kGauge &&
        e.name == "service/queue_depth") {
      std::cout << "queue depth: " << e.value << std::endl;
    }
  }
  return 0;
}

int drain(const std::string& host, int port) {
  using namespace tac3d::service;
  ServiceClient client;
  client.connect(host, port);
  client.request_drain();
  const protocol::DrainCompleteMsg done = client.wait_drain_complete();
  std::cout << "drain complete after " << done.scenarios_finished
            << " scenarios" << std::endl;
  return 0;
}

int usage() {
  std::cerr << "usage:\n"
               "  tac3d_serve [--port N] [--budget CORES]\n"
               "  tac3d_serve --what-if HOST PORT\n"
               "  tac3d_serve --status  HOST PORT\n"
               "  tac3d_serve --drain   HOST PORT\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  int budget = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_two = i + 2 < argc;
    if (arg == "--what-if" && has_two) {
      return what_if(argv[i + 1], std::atoi(argv[i + 2]));
    }
    if (arg == "--status" && has_two) {
      return status(argv[i + 1], std::atoi(argv[i + 2]));
    }
    if (arg == "--drain" && has_two) {
      return drain(argv[i + 1], std::atoi(argv[i + 2]));
    }
    if (arg == "--port" && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (arg == "--budget" && i + 1 < argc) {
      budget = std::atoi(argv[++i]);
    } else {
      return usage();
    }
  }
  try {
    return serve(port, budget);
  } catch (const std::exception& e) {
    std::cerr << "tac3d_serve: " << e.what() << "\n";
    return 1;
  }
}
