// Server lifecycle under connection pressure: start and stop (hard and
// by drain) a ServiceServer again and again while client threads keep
// connecting and querying it. Every round must tear down cleanly — no
// hang, no crash, no accept() on a closed or reused descriptor (the
// ThreadSanitizer CI job runs this suite to catch races in teardown).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

namespace tac3d::service {
namespace {

TEST(ServiceLifecycle, StartStopLoopWhileClientsConnect) {
  constexpr int kRounds = 24;
  constexpr int kClients = 3;
  std::atomic<int> answered{0};
  for (int round = 0; round < kRounds; ++round) {
    ServerOptions opts;
    opts.service.core_budget = 1;
    ServiceServer server(opts);
    server.start();
    ASSERT_TRUE(server.running());
    const int port = server.port();

    std::atomic<bool> done{false};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        while (!done.load()) {
          try {
            ServiceClient client;
            client.connect("127.0.0.1", port);
            client.query_status();
            answered.fetch_add(1);
          } catch (const Error&) {
            // Refused, reset or closed mid-request by the teardown.
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1 + round % 4));
    if (round % 2 == 0) {
      server.stop();
    } else {
      server.request_drain();
      server.wait();
    }
    EXPECT_FALSE(server.running()) << "round " << round;
    done.store(true);
    for (std::thread& t : clients) t.join();
  }
  EXPECT_GT(answered.load(), 0) << "no client was ever served";
}

}  // namespace
}  // namespace tac3d::service
