#pragma once
/// \file server.hpp
/// \brief Socket front-end of the sweep service: one SOCK_STREAM
/// acceptor on loopback, per-connection reader threads, all compute on
/// the SweepService's shared worker pool.
///
/// Per-scenario results are streamed to the submitting connection as
/// they finish. The connection layer owns the robustness guarantees the
/// protocol promises:
///
///   - malformed or oversized frames are answered with a typed kError
///     and the connection stays alive (oversized payloads are discarded
///     byte-for-byte to stay frame-aligned);
///   - a client disconnect (EOF, reset, failed write) cancels exactly
///     that connection's jobs — running scenarios stop at their next
///     control interval, pending ones are skipped, other clients never
///     notice;
///   - a drain request (or SIGTERM in tac3d_serve) stops admissions,
///     finishes all accepted work, answers kDrainComplete and only then
///     shuts the sockets down; a connection opened meanwhile gets a
///     kRejectedDraining error and is closed.

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "service/protocol.hpp"
#include "service/service.hpp"

namespace tac3d::service {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 = ephemeral (query with port()).
  int port = 0;
  int backlog = 16;
  ServiceOptions service;
};

/// A running sweep server. start() binds and spawns the acceptor;
/// request_drain() (idempotent) finishes accepted work then stops;
/// wait() blocks until the server stopped; stop() is the hard variant
/// (every job cancelled). The destructor stops hard.
class ServiceServer {
 public:
  explicit ServiceServer(ServerOptions opts = {});
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// Bind/listen/spawn the acceptor. Throws tac3d::Error on failure.
  void start();

  /// Bound port (valid after start()).
  int port() const { return port_; }

  /// Graceful shutdown: stop admitting, finish every accepted job,
  /// send kDrainComplete to every live connection, close everything.
  /// Safe from any thread (including a connection handler); returns
  /// once the drain worker has been started — use wait() to block.
  void request_drain();

  /// Block until the server has fully stopped (drain finished or stop()
  /// called).
  void wait();

  /// Hard stop: cancel pending work, close all sockets, join threads.
  void stop();

  bool running() const;

  SweepService& service() { return *service_; }

 private:
  struct Connection;

  /// Accept connections on \p listen_fd (a copy of listen_fd_ taken at
  /// start()) until it is shut down.
  void accept_loop(int listen_fd);
  void connection_loop(const std::shared_ptr<Connection>& conn);
  void handle_message(const std::shared_ptr<Connection>& conn,
                      const protocol::Message& msg);
  /// Serialize + send on the connection. On a failed write the
  /// connection is marked dead and its read side shut down, so its
  /// reader thread wakes up and cancels the connection's jobs — the
  /// sender never re-enters the service (no lock re-entry).
  bool send_frame(Connection& conn, const protocol::Message& msg);
  void cancel_connection_jobs(Connection& conn);
  /// Join + close connections whose reader has exited (acceptor-side
  /// cleanup; event callbacks keep the Connection alive via shared_ptr).
  void reap_finished_locked();
  void drain_worker();
  void close_all_sockets();

  ServerOptions opts_;
  std::unique_ptr<SweepService> service_;
  int listen_fd_ = -1;  ///< guarded by mu_
  int port_ = 0;
  std::thread acceptor_;
  std::thread drainer_;

  mutable std::mutex mu_;
  std::condition_variable stopped_cv_;
  std::vector<std::shared_ptr<Connection>> conns_;
  bool accepting_ = false;
  bool drain_requested_ = false;
  bool stopped_ = false;
};

}  // namespace tac3d::service
