#include "service/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/protocol.hpp"

namespace tac3d::service {

namespace proto = protocol;

/// One client connection: the socket, its reader thread, the write lock
/// that serializes ack/stream frames, and the job ids submitted over it
/// (cancelled as a group when the peer goes away). Held by shared_ptr:
/// job event callbacks keep the connection alive until their job is
/// fully finalized, even after the acceptor reaped it.
struct ServiceServer::Connection {
  int fd = -1;
  std::thread reader;
  std::mutex write_mu;
  bool dead = false;  ///< guarded by write_mu; set before fd close
  std::mutex jobs_mu;
  std::vector<std::uint32_t> jobs;
  bool done = false;  ///< guarded by the server mu_; reader has exited
};

namespace {

/// write() the whole buffer; EINTR-safe; false when the peer is gone.
/// MSG_NOSIGNAL keeps a dead peer from raising SIGPIPE in a worker.
bool send_all(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (w == 0) return false;
    off += static_cast<std::size_t>(w);
  }
  return true;
}

/// A typed rejection; \p code is a DecodeError or a ServiceError.
template <class Code>
proto::ErrorMsg error_msg(Code code, std::uint32_t client_tag,
                          std::string text) {
  return {static_cast<std::uint16_t>(code), client_tag, std::move(text)};
}

}  // namespace

ServiceServer::ServiceServer(ServerOptions opts) : opts_(std::move(opts)) {}

ServiceServer::~ServiceServer() { stop(); }

void ServiceServer::start() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    require(listen_fd_ < 0, "ServiceServer::start: already started");
  }
  service_ = std::make_unique<SweepService>(opts_.service);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw Error("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    throw Error("bind() failed on 127.0.0.1:" + std::to_string(opts_.port) +
                ": " + std::strerror(err));
  }
  if (::listen(fd, opts_.backlog) < 0) {
    ::close(fd);
    throw Error("listen() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  {
    std::lock_guard<std::mutex> lk(mu_);
    listen_fd_ = fd;
    accepting_ = true;
  }
  // The acceptor works on its own copy of the descriptor: listen_fd_ is
  // reset at teardown, and only after the acceptor has been joined.
  acceptor_ = std::thread([this, fd] { accept_loop(fd); });
}

void ServiceServer::accept_loop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listening socket shut down: stopping
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    {
      std::lock_guard<std::mutex> lk(mu_);
      reap_finished_locked();
      if (accepting_) {
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        conns_.push_back(conn);
        conn->reader = std::thread([this, conn] { connection_loop(conn); });
        continue;
      }
    }
    // Draining or stopping: say so, so the client can tell this server
    // from a dead one, then close.
    const std::vector<std::uint8_t> frame = proto::encode_frame(
        error_msg(proto::ServiceError::kRejectedDraining, 0,
                  "server is draining; not accepting new connections"));
    send_all(fd, frame.data(), frame.size());
    ::close(fd);
  }
}

void ServiceServer::reap_finished_locked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection& conn = **it;
    if (!conn.done) {
      ++it;
      continue;
    }
    if (conn.reader.joinable()) conn.reader.join();
    {
      // Late job events may still hold this Connection; make sure they
      // see dead before the fd number can be reused.
      std::lock_guard<std::mutex> wl(conn.write_mu);
      conn.dead = true;
    }
    ::close(conn.fd);
    conn.fd = -1;
    it = conns_.erase(it);
  }
}

void ServiceServer::connection_loop(const std::shared_ptr<Connection>& conn) {
  std::vector<std::uint8_t> buffer;
  std::uint64_t discard = 0;  ///< oversized-frame payload bytes to drop
  std::uint8_t chunk[4096];

  for (;;) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or error: peer is gone

    std::size_t off = 0;
    if (discard > 0) {
      const std::size_t drop =
          std::min<std::uint64_t>(discard, static_cast<std::uint64_t>(n));
      discard -= drop;
      off = drop;
    }
    buffer.insert(buffer.end(), chunk + off, chunk + n);

    for (;;) {
      const proto::FrameSplit split = proto::split_frame(buffer);
      if (split.status == proto::FrameSplit::Status::kNeedMore) break;

      if (split.status == proto::FrameSplit::Status::kMalformed) {
        send_frame(*conn, error_msg(proto::DecodeError::kMalformed, 0,
                                    "zero-length frame"));
      } else if (split.status == proto::FrameSplit::Status::kOversized) {
        send_frame(*conn,
                   error_msg(proto::DecodeError::kOversized, 0,
                             "frame payload of " +
                                 std::to_string(split.declared_size) +
                                 " bytes exceeds the " +
                                 std::to_string(proto::kMaxFramePayload) +
                                 "-byte limit"));
        // Stay frame-aligned: drop the declared payload — the buffered
        // part now, the rest as it arrives — then keep serving.
        std::uint64_t pending = split.declared_size;
        const std::size_t buffered = std::min<std::uint64_t>(
            pending, buffer.size() - split.consumed);
        pending -= buffered;
        buffer.erase(
            buffer.begin(),
            buffer.begin() +
                static_cast<std::ptrdiff_t>(split.consumed + buffered));
        discard = pending;
        if (discard > 0) break;
        continue;
      } else {
        const proto::Decoded decoded = proto::decode_payload(
            std::span<const std::uint8_t>(buffer).subspan(
                split.payload_offset, split.payload_size));
        if (!decoded.ok()) {
          send_frame(*conn, error_msg(decoded.error, decoded.client_tag,
                                      decoded.detail));
        } else {
          handle_message(conn, decoded.msg);
        }
      }
      buffer.erase(
          buffer.begin(),
          buffer.begin() + static_cast<std::ptrdiff_t>(split.consumed));
    }
  }

  // Peer gone (or sockets shut down): cancel exactly this connection's
  // jobs. Running scenarios stop at their next control interval, pending
  // ones are skipped, other clients never notice.
  cancel_connection_jobs(*conn);
  std::lock_guard<std::mutex> lk(mu_);
  conn->done = true;
}

void ServiceServer::handle_message(const std::shared_ptr<Connection>& conn,
                                   const proto::Message& msg) {
  obs::TraceSpan request_span("service/request");
  auto submit = [&](std::uint32_t client_tag,
                    std::vector<sim::Scenario> scenarios, int cores) {
    if (scenarios.empty()) {
      send_frame(*conn, error_msg(proto::ServiceError::kBadRequest, client_tag,
                                  "submit with zero scenarios"));
      return;
    }
    // Hold the write lock across submit + ack so a worker finishing the
    // first scenario cannot stream its result ahead of the ack. The
    // callback captures the Connection by shared_ptr: it stays valid
    // until the job's last event, even after the connection was reaped.
    std::unique_lock<std::mutex> wl(conn->write_mu);
    std::optional<proto::SubmitAckMsg> ack = service_->submit(
        std::move(scenarios), cores,
        [this, conn](const proto::Message& ev) { send_frame(*conn, ev); });
    if (!ack) {
      wl.unlock();
      send_frame(*conn,
                 error_msg(proto::ServiceError::kRejectedDraining, client_tag,
                           "server is draining; not accepting new work"));
      return;
    }
    {
      std::lock_guard<std::mutex> jl(conn->jobs_mu);
      conn->jobs.push_back(ack->job_id);
    }
    ack->client_tag = client_tag;
    const std::vector<std::uint8_t> frame = proto::encode_frame(*ack);
    if (!conn->dead && !send_all(conn->fd, frame.data(), frame.size())) {
      conn->dead = true;
      ::shutdown(conn->fd, SHUT_RD);
    }
  };

  if (const auto* m = std::get_if<proto::SubmitSweepMsg>(&msg)) {
    submit(m->client_tag, m->scenarios, m->cores_requested);
  } else if (const auto* w = std::get_if<proto::WhatIfMsg>(&msg)) {
    submit(w->client_tag, {w->scenario}, 1);
  } else if (std::get_if<proto::QueryStatusMsg>(&msg)) {
    send_frame(*conn, service_->status());
  } else if (std::get_if<proto::QueryMetricsMsg>(&msg)) {
    // Stream the registry snapshot: counters and gauges one entry
    // each, histograms with their sparse bucket lists (tac3d_top and
    // tac3d_serve --status reconstruct quantiles from those).
    const obs::Snapshot snap = obs::snapshot();
    proto::MetricsMsg out;
    auto room = [&] {
      return out.entries.size() < proto::kMaxMetricEntries;
    };
    for (const auto& [name, value] : snap.counters) {
      if (!room()) break;
      proto::MetricEntryMsg e;
      e.name = name;
      e.kind = proto::MetricEntryMsg::kCounter;
      e.count = value;
      out.entries.push_back(std::move(e));
    }
    for (const auto& [name, value] : snap.gauges) {
      if (!room()) break;
      proto::MetricEntryMsg e;
      e.name = name;
      e.kind = proto::MetricEntryMsg::kGauge;
      e.value = value;
      out.entries.push_back(std::move(e));
    }
    for (const auto& [name, hist] : snap.histograms) {
      if (!room()) break;
      proto::MetricEntryMsg e;
      e.name = name;
      e.kind = proto::MetricEntryMsg::kHistogram;
      e.count = hist.count();
      e.value = hist.sum();
      e.min = hist.min();
      e.max = hist.max();
      e.buckets = hist.sparse_buckets();
      if (e.buckets.size() > proto::kMaxMetricBuckets)
        e.buckets.resize(proto::kMaxMetricBuckets);
      out.entries.push_back(std::move(e));
    }
    send_frame(*conn, out);
  } else if (const auto* c = std::get_if<proto::CancelMsg>(&msg)) {
    if (!service_->cancel(c->job_id)) {
      send_frame(*conn, error_msg(proto::ServiceError::kUnknownJob, 0,
                                  "no live job " + std::to_string(c->job_id)));
    }
    // A successful cancel is acknowledged by the job's kSweepComplete
    // (was_cancelled) on the submitting stream.
  } else if (std::get_if<proto::ShutdownDrainMsg>(&msg)) {
    request_drain();
  } else {
    // A response-typed message sent by a confused client: decodable but
    // not a request.
    send_frame(*conn,
               error_msg(proto::ServiceError::kBadRequest, 0,
                         "message tag " +
                             std::to_string(static_cast<int>(
                                 proto::msg_type(msg))) +
                             " is not a request"));
  }
}

bool ServiceServer::send_frame(Connection& conn, const proto::Message& msg) {
  const std::vector<std::uint8_t> frame = proto::encode_frame(msg);
  std::lock_guard<std::mutex> wl(conn.write_mu);
  if (conn.dead) return false;
  if (!send_all(conn.fd, frame.data(), frame.size())) {
    conn.dead = true;
    // Wake the reader (its recv fails once the read side is shut); it
    // cancels the connection's jobs on its way out. Cancelling here
    // would re-enter the service under locks the event path holds.
    ::shutdown(conn.fd, SHUT_RD);
    return false;
  }
  return true;
}

void ServiceServer::cancel_connection_jobs(Connection& conn) {
  std::vector<std::uint32_t> jobs;
  {
    std::lock_guard<std::mutex> jl(conn.jobs_mu);
    jobs.swap(conn.jobs);
  }
  for (const std::uint32_t id : jobs) service_->cancel(id);
}

void ServiceServer::request_drain() {
  std::lock_guard<std::mutex> lk(mu_);
  if (drain_requested_ || stopped_) return;
  drain_requested_ = true;
  accepting_ = false;
  // Drain blocks until all accepted work finished — run it off-thread so
  // a connection handler (or a signal watcher) can request it and keep
  // serving its stream meanwhile. Assigned under mu_ so stop() sees it.
  drainer_ = std::thread([this] { drain_worker(); });
}

void ServiceServer::drain_worker() {
  service_->drain();  // blocks: accepted jobs all complete

  proto::DrainCompleteMsg done;
  done.scenarios_finished = service_->status().scenarios_completed;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& conn : conns_) {
      send_frame(*conn, done);
    }
  }
  close_all_sockets();
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopped_ = true;
  }
  stopped_cv_.notify_all();
}

void ServiceServer::wait() {
  std::unique_lock<std::mutex> lk(mu_);
  stopped_cv_.wait(lk, [&] { return stopped_; });
}

bool ServiceServer::running() const {
  std::lock_guard<std::mutex> lk(mu_);
  return listen_fd_ >= 0 && !stopped_;
}

void ServiceServer::close_all_sockets() {
  // Shut the listening socket down so accept_loop's accept() fails and
  // the acceptor exits; close the descriptor only once the acceptor is
  // joined, so its number cannot be reused under a pending accept().
  // Then unblock every connection reader.
  int listen_fd = -1;
  {
    std::lock_guard<std::mutex> lk(mu_);
    accepting_ = false;
    listen_fd = listen_fd_;
  }
  if (listen_fd >= 0) ::shutdown(listen_fd, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd >= 0) {
    ::close(listen_fd);
    std::lock_guard<std::mutex> lk(mu_);
    listen_fd_ = -1;
  }

  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lk(mu_);
    conns.swap(conns_);
  }
  for (const auto& conn : conns) {
    ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (const auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
    {
      std::lock_guard<std::mutex> wl(conn->write_mu);
      conn->dead = true;
    }
    ::close(conn->fd);
    conn->fd = -1;
  }
}

void ServiceServer::stop() {
  bool was_draining = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopped_ && !drainer_.joinable() && !acceptor_.joinable()) return;
    was_draining = drain_requested_;
    // Claim the teardown: a drain requested after this point no-ops
    // instead of racing close_all_sockets.
    drain_requested_ = true;
    accepting_ = false;
  }
  if (was_draining) {
    // A drain is already tearing the server down; just wait for it.
    wait();
    std::thread drainer;
    {
      std::lock_guard<std::mutex> lk(mu_);
      drainer.swap(drainer_);
    }
    if (drainer.joinable()) drainer.join();
    return;
  }
  // Hard stop: kill the sockets; each reader cancels its connection's
  // jobs on the way out (running scenarios stop at their next control
  // interval). The SweepService stays alive for post-stop inspection;
  // its destructor joins the workers.
  close_all_sockets();
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopped_ = true;
  }
  stopped_cv_.notify_all();
  if (drainer_.joinable()) drainer_.join();
}

}  // namespace tac3d::service
