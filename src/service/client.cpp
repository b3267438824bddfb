#include "service/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/error.hpp"

namespace tac3d::service {

namespace proto = protocol;

ServiceClient::~ServiceClient() { close(); }

void ServiceClient::connect(const std::string& host, int port) {
  require(fd_ < 0, "ServiceClient::connect: already connected");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw Error("socket() failed");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw Error("inet_pton failed for host '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    throw Error("connect to " + host + ":" + std::to_string(port) +
                " failed: " + std::strerror(err));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
}

void ServiceClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
  inbox_.clear();
}

void ServiceClient::send_raw(const void* data, std::size_t n) {
  require(fd_ >= 0, "ServiceClient: not connected");
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd_, bytes + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw Error("ServiceClient: send failed: " +
                  std::string(std::strerror(errno)));
    }
    off += static_cast<std::size_t>(w);
  }
}

void ServiceClient::send(const proto::Message& msg) {
  const std::vector<std::uint8_t> frame = proto::encode_frame(msg);
  send_raw(frame.data(), frame.size());
}

proto::Message ServiceClient::read_message() {
  require(fd_ >= 0, "ServiceClient: not connected");
  std::uint8_t chunk[4096];
  for (;;) {
    const proto::FrameSplit split = proto::split_frame(buffer_);
    if (split.status == proto::FrameSplit::Status::kFrame) {
      const proto::Decoded decoded = proto::decode_payload(
          std::span<const std::uint8_t>(buffer_).subspan(
              split.payload_offset, split.payload_size));
      buffer_.erase(
          buffer_.begin(),
          buffer_.begin() + static_cast<std::ptrdiff_t>(split.consumed));
      if (!decoded.ok()) {
        throw Error("ServiceClient: undecodable frame from server: " +
                    std::string(proto::decode_error_name(decoded.error)) +
                    " (" + decoded.detail + ")");
      }
      return decoded.msg;
    }
    if (split.status != proto::FrameSplit::Status::kNeedMore) {
      throw Error("ServiceClient: corrupt frame stream from server");
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw Error("ServiceClient: connection closed by server");
    buffer_.insert(buffer_.end(), chunk, chunk + n);
  }
}

template <typename Pred>
proto::Message ServiceClient::read_matching(Pred pred) {
  for (auto it = inbox_.begin(); it != inbox_.end(); ++it) {
    if (pred(*it)) {
      proto::Message msg = std::move(*it);
      inbox_.erase(it);
      return msg;
    }
  }
  for (;;) {
    proto::Message msg = read_message();
    if (pred(msg)) return msg;
    inbox_.push_back(std::move(msg));
  }
}

proto::SubmitAckMsg ServiceClient::submit_sweep(
    std::vector<sim::Scenario> scenarios, int cores_requested,
    std::uint32_t client_tag) {
  proto::SubmitSweepMsg req;
  req.client_tag = client_tag;
  req.cores_requested = static_cast<std::uint16_t>(
      std::clamp(cores_requested, 1, 0xFFFF));
  req.scenarios = std::move(scenarios);
  send(req);
  return read_ack(client_tag, "submit");
}

proto::SubmitAckMsg ServiceClient::read_ack(std::uint32_t client_tag,
                                            const char* what) {
  const proto::Message reply = read_matching([&](const proto::Message& m) {
    if (const auto* ack = std::get_if<proto::SubmitAckMsg>(&m)) {
      return ack->client_tag == client_tag;
    }
    if (const auto* err = std::get_if<proto::ErrorMsg>(&m)) {
      return err->client_tag == client_tag;
    }
    return false;
  });
  if (const auto* err = std::get_if<proto::ErrorMsg>(&reply)) {
    throw Error(std::string(what) + " rejected (code " +
                std::to_string(err->code) + "): " + err->text);
  }
  return std::get<proto::SubmitAckMsg>(reply);
}

SweepOutcome ServiceClient::collect(
    std::uint32_t job_id,
    const std::function<void(const proto::ScenarioResultMsg&)>& on_result) {
  SweepOutcome out;
  out.job_id = job_id;
  for (;;) {
    const proto::Message msg = read_matching([&](const proto::Message& m) {
      if (const auto* r = std::get_if<proto::ScenarioResultMsg>(&m)) {
        return r->job_id == job_id;
      }
      if (const auto* c = std::get_if<proto::SweepCompleteMsg>(&m)) {
        return c->job_id == job_id;
      }
      return false;
    });
    if (const auto* r = std::get_if<proto::ScenarioResultMsg>(&msg)) {
      if (on_result) on_result(*r);
      out.results.push_back(*r);
      continue;
    }
    out.complete = std::get<proto::SweepCompleteMsg>(msg);
    break;
  }
  std::sort(out.results.begin(), out.results.end(),
            [](const proto::ScenarioResultMsg& a,
               const proto::ScenarioResultMsg& b) { return a.index < b.index; });
  return out;
}

SweepOutcome ServiceClient::run_sweep(std::vector<sim::Scenario> scenarios,
                                      int cores_requested) {
  const proto::SubmitAckMsg ack =
      submit_sweep(std::move(scenarios), cores_requested);
  return collect(ack.job_id);
}

proto::ScenarioResultMsg ServiceClient::what_if(const sim::Scenario& scenario) {
  proto::WhatIfMsg req;
  if (++what_if_tag_ == 0) ++what_if_tag_;  // 0 stays the sweeps' default
  req.client_tag = what_if_tag_;
  req.scenario = scenario;
  send(req);
  SweepOutcome out = collect(read_ack(req.client_tag, "what-if").job_id);
  require(out.results.size() == 1, "what-if job streamed an unexpected count");
  return out.results.front();
}

proto::StatusMsg ServiceClient::query_status() {
  send(proto::QueryStatusMsg{});
  const proto::Message reply = read_matching([](const proto::Message& m) {
    return std::holds_alternative<proto::StatusMsg>(m);
  });
  return std::get<proto::StatusMsg>(reply);
}

proto::MetricsMsg ServiceClient::query_metrics() {
  send(proto::QueryMetricsMsg{});
  const proto::Message reply = read_matching([](const proto::Message& m) {
    return std::holds_alternative<proto::MetricsMsg>(m);
  });
  return std::get<proto::MetricsMsg>(reply);
}

bool ServiceClient::cancel(std::uint32_t job_id) {
  proto::CancelMsg req;
  req.job_id = job_id;
  send(req);
  // Success has no direct reply (the job's stream ends with
  // kSweepComplete); failure is an ErrorMsg{kUnknownJob}. Disambiguate
  // by asking for status afterwards: the status reply acts as a fence —
  // any kUnknownJob error for this cancel was sent before it.
  send(proto::QueryStatusMsg{});
  bool ok = true;
  for (;;) {
    proto::Message msg = read_message();
    if (const auto* err = std::get_if<proto::ErrorMsg>(&msg)) {
      if (err->code ==
          static_cast<std::uint16_t>(proto::ServiceError::kUnknownJob)) {
        ok = false;
        continue;
      }
    }
    if (std::holds_alternative<proto::StatusMsg>(msg)) return ok;
    inbox_.push_back(std::move(msg));
  }
}

void ServiceClient::request_drain() { send(proto::ShutdownDrainMsg{}); }

proto::DrainCompleteMsg ServiceClient::wait_drain_complete() {
  const proto::Message msg = read_matching([](const proto::Message& m) {
    return std::holds_alternative<proto::DrainCompleteMsg>(m);
  });
  return std::get<proto::DrainCompleteMsg>(msg);
}

}  // namespace tac3d::service
