#include "service/client.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>

#include "rng/engine.h"
#include "service/server.h"

namespace cny::service {

namespace {

[[noreturn]] void transport_fail(const std::string& message) {
  throw ServiceError("transport", message);
}

}  // namespace

Frame read_response(std::string_view bytes, FrameType expected) {
  if (bytes.empty()) {
    // The loopback fault harness models a dropped connection as an empty
    // response; a real socket drop already failed inside the read.
    transport_fail("connection dropped before the response arrived");
  }
  Frame frame;
  try {
    frame = decode_frame(bytes);
  } catch (const ProtocolError& e) {
    // Truncated or mangled bytes: the wire failed, not the request.
    transport_fail(std::string("undecodable response: ") + e.what());
  }
  if (frame.type == FrameType::Error) {
    const auto info = error_from_payload(frame.payload);
    throw ServiceError(info.code, info.message);
  }
  if (frame.type != expected) {
    throw ServiceError(
        "unexpected_frame",
        "expected frame type " +
            std::to_string(static_cast<std::uint32_t>(expected)) +
            ", got " +
            std::to_string(static_cast<std::uint32_t>(frame.type)));
  }
  if (expected == FrameType::FlowResponse) {
    try {
      (void)flow_result_from_json(Json::parse(frame.payload));
    } catch (const std::exception& e) {
      // A response that arrived but does not decode was corrupted in
      // flight — a transport failure, retried like one.
      transport_fail(std::string("corrupt response payload: ") + e.what());
    }
  }
  return frame;
}

unsigned RetryPolicy::backoff_ms(unsigned attempt) const {
  const double capped =
      std::min(static_cast<double>(backoff_base_ms) *
                   std::pow(backoff_multiplier,
                            static_cast<double>(attempt > 0 ? attempt - 1 : 0)),
               static_cast<double>(backoff_max_ms));
  // Jitter in [0.5, 1.0), a pure function of (seed, attempt): replayable
  // within one client, decorrelated across seeds.
  std::uint64_t state = jitter_seed ^ (0x9e3779b97f4a7c15ULL * (attempt + 1));
  const double unit =
      static_cast<double>(rng::splitmix64(state) >> 11) * 0x1.0p-53;
  const double jittered = capped * (0.5 + 0.5 * unit);
  return std::max(1u, static_cast<unsigned>(std::lround(jittered)));
}

YieldClient::YieldClient(YieldServer& server) : loopback_(&server) {}

YieldClient::YieldClient(const std::string& host, std::uint16_t port,
                         unsigned timeout_ms)
    : timeout_ms_(timeout_ms), host_(host), port_(port) {
  connect_tcp();
}

void YieldClient::connect_tcp() {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* found = nullptr;
  const int rc =
      ::getaddrinfo(host_.c_str(), std::to_string(port_).c_str(), &hints,
                    &found);
  if (rc != 0 || found == nullptr) {
    transport_fail("cannot resolve " + host_ + ": " + ::gai_strerror(rc));
  }
  fd_ = ::socket(found->ai_family, found->ai_socktype | SOCK_CLOEXEC,
                 found->ai_protocol);
  if (fd_ < 0) {
    ::freeaddrinfo(found);
    transport_fail(std::string("socket: ") + std::strerror(errno));
  }
  if (::connect(fd_, found->ai_addr, found->ai_addrlen) < 0) {
    const std::string what = std::string("connect ") + host_ + ":" +
                             std::to_string(port_) + ": " +
                             std::strerror(errno);
    ::freeaddrinfo(found);
    ::close(fd_);
    fd_ = -1;
    transport_fail(what);
  }
  ::freeaddrinfo(found);
}

YieldClient::~YieldClient() {
  if (fd_ >= 0) ::close(fd_);
}

YieldClient::YieldClient(YieldClient&& other) noexcept
    : loopback_(other.loopback_), fd_(other.fd_),
      timeout_ms_(other.timeout_ms_), host_(std::move(other.host_)),
      port_(other.port_), retry_(other.retry_), trace_(other.trace_) {
  other.loopback_ = nullptr;
  other.fd_ = -1;
}

std::string YieldClient::roundtrip(std::string frame) {
  if (loopback_ != nullptr) return loopback_->submit(std::move(frame)).get();

  // A broken TCP connection reconnects lazily, so a retry after a dropped
  // connection gets a fresh one instead of a guaranteed send failure.
  if (fd_ < 0 && !host_.empty()) connect_tcp();
  if (fd_ < 0) transport_fail("client connection is closed");
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t k =
        ::send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (k <= 0) transport_fail(std::string("send: ") + std::strerror(errno));
    sent += static_cast<std::size_t>(k);
  }

  using clock = std::chrono::steady_clock;
  const auto deadline = clock::now() + std::chrono::milliseconds(timeout_ms_);
  const auto read_full = [&](char* out, std::size_t n) {
    std::size_t got = 0;
    while (got < n) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - clock::now());
      if (left.count() <= 0) transport_fail("response timed out");
      pollfd pfd{fd_, POLLIN, 0};
      const int r = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (r < 0 && errno != EINTR) {
        transport_fail(std::string("poll: ") + std::strerror(errno));
      }
      if (r <= 0) continue;
      const ssize_t k = ::recv(fd_, out + got, n - got, 0);
      if (k <= 0) transport_fail("server closed the connection");
      got += static_cast<std::size_t>(k);
    }
  };

  std::string response(kHeaderBytes, '\0');
  read_full(response.data(), kHeaderBytes);
  FrameHeader header;
  try {
    header = decode_header(response);
  } catch (const ProtocolError& e) {
    // A mangled header leaves the stream unframeable: the wire failed.
    transport_fail(std::string("undecodable response: ") + e.what());
  }
  response.resize(kHeaderBytes + header.payload_size);
  if (header.payload_size > 0) {
    read_full(response.data() + kHeaderBytes, header.payload_size);
  }
  return response;
}

Frame YieldClient::request_reply(const std::string& frame,
                                 FrameType expected) {
  using clock = std::chrono::steady_clock;
  const unsigned max_attempts = std::max(1u, retry_.max_attempts);
  const auto deadline =
      clock::now() + std::chrono::milliseconds(
                         retry_.deadline_ms > 0 ? retry_.deadline_ms
                                                : std::uint64_t{0});
  for (unsigned attempt = 1;; ++attempt) {
    // One span per attempt (inert when no sink): makes a client's retry
    // ladder — each attempt's duration and outcome — visible next to the
    // server-side spans in the same trace.
    obs::Span span(trace_, "client.attempt", "client");
    span.arg("attempt", std::to_string(attempt));
    try {
      Frame response = read_response(roundtrip(frame), expected);
      span.arg("outcome", "ok");
      return response;
    } catch (const ServiceError& e) {
      span.arg("outcome", e.code());
      span.finish();
      if (!e.transient() || attempt >= max_attempts) throw;
      const unsigned backoff = retry_.backoff_ms(attempt);
      if (retry_.deadline_ms > 0 &&
          clock::now() + std::chrono::milliseconds(backoff) >= deadline) {
        throw;  // the budget is spent; surface the last transient error
      }
      if (fd_ >= 0 && e.code() == "transport") {
        // The stream state is unknowable after a transport error; start
        // the next attempt on a fresh connection.
        ::close(fd_);
        fd_ = -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
  }
}

yield::FlowResult YieldClient::call(const FlowRequest& request) {
  const Frame response =
      request_reply(encode_flow_request(request), FrameType::FlowResponse);
  return flow_result_from_json(Json::parse(response.payload));
}

std::string YieldClient::ping() {
  return request_reply(encode_frame(FrameType::Ping, "{}"), FrameType::Pong)
      .payload;
}

std::string YieldClient::stats() {
  return request_reply(encode_frame(FrameType::Stats, "{}"),
                       FrameType::StatsReply)
      .payload;
}

void YieldClient::shutdown_server() {
  (void)read_response(roundtrip(encode_frame(FrameType::Shutdown, "{}")),
                      FrameType::Pong);
}

}  // namespace cny::service
