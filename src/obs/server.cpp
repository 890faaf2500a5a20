#include "obs/server.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#if !defined(MATON_OBS_OFF)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>
#endif

#include "obs/diff.hpp"
#include "obs/expose.hpp"
#include "obs/trace.hpp"

namespace maton::obs {

#if defined(MATON_OBS_OFF)

// Compiled-out plane: no sockets, no threads, no state.
struct ExpoServer::State {};

ExpoServer::ExpoServer() = default;
ExpoServer::~ExpoServer() = default;

Status ExpoServer::start(const std::string& addr) {
  (void)addr;
  return unimplemented("observability compiled out (MATON_OBS_OFF)");
}

void ExpoServer::stop() {}

bool ExpoServer::running() const noexcept { return false; }

std::uint16_t ExpoServer::port() const noexcept { return 0; }

std::string ExpoServer::address() const { return ""; }

#else

namespace {

struct ParsedAddr {
  std::string host;
  std::uint16_t port = 0;
};

Result<ParsedAddr> parse_addr(const std::string& addr) {
  ParsedAddr out;
  std::string port_str = addr;
  if (const auto colon = addr.rfind(':'); colon != std::string::npos) {
    out.host = addr.substr(0, colon);
    port_str = addr.substr(colon + 1);
  }
  if (out.host.empty() || out.host == "localhost") out.host = "127.0.0.1";
  if (port_str.empty()) {
    return invalid_argument("metrics address needs a port: " + addr);
  }
  char* end = nullptr;
  const unsigned long port = std::strtoul(port_str.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || port > 65535) {
    return invalid_argument("bad metrics port: " + addr);
  }
  out.port = static_cast<std::uint16_t>(port);
  return out;
}

/// Per-connection deadline: a client that has not finished its exchange
/// this long after it connected is dropped, so it can hold neither a
/// connection slot nor stop()'s join hostage.
constexpr auto kConnectionTimeout = std::chrono::seconds(2);

/// Connections served at once. Further clients wait in the listen
/// backlog until a slot frees, at the latest when a deadline expires.
constexpr std::size_t kMaxConnections = 8;

/// Request bytes read before the request is answered regardless.
constexpr std::size_t kMaxRequestBytes = 16384;

using Clock = std::chrono::steady_clock;

std::string make_response(int code, std::string_view reason,
                          std::string_view content_type,
                          const std::string& body, bool head_only) {
  std::string out = "HTTP/1.1 " + std::to_string(code) + " ";
  out += reason;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  if (!head_only) out += body;
  return out;
}

double monotonic_seconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// The last socket call failed only for now; retry on the next poll.
[[nodiscard]] bool transient_error() noexcept {
  return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
}

/// One client exchange: read the request, then write the response.
struct Connection {
  int fd = -1;
  Clock::time_point deadline;
  std::string request;
  std::string response;  // non-empty once the request is answered
  std::size_t sent = 0;
};

void close_connection(const Connection& c) {
  ::shutdown(c.fd, SHUT_RDWR);
  ::close(c.fd);
}

}  // namespace

struct ExpoServer::State {
  int listen_fd = -1;
  std::uint16_t port = 0;
  std::string host;
  std::thread thread;
  std::atomic<bool> stopping{false};
  std::atomic<bool> running{false};
  ScrapeDiff diff;  // touched only from the serving thread

  /// The full HTTP response to `req`; "" when there is nothing to
  /// answer (no request line arrived). Only the request line is
  /// interpreted.
  std::string respond(const std::string& req) {
    const auto line_end = req.find("\r\n");
    if (line_end == std::string::npos) return "";
    const std::string line = req.substr(0, line_end);
    const auto sp1 = line.find(' ');
    const auto sp2 = line.rfind(' ');
    if (sp1 == std::string::npos || sp2 <= sp1) {
      return make_response(400, "Bad Request", "text/plain",
                           "bad request\n", false);
    }
    const std::string method = line.substr(0, sp1);
    std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
    if (const auto q = path.find('?'); q != std::string::npos) {
      path.resize(q);  // queries are accepted and ignored
    }
    const bool head = method == "HEAD";
    if (!head && method != "GET") {
      return make_response(405, "Method Not Allowed", "text/plain",
                           "only GET and HEAD\n", false);
    }

    if (path == "/healthz") {
      return make_response(200, "OK", "text/plain; charset=utf-8", "ok\n",
                           head);
    }
    if (path == "/trace") {
      return make_response(200, "OK", "application/json",
                           render_chrome_trace(), head);
    }
    if (path == "/metrics" || path == "/metrics.json") {
      update_derived_gauges();
      const Snapshot snap = diff.augment(MetricRegistry::global().scrape(),
                                         monotonic_seconds());
      if (path == "/metrics") {
        return make_response(200, "OK",
                             "text/plain; version=0.0.4; charset=utf-8",
                             render_prometheus(snap), head);
      }
      return make_response(200, "OK", "application/json", render_json(snap),
                           head);
    }
    return make_response(404, "Not Found", "text/plain", "not found\n",
                         false);
  }

  /// Moves `c` forward as far as its socket allows without blocking:
  /// reads until the request headers are complete (or the peer closes,
  /// or the cap is hit), answers, then writes. True when it is done.
  bool advance(Connection& c) {
    if (c.response.empty()) {
      char buf[2048];
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n < 0 && transient_error()) return false;
      if (n > 0) c.request.append(buf, static_cast<std::size_t>(n));
      if (n > 0 && c.request.find("\r\n\r\n") == std::string::npos &&
          c.request.size() < kMaxRequestBytes) {
        return false;
      }
      c.response = respond(c.request);
      if (c.response.empty()) return true;
    }
    while (c.sent < c.response.size()) {
      const ssize_t n = ::send(c.fd, c.response.data() + c.sent,
                               c.response.size() - c.sent, MSG_NOSIGNAL);
      if (n < 0 && transient_error()) return false;  // buffer full
      if (n <= 0) return true;                        // peer gone
      c.sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// One thread polls the listening socket and up to kMaxConnections
  /// non-blocking clients, so a stalled client delays no other scrape.
  /// Requests are still answered one at a time on this thread.
  void serve_loop() {
    std::vector<Connection> conns;
    std::vector<pollfd> fds;
    while (!stopping.load(std::memory_order_relaxed)) {
      const auto now = Clock::now();
      int timeout_ms = -1;
      fds.assign(1, {listen_fd,
                     static_cast<short>(conns.size() < kMaxConnections
                                            ? POLLIN
                                            : 0),
                     0});
      for (const Connection& c : conns) {
        fds.push_back({c.fd,
                       static_cast<short>(c.response.empty() ? POLLIN
                                                             : POLLOUT),
                       0});
        const auto left = std::chrono::ceil<std::chrono::milliseconds>(
            c.deadline - now);
        const int ms = static_cast<int>(std::max<long long>(0, left.count()));
        timeout_ms = timeout_ms < 0 ? ms : std::min(timeout_ms, ms);
      }
      if (::poll(fds.data(), fds.size(), timeout_ms) < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if ((fds[0].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
        break;  // listening socket shut down by stop()
      }
      const auto after = Clock::now();
      std::size_t kept = 0;
      for (std::size_t i = 0; i < conns.size(); ++i) {
        Connection& c = conns[i];
        const bool done = (fds[i + 1].revents != 0 && advance(c)) ||
                          after >= c.deadline;
        if (done) {
          close_connection(c);
          continue;
        }
        if (kept != i) conns[kept] = std::move(c);
        ++kept;
      }
      conns.resize(kept);
      if ((fds[0].revents & POLLIN) != 0) {
        const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
        if (fd >= 0) {
          conns.push_back({.fd = fd, .deadline = after + kConnectionTimeout});
        } else if (!transient_error() && errno != ECONNABORTED) {
          break;  // listening socket is unusable; nothing left to serve
        }
      }
    }
    for (const Connection& c : conns) close_connection(c);
  }
};

ExpoServer::ExpoServer() : state_(std::make_unique<State>()) {}

ExpoServer::~ExpoServer() { stop(); }

Status ExpoServer::start(const std::string& addr) {
  if (state_->running.load(std::memory_order_relaxed)) {
    return failed_precondition("scrape server already running");
  }
  const auto parsed = parse_addr(addr);
  if (!parsed.is_ok()) return parsed.status();

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    return internal_error(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(parsed.value().port);
  if (::inet_pton(AF_INET, parsed.value().host.c_str(), &sa.sin_addr) != 1) {
    ::close(fd);
    return invalid_argument("bad metrics host (want IPv4 literal): " +
                            parsed.value().host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    const Status err =
        internal_error("bind " + addr + ": " + std::strerror(errno));
    ::close(fd);
    return err;
  }
  if (::listen(fd, 16) != 0) {
    const Status err =
        internal_error("listen " + addr + ": " + std::strerror(errno));
    ::close(fd);
    return err;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const Status err =
        internal_error(std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return err;
  }

  state_->listen_fd = fd;
  state_->port = ntohs(bound.sin_port);
  state_->host = parsed.value().host;
  state_->stopping.store(false, std::memory_order_relaxed);
  state_->running.store(true, std::memory_order_relaxed);
  state_->thread = std::thread([s = state_.get()] { s->serve_loop(); });
  return Status::ok();
}

void ExpoServer::stop() {
  if (!state_->running.load(std::memory_order_relaxed)) return;
  state_->stopping.store(true, std::memory_order_relaxed);
  // shutdown() wakes the serving thread's poll() with POLLHUP on the
  // listening socket; close it only once that thread is gone.
  ::shutdown(state_->listen_fd, SHUT_RDWR);
  if (state_->thread.joinable()) state_->thread.join();
  ::close(state_->listen_fd);
  state_->listen_fd = -1;
  state_->port = 0;
  state_->running.store(false, std::memory_order_relaxed);
}

bool ExpoServer::running() const noexcept {
  return state_->running.load(std::memory_order_relaxed);
}

std::uint16_t ExpoServer::port() const noexcept { return state_->port; }

std::string ExpoServer::address() const {
  if (!running()) return "";
  return state_->host + ":" + std::to_string(state_->port);
}

#endif  // MATON_OBS_OFF

Status start_from_env(ExpoServer& server) {
  const char* addr = std::getenv("MATON_METRICS_ADDR");
  if (addr == nullptr || *addr == '\0') return Status::ok();
  return server.start(addr);
}

}  // namespace maton::obs
