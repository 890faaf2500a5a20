#include "obs/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/status.hpp"

namespace maton::obs {
namespace {

#if defined(MATON_OBS_OFF)

TEST(ServerCompiledOut, StartReturnsUnimplemented) {
  ExpoServer server;
  const Status started = server.start("127.0.0.1:0");
  EXPECT_EQ(started.code(), StatusCode::kUnimplemented);
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0);
}

TEST(ServerCompiledOut, EnvStartPropagatesUnimplemented) {
  ExpoServer server;
  ::setenv("MATON_METRICS_ADDR", "127.0.0.1:0", 1);
  const Status started = start_from_env(server);
  ::unsetenv("MATON_METRICS_ADDR");
  EXPECT_EQ(started.code(), StatusCode::kUnimplemented);
  EXPECT_FALSE(server.running());
}

#else

/// Socket connected to 127.0.0.1:`port`, or -1 on failure. A positive
/// `recv_timeout_s` bounds every recv on it.
int connect_loopback(std::uint16_t port, int recv_timeout_s = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (recv_timeout_s > 0) {
    timeval timeout{};
    timeout.tv_sec = recv_timeout_s;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One-shot HTTP GET against 127.0.0.1:`port`; returns the full response
/// (status line + headers + body), "" on connect failure, and whatever
/// arrived before the timeout when `recv_timeout_s` > 0 runs out.
std::string http_get(std::uint16_t port, const std::string& path,
                     int recv_timeout_s = 0) {
  const int fd = connect_loopback(port, recv_timeout_s);
  if (fd < 0) return "";
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: localhost\r\n"
                              "Connection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent,
                             request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

[[nodiscard]] std::string body_of(const std::string& response) {
  const auto pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

/// Value of the first sample line starting exactly with `name ` in a
/// Prometheus text body; NaN when absent.
[[nodiscard]] double sample_value(const std::string& body,
                                  const std::string& name) {
  std::size_t pos = 0;
  const std::string prefix = name + " ";
  while (pos < body.size()) {
    const std::size_t eol = body.find('\n', pos);
    const std::string line =
        body.substr(pos, eol == std::string::npos ? body.size() - pos
                                                  : eol - pos);
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(server_.start("127.0.0.1:0").is_ok());
    ASSERT_TRUE(server_.running());
    ASSERT_NE(server_.port(), 0);
  }
  ExpoServer server_;
};

TEST_F(ServerTest, HealthzRespondsOk) {
  const std::string response = http_get(server_.port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_EQ(body_of(response), "ok\n");
}

TEST_F(ServerTest, UnknownPathIs404) {
  const std::string response = http_get(server_.port(), "/nope");
  EXPECT_NE(response.find("HTTP/1.1 404"), std::string::npos);
}

TEST_F(ServerTest, MetricsServesAugmentedPrometheusText) {
  MetricRegistry::global().counter("maton_test_server_total").add(3);
  const std::string response = http_get(server_.port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  const std::string body = body_of(response);
  // Derived process gauges ride along with every scrape.
  EXPECT_NE(body.find("maton_build_info{"), std::string::npos);
  EXPECT_NE(body.find("maton_rss_bytes "), std::string::npos);
  EXPECT_NE(body.find("maton_trace_rings "), std::string::npos);
  EXPECT_NE(body.find("maton_cp_incremental_fallback_ratio "),
            std::string::npos);
  EXPECT_GE(sample_value(body, "maton_test_server_total"), 3.0);
}

TEST_F(ServerTest, ConsecutiveScrapesSeeMonotoneCountersAndRates) {
  Counter& counter =
      MetricRegistry::global().counter("maton_test_server_total");
  counter.add(10);
  const double first = sample_value(
      body_of(http_get(server_.port(), "/metrics")),
      "maton_test_server_total");
  counter.add(5);
  const std::string second_body =
      body_of(http_get(server_.port(), "/metrics"));
  const double second =
      sample_value(second_body, "maton_test_server_total");
  EXPECT_GE(second, first + 5.0);
  // The second scrape has a previous scrape to diff against, so the
  // counter's per-interval rate gauge appears and is non-negative.
  const double rate =
      sample_value(second_body, "maton_test_server_total_per_sec");
  EXPECT_FALSE(std::isnan(rate));
  EXPECT_GE(rate, 0.0);
}

TEST_F(ServerTest, MetricsJsonServesSameSnapshot) {
  const std::string response = http_get(server_.port(), "/metrics.json");
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  EXPECT_NE(body_of(response).find("maton_build_info"), std::string::npos);
}

TEST_F(ServerTest, TraceServesMergedChromeTrace) {
  { const TraceSpan span("server_test_span"); }
  const std::string response = http_get(server_.port(), "/trace");
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  const std::string body = body_of(response);
  EXPECT_NE(body.find("\"traceEvents\":"), std::string::npos);
  EXPECT_NE(body.find("server_test_span"), std::string::npos);
}

TEST_F(ServerTest, SecondStartFailsWhileRunning) {
  ExpoServer& server = server_;
  const Status again = server.start("127.0.0.1:0");
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
  server.stop();
  EXPECT_FALSE(server.running());
  // stop() is idempotent and the server can be restarted afterwards.
  server.stop();
  ASSERT_TRUE(server.start("127.0.0.1:0").is_ok());
  EXPECT_NE(http_get(server.port(), "/healthz").find("200"),
            std::string::npos);
}

TEST_F(ServerTest, IdleClientDoesNotStallLaterScrapes) {
  // A client that connects and sends nothing must not delay a
  // concurrent scrape, not even by its 2 s deadline. The scraper's own
  // 10 s receive timeout turns a server that waits on the idle client
  // into a failure here instead of a hang.
  const int idle = connect_loopback(server_.port(), 5);
  ASSERT_GE(idle, 0);
  const auto start = std::chrono::steady_clock::now();
  const std::string response = http_get(server_.port(), "/healthz", 10);
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_EQ(body_of(response), "ok\n");
  EXPECT_LT(took.count(), 0.5);
  // The idle client is still dropped at its deadline: recv sees the
  // server close the connection, not the client's own 5 s timeout.
  char byte = 0;
  EXPECT_EQ(::recv(idle, &byte, 1, 0), 0);
  ::close(idle);
  server_.stop();
  EXPECT_FALSE(server_.running());
}

TEST(ServerStart, RejectsMalformedAddresses) {
  ExpoServer server;
  EXPECT_EQ(server.start("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.start("127.0.0.1:notaport").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.start("999.999.0.1:80").code(),
            StatusCode::kInvalidArgument);
}

TEST(ServerStart, EnvUnsetIsOkAndNotRunning) {
  ::unsetenv("MATON_METRICS_ADDR");
  ExpoServer server;
  EXPECT_TRUE(start_from_env(server).is_ok());
  EXPECT_FALSE(server.running());
}

TEST(ServerStart, EnvSetStartsTheServer) {
  ::setenv("MATON_METRICS_ADDR", "127.0.0.1:0", 1);
  ExpoServer server;
  const Status started = start_from_env(server);
  ::unsetenv("MATON_METRICS_ADDR");
  ASSERT_TRUE(started.is_ok());
  EXPECT_TRUE(server.running());
  EXPECT_NE(http_get(server.port(), "/healthz").find("200"),
            std::string::npos);
}

#endif  // MATON_OBS_OFF

}  // namespace
}  // namespace maton::obs
