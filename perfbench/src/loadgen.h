// Load generator for the `live` workload: keep-alive HTTP/1.1 clients over
// loopback, an open-loop scheduler and a closed-loop burst runner.
//
// Open loop: request i of a phase is due at t0 + i / rate and goes out on
// connection i mod C; each connection sends its requests in order, one in
// flight at a time. Latency is measured from the due time, not the send
// time, so a stall also charges the requests queued behind it; how late
// sends ran is recorded separately.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// One keep-alive connection to 127.0.0.1:port. Not thread-safe; each
/// generator thread owns one.
class HttpClient {
 public:
  explicit HttpClient(std::uint16_t port);
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  struct Response {
    int status = 0;
    std::string body;
  };
  /// Sends `request` (complete HTTP bytes) and reads one response. Returns
  /// false on a socket error, malformed response or timeout; the
  /// connection is then reopened for the next call.
  bool round_trip(const std::string& request, Response& out, int timeout_ms);

 private:
  void reconnect();
  std::uint16_t port_;
  int fd_ = -1;
  std::string buf_;
};

/// "GET <target> HTTP/1.1" with a Host header.
std::string get_request(const std::string& target);

struct Sample {
  std::int64_t due_ns = 0;
  std::int64_t send_ns = 0;
  std::int64_t done_ns = 0;
  std::uint64_t request = 0;  // request index
  int status = 0;             // 0 = transport failure / timeout
  std::uint64_t version = 0;  // snapshot_version named by the body
  std::uint64_t hash = 0;
  std::uint32_t length = 0;

  double latency_ms() const { return static_cast<double>(done_ns - due_ns) * 1e-6; }
  double lateness_ms() const { return static_cast<double>(send_ns - due_ns) * 1e-6; }
};

constexpr int kRequestTimeoutMs = 5000;

class LoadGenerator {
 public:
  /// Complete HTTP bytes of request i; called from the sender threads.
  using RequestSource = std::function<std::string(std::size_t)>;

  /// Opens `connections` keep-alive connections to the server.
  LoadGenerator(std::uint16_t port, int connections, RequestSource requests);

  /// Sends requests [first, first + rate * seconds) on schedule; returns
  /// one sample per request.
  std::vector<Sample> open_loop(std::size_t first, double rate, double seconds);
  /// A closed-loop burst's wall seconds and the CPU seconds its sender
  /// threads spent (building requests, reading and hashing responses).
  struct Burst {
    double seconds = 0.0;
    double client_cpu_s = 0.0;
  };
  /// Sends requests [first, first + count) as fast as responses return and
  /// appends their samples to `out`.
  Burst closed_loop(std::size_t first, std::size_t count, std::vector<Sample>& out);

  int connections() const { return static_cast<int>(clients_.size()); }

 private:
  void send(HttpClient& client, std::uint64_t index, Sample& sample);
  RequestSource requests_;
  std::vector<std::unique_ptr<HttpClient>> clients_;
};

/// Peak of (requests due so far - requests completed so far) over a phase.
std::uint64_t max_backlog(const std::vector<Sample>& samples);
/// Requests due but not completed at the phase's last due time.
std::uint64_t final_backlog(const std::vector<Sample>& samples);

}  // namespace perfbench
