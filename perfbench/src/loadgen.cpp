#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "trace.h"

namespace perfbench {
namespace {

/// Parses `{"snapshot_version":N,...` at the front of a /query body.
std::uint64_t version_of(const std::string& body) {
  static constexpr std::string_view kKey = "{\"snapshot_version\":";
  if (body.compare(0, kKey.size(), kKey) != 0) return 0;
  std::uint64_t version = 0;
  std::from_chars(body.data() + kKey.size(), body.data() + body.size(), version);
  return version;
}

}  // namespace

HttpClient::HttpClient(std::uint16_t port) : port_(port) { reconnect(); }

HttpClient::~HttpClient() {
  if (fd_ >= 0) ::close(fd_);
}

void HttpClient::reconnect() {
  if (fd_ >= 0) ::close(fd_);
  buf_.clear();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0)
    throw std::runtime_error("connect() to the server failed");
}

bool HttpClient::round_trip(const std::string& request, Response& out, int timeout_ms) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_ms) * 1'000'000;
  auto fail = [&] {
    reconnect();
    return false;
  };
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return fail();
    sent += static_cast<std::size_t>(n);
  }
  // Read until the head and Content-Length body bytes are in.
  std::size_t head_end = std::string::npos;
  std::size_t need = 0;
  char chunk[65536];
  for (;;) {
    if (head_end == std::string::npos) {
      head_end = buf_.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        const std::size_t cl = buf_.find("Content-Length: ");
        if (cl == std::string::npos || cl > head_end) return fail();
        std::size_t length = 0;
        std::from_chars(buf_.data() + cl + 16, buf_.data() + head_end, length);
        need = head_end + 4 + length;
      }
    }
    if (head_end != std::string::npos && buf_.size() >= need) break;
    const auto left_ms = (deadline - now_ns()) / 1'000'000;
    if (left_ms <= 0) return fail();
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) return fail();
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return fail();
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
  // "HTTP/1.1 200 OK"
  if (buf_.size() < 12 || buf_.compare(0, 9, "HTTP/1.1 ") != 0) return fail();
  out.status = 0;
  std::from_chars(buf_.data() + 9, buf_.data() + 12, out.status);
  out.body.assign(buf_, head_end + 4, need - head_end - 4);
  buf_.erase(0, need);
  return true;
}

std::string get_request(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
}

LoadGenerator::LoadGenerator(std::uint16_t port, int connections, RequestSource requests)
    : requests_(std::move(requests)) {
  for (int c = 0; c < connections; ++c)
    clients_.push_back(std::make_unique<HttpClient>(port));
}

void LoadGenerator::send(HttpClient& client, std::uint64_t index, Sample& sample) {
  HttpClient::Response response;
  const std::string request = requests_(index);
  sample.request = index;
  sample.send_ns = now_ns();
  bool ok = false;
  try {
    ok = client.round_trip(request, response, kRequestTimeoutMs);
  } catch (const std::exception&) {
    ok = false;  // reconnect failed: counted as a transport failure
  }
  sample.done_ns = now_ns();
  if (!ok) return;
  sample.status = response.status;
  sample.version = version_of(response.body);
  sample.hash = fnv1a(response.body);
  sample.length = static_cast<std::uint32_t>(response.body.size());
}

std::vector<Sample> LoadGenerator::open_loop(std::size_t first, double rate, double seconds) {
  const auto total = static_cast<std::size_t>(rate * seconds);
  std::vector<Sample> samples(total);
  const int conns = connections();
  const std::int64_t t0 = now_ns() + 2'000'000;  // threads start first
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      SpanSum span("serve.request");
      for (std::size_t i = static_cast<std::size_t>(c); i < total; i += static_cast<std::size_t>(conns)) {
        Sample& s = samples[i];
        s.due_ns = t0 + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate);
        const std::int64_t wait = s.due_ns - now_ns();
        if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
        span.time([&] { send(*clients_[static_cast<std::size_t>(c)], first + i, s); });
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return samples;
}

LoadGenerator::Burst LoadGenerator::closed_loop(std::size_t first, std::size_t count,
                                               std::vector<Sample>& out) {
  std::vector<Sample> samples(count);
  std::vector<double> thread_cpu(clients_.size(), 0.0);
  std::atomic<std::size_t> next{0};
  const std::int64_t t0 = now_ns();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    threads.emplace_back([&, c] {
      {
        Span conn("live.connection");
        SpanSum span("serve.request");
        for (std::size_t i = next++; i < count; i = next++) {
          Sample& s = samples[i];
          s.due_ns = now_ns();
          span.time([&] { send(*clients_[c], first + i, s); });
        }
      }
      thread_cpu[c] = thread_cpu_s();  // the thread's whole life
    });
  }
  for (std::thread& t : threads) t.join();
  Burst burst;
  burst.seconds = seconds_since(t0);
  for (const double cpu : thread_cpu) burst.client_cpu_s += cpu;
  out.insert(out.end(), samples.begin(), samples.end());
  return burst;
}

std::uint64_t max_backlog(const std::vector<Sample>& samples) {
  std::vector<std::pair<std::int64_t, int>> edges;
  edges.reserve(samples.size() * 2);
  for (const Sample& s : samples) {
    edges.push_back({s.due_ns, +1});
    edges.push_back({s.done_ns, -1});
  }
  std::sort(edges.begin(), edges.end());
  std::int64_t backlog = 0, peak = 0;
  for (const auto& [t, d] : edges) {
    backlog += d;
    peak = std::max(peak, backlog);
  }
  return static_cast<std::uint64_t>(peak);
}

std::uint64_t final_backlog(const std::vector<Sample>& samples) {
  std::int64_t last_due = 0;
  for (const Sample& s : samples) last_due = std::max(last_due, s.due_ns);
  std::uint64_t open = 0;
  for (const Sample& s : samples)
    if (s.done_ns > last_due) ++open;
  return open;
}

}  // namespace perfbench
