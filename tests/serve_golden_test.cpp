// Replays tests/data/golden_responses/ — raw HTTP response bytes captured
// from the pre-router server by tools/make_golden_responses — against a
// live server and compares byte-for-byte. This is the pin for the route
// registry redesign: every endpoint (success, 400, 404, 405, 503) must
// answer the EXACT bytes the Endpoint-enum dispatch answered, or the serve
// wire format changed and the fixtures need a deliberate regeneration.
//
// The request bytes are rebuilt here from manifest.txt with the same
// rendering convention the capture tool uses, so fixture and replay cannot
// drift apart; the case list lives only in the tool.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <charconv>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "query/engine.h"
#include "query/snapshot.h"
#include "serve/server.h"
#include "sim/scenario.h"

namespace dosm::serve {
namespace {

struct Case {
  std::string slug;
  std::string engine;  // "main" or "empty"
  std::string method;
  std::string target;
  std::string body;
};

std::vector<Case> load_manifest(const std::string& dir) {
  std::ifstream in(dir + "/manifest.txt");
  EXPECT_TRUE(in.is_open()) << dir << "/manifest.txt";
  std::vector<Case> cases;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Case c;
    std::istringstream fields(line);
    std::getline(fields, c.slug, '\t');
    std::getline(fields, c.engine, '\t');
    std::getline(fields, c.method, '\t');
    std::getline(fields, c.target, '\t');
    std::getline(fields, c.body, '\t');
    cases.push_back(std::move(c));
  }
  return cases;
}

std::string load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

/// Identical to tools/make_golden_responses render_request — the shared
/// convention that keeps fixture and replay in lockstep.
std::string render_request(const Case& c) {
  std::string raw = c.method + " " + c.target + " HTTP/1.1\r\n";
  raw += "Connection: close\r\n";
  if (!c.body.empty())
    raw += "Content-Length: " + std::to_string(c.body.size()) + "\r\n";
  raw += "\r\n";
  raw += c.body;
  return raw;
}

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  return fd;
}

void send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

std::string read_response(int fd) {
  std::string response;
  char chunk[4096];
  std::size_t need = std::string::npos;
  for (;;) {
    if (need == std::string::npos) {
      const std::size_t head_end = response.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        const std::size_t field = response.find("Content-Length: ");
        if (field == std::string::npos || field > head_end) return response;
        std::size_t length = 0;
        std::from_chars(response.data() + field + 16,
                        response.data() + head_end, length);
        need = head_end + 4 + length;
      }
    }
    if (need != std::string::npos && response.size() >= need)
      return response.substr(0, need);
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return response;
    response.append(chunk, static_cast<std::size_t>(n));
  }
}

TEST(ServeGoldenTest, EveryEndpointAnswersTheCapturedBytes) {
  const std::string dir = DOSM_GOLDEN_RESPONSES;
  const std::vector<Case> cases = load_manifest(dir);
  ASSERT_FALSE(cases.empty());

  // The same fixture worlds the capture tool served from.
  const auto world = sim::build_world(sim::ScenarioConfig::small());
  query::QueryEngine main_engine;
  main_engine.publish(query::Snapshot::build(
      world->store.window(), world->store.events(),
      query::BuildContext{world->population.pfx2as(),
                          world->population.geo()},
      1));
  query::QueryEngine empty_engine;

  ServerConfig config;
  config.workers = 1;
  const Server main_server(config, main_engine);
  const Server empty_server(config, empty_engine);

  for (const Case& c : cases) {
    SCOPED_TRACE(c.slug + ": " + c.method + " " + c.target);
    const std::string expected = load_file(dir + "/" + c.slug + ".bin");
    ASSERT_FALSE(expected.empty());
    const int fd = connect_to(
        c.engine == "main" ? main_server.port() : empty_server.port());
    send_all(fd, render_request(c));
    const std::string actual = read_response(fd);
    ::close(fd);
    EXPECT_EQ(actual, expected);
  }
}

// /metrics has no golden body (its counters are runtime state); pin the
// status line and content type instead.
TEST(ServeGoldenTest, MetricsStatusAndContentTypeArePinned) {
  query::QueryEngine engine;
  ServerConfig config;
  config.workers = 1;
  const Server server(config, engine);
  const int fd = connect_to(server.port());
  send_all(fd, "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
  const std::string response = read_response(fd);
  ::close(fd);
  EXPECT_EQ(response.substr(0, 15), "HTTP/1.1 200 OK");
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4\r\n"),
            std::string::npos)
      << response.substr(0, 200);
}

}  // namespace
}  // namespace dosm::serve
