// Regenerates tests/data/golden_responses/, the checked-in raw HTTP
// response bytes that pin the serve layer's wire format. The golden test
// (tests/serve_golden_test.cpp) replays manifest.txt against a live server
// and compares byte-for-byte, so any refactor of the routing/execution
// path that changes a single response byte fails loudly.
//
// Regenerate ONLY for a deliberate, reviewed wire-format change:
//
//   $ ./make_golden_responses <repo-root>/tests/data/golden_responses
//
// The fixture world is sim::ScenarioConfig::small() published as snapshot
// version 1 — the same fixture tests/serve_test.cpp serves from. /metrics
// is deliberately absent: its body depends on runtime counter state, so
// the test pins only its status line and content type.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <charconv>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "query/engine.h"
#include "query/snapshot.h"
#include "serve/server.h"
#include "sim/scenario.h"

namespace {

struct Case {
  std::string slug;    // file name stem
  std::string engine;  // "main" (small world, version 1) or "empty"
  std::string method;
  std::string target;
  std::string body;  // empty for bodyless requests
};

// Every pre-existing endpoint, success and failure paths alike. Adding a
// case here requires regenerating the fixtures. Duplicate-parameter
// requests are deliberately absent: their semantics are pinned separately
// (they reject as 400 — see tests/serve_test.cpp).
std::vector<Case> cases() {
  return {
      {"root", "main", "GET", "/", ""},
      {"health", "main", "GET", "/healthz", ""},
      {"query_default", "main", "GET", "/query", ""},
      {"query_summary_honeypot", "main", "GET",
       "/query?agg=summary&source=honeypot", ""},
      {"query_summary_min_intensity", "main", "GET",
       "/query?agg=summary&min_intensity=0.5", ""},
      {"query_daily", "main", "GET", "/query?agg=daily", ""},
      {"query_top_targets", "main", "GET", "/query?agg=top-targets&k=7", ""},
      {"query_top_asns", "main", "GET", "/query?agg=top-asns&k=7", ""},
      {"query_top_countries", "main", "GET", "/query?agg=top-countries&k=7",
       ""},
      {"query_events_explain", "main", "GET", "/query?agg=events&k=5&explain=1",
       ""},
      {"query_window_days", "main", "GET",
       "/query?from=2015-02-01&to=2015-03-01", ""},
      {"query_window_seconds", "main", "GET",
       "/query?t0=1420070400&t1=1420675200", ""},
      {"query_prefix", "main", "GET", "/query?prefix=10.0.0.0/8", ""},
      {"query_country", "main", "GET", "/query?country=US", ""},
      {"query_port", "main", "GET", "/query?port=53", ""},
      {"query_post_form", "main", "POST", "/query", "agg=top-targets&k=3"},
      {"notfound", "main", "GET", "/nope", ""},
      {"notfound_deep", "main", "GET", "/query/deep", ""},
      {"method_root", "main", "POST", "/", ""},
      {"method_health", "main", "POST", "/healthz", ""},
      {"method_metrics", "main", "POST", "/metrics", ""},
      {"method_query", "main", "DELETE", "/query", ""},
      {"bad_param", "main", "GET", "/query?bogus=1", ""},
      {"bad_asn", "main", "GET", "/query?asn=abc", ""},
      {"bad_time_mix", "main", "GET", "/query?from=2015-01-01&t0=5", ""},
      {"bad_agg", "main", "GET", "/query?agg=median", ""},
      {"empty_health", "empty", "GET", "/healthz", ""},
      {"empty_query", "empty", "GET", "/query", ""},
  };
}

/// The exact request bytes for a case — the test builds the identical
/// string, so the fixture and the replay can never drift apart.
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
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one full response (headers + Content-Length body).
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

}  // namespace

int main(int argc, char** argv) {
  using namespace dosm;
  if (argc != 2) {
    std::cerr << "usage: make_golden_responses <output-dir>\n";
    return 2;
  }
  const std::string out_dir = argv[1];

  const auto world = sim::build_world(sim::ScenarioConfig::small());
  query::QueryEngine main_engine;
  main_engine.publish(query::Snapshot::build(
      world->store.window(), world->store.events(),
      query::BuildContext{world->population.pfx2as(),
                          world->population.geo()},
      1));
  query::QueryEngine empty_engine;

  serve::ServerConfig config;
  config.workers = 1;
  const serve::Server main_server(config, main_engine);
  const serve::Server empty_server(config, empty_engine);

  std::ofstream manifest(out_dir + "/manifest.txt");
  if (!manifest) {
    std::cerr << "cannot write " << out_dir << "/manifest.txt\n";
    return 1;
  }
  for (const Case& c : cases()) {
    const std::uint16_t port =
        c.engine == "main" ? main_server.port() : empty_server.port();
    const int fd = connect_to(port);
    if (fd < 0) {
      std::cerr << c.slug << ": connect failed\n";
      return 1;
    }
    std::string response;
    if (send_all(fd, render_request(c))) response = read_response(fd);
    ::close(fd);
    if (response.empty()) {
      std::cerr << c.slug << ": empty response\n";
      return 1;
    }
    std::ofstream out(out_dir + "/" + c.slug + ".bin", std::ios::binary);
    out.write(response.data(),
              static_cast<std::streamsize>(response.size()));
    if (!out) {
      std::cerr << c.slug << ": write failed\n";
      return 1;
    }
    manifest << c.slug << '\t' << c.engine << '\t' << c.method << '\t'
             << c.target << '\t' << c.body << '\n';
    std::cout << c.slug << ": " << response.size() << " bytes\n";
  }
  return 0;
}
