// Query-server bench: closed-loop load against `dosm_serve` over loopback
// TCP, measuring sustained QPS and latency percentiles for the cached
// dashboard workload (the repeated cross-vantage comparison queries a
// version-keyed cache should absorb between daily publishes).
//
// Before any timing runs, an identity check replays every workload query
// against (a) a 1-worker cache-disabled server and (b) an 8-worker cached
// server (twice: cold then cached) and requires ALL raw response bytes to
// be identical — the serve determinism contract, enforced here so a timing
// number can never come from a server that answers wrong.
//
// Emits BENCH_serve.json (QPS, p50/p99, per-endpoint mix) and fails when
// the default-size run sustains < 10k QPS on cached queries.
//
//   $ ./bench_serve [--smoke] [--out FILE]
//     --smoke   small world + short measurement (CI wiring check; the
//               10k-QPS gate only applies to the default size)
//     --out F   baseline path (default BENCH_serve.json)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "query/engine.h"
#include "query/snapshot.h"
#include "serve/server.h"

namespace {

using namespace dosm;
using clock_type = std::chrono::steady_clock;  // lint:allow(wall-clock): benchmarks time real execution

// ---------------------------------------------------------------------------
// Minimal blocking HTTP client (loopback only).
// ---------------------------------------------------------------------------

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error("connect() failed");
  }
  return fd;
}

void send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("send() failed");
    sent += static_cast<std::size_t>(n);
  }
}

/// Sends one keep-alive GET and reads exactly one full response (raw bytes,
/// headers included). The connection stays usable for the next request.
std::string fetch(int fd, const std::string& path) {
  send_all(fd, "GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n");
  std::string response;
  char chunk[8192];
  std::size_t need = std::string::npos;
  for (;;) {
    if (need == std::string::npos) {
      const std::size_t head_end = response.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        const std::size_t field = response.find("Content-Length: ");
        if (field == std::string::npos || field > head_end)
          throw std::runtime_error("response without Content-Length");
        std::size_t length = 0;
        const char* begin = response.data() + field + 16;
        const auto [ptr, ec] =
            std::from_chars(begin, response.data() + head_end, length);
        if (ec != std::errc{}) throw std::runtime_error("bad Content-Length");
        (void)ptr;
        need = head_end + 4 + length;
      }
    }
    if (need != std::string::npos && response.size() >= need)
      return response.substr(0, need);
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) throw std::runtime_error("recv() failed mid-response");
    response.append(chunk, static_cast<std::size_t>(n));
  }
}

// ---------------------------------------------------------------------------
// Workload + measurement.
// ---------------------------------------------------------------------------

/// The dashboard mix: the aggregations a monitoring frontend refreshes on
/// every view, all cacheable (no free-text variance, fixed k).
std::vector<std::pair<std::string, std::string>> dashboard_queries() {
  return {
      {"summary", "/query?agg=summary"},
      {"daily", "/query?agg=daily"},
      {"top_targets", "/query?agg=top-targets&k=10"},
      {"top_asns", "/query?agg=top-asns&k=10"},
      {"top_countries", "/query?agg=top-countries&k=10"},
      {"telescope_summary", "/query?agg=summary&source=telescope"},
      {"honeypot_summary", "/query?agg=summary&source=honeypot"},
      {"health", "/healthz"},
  };
}

struct LoadResult {
  std::uint64_t requests = 0;
  double elapsed_s = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Closed-loop load: each client thread owns one keep-alive connection and
/// cycles through the query mix for `duration_s`, recording per-request
/// latency. QPS = total completed requests / wall time.
LoadResult run_load(std::uint16_t port, std::size_t clients,
                    double duration_s) {
  const auto queries = dashboard_queries();
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::uint64_t> counts(clients, 0);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const auto begin = clock_type::now();
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const int fd = connect_to(port);
      std::size_t next = c;  // stagger the mix across clients
      auto& lat = latencies[c];
      lat.reserve(65536);
      while (std::chrono::duration<double>(clock_type::now() - begin)
                 .count() < duration_s) {
        const auto t0 = clock_type::now();
        const std::string response =
            fetch(fd, queries[next % queries.size()].second);
        const auto t1 = clock_type::now();
        if (response.compare(0, 12, "HTTP/1.1 200") != 0)
          throw std::runtime_error("non-200 under load: " +
                                   response.substr(0, 32));
        lat.push_back(std::chrono::duration<double>(t1 - t0).count() * 1e6);
        ++counts[c];
        ++next;
      }
      ::close(fd);
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(clock_type::now() - begin).count();

  LoadResult result;
  result.elapsed_s = elapsed;
  std::vector<double> all;
  for (std::size_t c = 0; c < clients; ++c) {
    result.requests += counts[c];
    all.insert(all.end(), latencies[c].begin(), latencies[c].end());
  }
  std::sort(all.begin(), all.end());
  result.qps = static_cast<double>(result.requests) / elapsed;
  if (!all.empty()) {
    result.p50_us = all[all.size() / 2];
    result.p99_us = all[(all.size() * 99) / 100 < all.size()
                            ? (all.size() * 99) / 100
                            : all.size() - 1];
  }
  return result;
}

int run(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    else if (arg == "--out" && i + 1 < argc) out_path = argv[++i];
    else {
      std::cerr << "usage: bench_serve [--smoke] [--out FILE]\n";
      return 2;
    }
  }

  sim::ScenarioConfig config = bench::default_config();
  if (smoke) config = sim::ScenarioConfig::small();
  bench::print_header(
      "Query server: cached dashboard QPS over loopback HTTP",
      "serving-layer addition; no paper table — baseline for "
      "BENCH_serve.json");
  std::cerr << "[bench] building " << config.window.num_days()
            << "-day world...\n";
  const auto world = sim::build_world(config);
  const query::BuildContext ctx{world->population.pfx2as(),
                                world->population.geo()};
  query::QueryEngine engine;
  engine.publish(query::Snapshot::build(world->store.window(),
                                        world->store.events(), ctx, 1));
  std::cerr << "[bench] snapshot ready: " << engine.snapshot()->size()
            << " events\n";

  const auto queries = dashboard_queries();

  // --- Identity check (must pass before any timing) --------------------
  // 1 worker + no cache vs 8 workers + cache (cold, then warm): every raw
  // response — headers and body — must be byte-identical.
  {
    serve::ServerConfig plain;
    plain.workers = 1;
    plain.cache_bytes = 0;
    const serve::Server server_plain(plain, engine);

    serve::ServerConfig cached;
    cached.workers = 8;
    const serve::Server server_cached(cached, engine);

    const int fd_plain = connect_to(server_plain.port());
    const int fd_cached = connect_to(server_cached.port());
    for (const auto& [name, path] : queries) {
      const std::string reference = fetch(fd_plain, path);
      const std::string cold = fetch(fd_cached, path);
      const std::string warm = fetch(fd_cached, path);
      if (reference != cold || reference != warm) {
        std::cerr << "bench_serve: identity check FAILED on " << name
                  << " (1-worker/uncached vs 8-worker cold/cached)\n";
        return 1;
      }
    }
    ::close(fd_plain);
    ::close(fd_cached);
    std::cout << "identity check: " << queries.size()
              << " queries byte-identical across worker counts and cache "
                 "states\n";
  }

  // --- Timed load ------------------------------------------------------
  serve::ServerConfig cfg;
  cfg.workers = 8;
  const serve::Server server(cfg, engine);
  const std::size_t clients = smoke ? 2 : 8;
  const double duration_s = smoke ? 0.3 : 3.0;

  // Warm the cache so the measurement is the cached dashboard workload.
  {
    const int fd = connect_to(server.port());
    for (const auto& [name, path] : queries) fetch(fd, path);
    ::close(fd);
  }
  const LoadResult load = run_load(server.port(), clients, duration_s);

  TextTable table({"metric", "value"});
  table.add_row({"clients", std::to_string(clients)});
  table.add_row({"workers", std::to_string(cfg.workers)});
  table.add_row({"requests", std::to_string(load.requests)});
  table.add_row({"elapsed_s", fixed(load.elapsed_s, 2)});
  table.add_row({"qps", fixed(load.qps, 0)});
  table.add_row({"p50_us", fixed(load.p50_us, 1)});
  table.add_row({"p99_us", fixed(load.p99_us, 1)});
  std::cout << table;

  bench::JsonValue root;
  root.set("bench", "serve")
      .set("smoke", smoke)
      .set("events", static_cast<std::uint64_t>(engine.snapshot()->size()))
      .set("days", static_cast<std::uint64_t>(config.window.num_days()))
      .set("seed", static_cast<std::uint64_t>(config.seed))
      .set("identity_check", true)
      .set("clients", static_cast<std::uint64_t>(clients))
      .set("workers", static_cast<std::uint64_t>(cfg.workers))
      .set("queries_in_mix", static_cast<std::uint64_t>(queries.size()))
      .set("requests", load.requests)
      .set("elapsed_s", load.elapsed_s)
      .set("qps", load.qps)
      .set("p50_us", load.p50_us)
      .set("p99_us", load.p99_us);
  bench::write_json(out_path, root);

  if (!smoke && load.qps < 10000.0) {
    std::cerr << "bench_serve: " << fixed(load.qps, 0)
              << " QPS is below the 10k cached-dashboard baseline\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  return run(argc, argv);
} catch (const std::exception& e) {
  std::cerr << "bench_serve: " << e.what() << "\n";
  return 1;
}
