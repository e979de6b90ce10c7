// Workload `live`: the paper's §9 near-realtime loop, served over HTTP.
//
// Set-up: the `history` world; its first kPrepublishDays days are
// published before timing; a serve::Server (workers = nproc) runs over the
// QueryEngine with a subscribe::Dispatcher attached and one kind=new-attack
// watcher registered.
//
// Timed phases, in order:
//   bursts  closed loop, writer paused: pairs of batches over all generator
//           connections, kHitBurst dashboard queries (cache hits) then
//           kMissBurst distinct filtered queries (misses), so each path's
//           cost shows on its own; run_cpu_s is the server's CPU (process
//           minus generator threads) for one pair;
//   low     open loop at kLowRate req/s;
//   high    open loop at kHighRate req/s;
//   ladder  open loop at each of kLadder for an equal slice; max_qps is
//           the highest rate whose tail latency meets kLatencyLimitMs with
//           no backlog left at the end of the step.
// During the open-loop phases a writer publishes the next day every
// kPublishPeriodS via SnapshotPublisher and then calls Dispatcher::tick();
// one connection long-polls /watch and times each day's notifications
// from that tick. The open-loop mix is kDashboardShare repeated dashboard
// queries (cache hits between publishes) and distinct filtered queries.
// The share, the rates and the publish period are assumed traffic, not
// measured; they shape only the report-only latency figures.
//
// Oracle: every /query body must be byte-equal to serve::execute_query on
// the snapshot version the response names.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "dataset.h"
#include "loadgen.h"
#include "query/engine.h"
#include "report.h"
#include "serve/api.h"
#include "serve/http.h"
#include "serve/metrics.h"
#include "serve/server.h"
#include "subscribe/dispatcher.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace dosm;

constexpr int kPrepublishDays = 600;
constexpr double kPublishPeriodS = 0.1;
constexpr double kLowRate = 200.0;
constexpr double kHighRate = 800.0;
constexpr double kLadder[] = {400, 800, 1600, 3200, 6400};
constexpr double kLatencyLimitMs = 25.0;
constexpr std::size_t kHitBurst = 8000;
constexpr std::size_t kMissBurst = 2000;
// Nominal wall seconds of one hit + miss pair on 4 cores. The pair count is
// fixed from --seconds with it, so the samples kept for the oracle, and with
// them the peak RSS, do not grow with server speed.
constexpr double kPairSeconds = 0.2;
constexpr double kDashboardShare = 0.8;
constexpr int kSetupRepeats = 3;

// ---------------------------------------------------------------------------
// Request mix: request i is a pure function of (seed, i), generated when it
// is sent, so no request pool sits in memory. The top bits of i name its
// traffic: the open-loop mix, dashboard queries only, or distinct filtered
// queries only.

enum class Traffic : std::uint64_t { kMixed = 0, kHit = 1, kMiss = 2 };
constexpr int kTrafficShift = 56;

constexpr std::uint64_t request_id(Traffic traffic, std::uint64_t i) {
  return static_cast<std::uint64_t>(traffic) << kTrafficShift | i;
}

class RequestMix {
 public:
  RequestMix(const Dataset& data, std::uint64_t seed) : data_(data), seed_(seed) {
    const std::string top_country =
        data.countries.empty() ? "US" : data.countries[0].to_string();
    dashboard_ = {
        "/query?agg=summary",
        "/query?agg=daily",
        "/query?agg=top-targets&k=10",
        "/query?agg=top-asns&k=10",
        "/query?agg=top-countries&k=10",
        "/query?agg=summary&source=telescope",
        "/query?agg=summary&source=honeypot",
        "/query?agg=top-targets&k=10&country=" + top_country,
    };
  }

  /// Complete HTTP bytes of request `index`.
  std::string at(std::size_t index) const {
    Rng rng(seed_ ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
    const auto traffic = static_cast<Traffic>(index >> kTrafficShift);
    if (traffic == Traffic::kHit ||
        (traffic == Traffic::kMixed && rng.bernoulli(kDashboardShare)))
      return get_request(dashboard_[rng.next_below(dashboard_.size())]);
    // A distinct filtered query: random second-granular range + one filter.
    static const char* const aggs[] = {"summary", "top-targets", "daily", "top-asns"};
    const auto t_begin = static_cast<double>(data_.window.start_time());
    const auto t_end = static_cast<double>(data_.window.end_time());
    const double t0 = rng.uniform(t_begin, t_end - 86400.0 * 30);
    const double t1 = t0 + rng.uniform(86400.0, 86400.0 * 120);
    auto pick = [&](const auto& ranked, std::size_t top) {
      return ranked[rng.next_below(std::min(top, ranked.size()))];
    };
    std::string target = "/query?agg=" + std::string(aggs[rng.next_below(4)]) +
                         "&t0=" + std::to_string(static_cast<long long>(t0)) +
                         "&t1=" + std::to_string(static_cast<long long>(t1));
    switch (rng.next_below(4)) {
      case 0:
        target += "&prefix=" + net::Ipv4Addr(pick(data_.slash24s, 20000)).to_string() + "/24";
        break;
      case 1:
        target += "&asn=" + std::to_string(pick(data_.asns, 400));
        break;
      case 2:
        target += "&country=" + pick(data_.countries, 40).to_string();
        break;
      default:
        target += "&port=" + std::to_string(data_.ports.empty() ? 80 : pick(data_.ports, 50));
        break;
    }
    return get_request(target);
  }

 private:
  const Dataset& data_;
  std::uint64_t seed_;
  std::vector<std::string> dashboard_;
};

// ---------------------------------------------------------------------------
// The served system and its writer.

struct Live {
  Dataset data;
  std::vector<std::size_t> day_begin;  // first event index per day, + end
  std::unique_ptr<query::QueryEngine> engine;
  std::unique_ptr<query::SnapshotPublisher> publisher;
  std::unique_ptr<subscribe::Dispatcher> dispatcher;
  subscribe::SubscriptionId watch_id = 0;
  std::unique_ptr<serve::Server> server;  // last: stops before the rest go
  int next_day = kPrepublishDays;

  std::mutex snapshots_mutex;
  std::map<std::uint64_t, std::shared_ptr<const query::Snapshot>> snapshots;
  void keep_snapshot() {
    auto snap = engine->snapshot();
    const std::lock_guard<std::mutex> lock(snapshots_mutex);
    snapshots[snap->version()] = std::move(snap);
  }
};

std::unique_ptr<Live> make_live(std::uint64_t seed, int workers) {
  auto live = std::make_unique<Live>();
  live->data = make_dataset(seed);
  const Dataset& data = live->data;
  const int days = data.window.num_days();
  for (int d = 0; d <= days; ++d) {
    const auto from = static_cast<double>(data.window.day_start(d));
    live->day_begin.push_back(static_cast<std::size_t>(
        std::partition_point(data.events.begin(), data.events.end(),
                             [from](const core::AttackEvent& e) { return e.start < from; }) -
        data.events.begin()));
  }
  live->engine = std::make_unique<query::QueryEngine>();
  live->publisher = std::make_unique<query::SnapshotPublisher>(*live->engine, data.window,
                                                               data.context());
  // Days [0, kPrepublishDays) sealed; day kPrepublishDays open.
  for (std::size_t i = 0; i < live->day_begin[kPrepublishDays + 1]; ++i)
    live->publisher->ingest(data.events[i]);
  live->keep_snapshot();
  subscribe::DispatcherConfig config;
  config.pfx2as = &data.pfx2as();
  config.geo = &data.geo();
  config.window = data.window;
  live->dispatcher = std::make_unique<subscribe::Dispatcher>(config);
  live->watch_id = live->dispatcher->subscribe(
      subscribe::Predicate{}.match_kind(core::AlertKind::kNewAttack));
  serve::ServerConfig server_config;
  server_config.workers = static_cast<std::size_t>(workers);
  live->server = std::make_unique<serve::Server>(server_config, *live->engine,
                                                 live->dispatcher.get());
  return live;
}

struct WriterStats {
  std::vector<double> publish_s, ingest_s, tick_s;
  std::int64_t queue_depth_max = 0;
  int days_published = 0;
};

/// Publishes one day per period until stopped: seal day d (by ingesting
/// day d+1's events), lift day d's events into the dispatcher, stamp the
/// tick time, tick. Samples the server's queue depth while it waits.
class Writer {
 public:
  Writer(Live& live, std::vector<std::atomic<std::int64_t>>& tick_ns)
      : live_(live), tick_ns_(tick_ns), thread_([this] { loop(); }) {}
  ~Writer() { stop(); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  const WriterStats& stats() const { return stats_; }  // after stop()

 private:
  void loop() {
    const std::int64_t period = static_cast<std::int64_t>(kPublishPeriodS * 1e9);
    std::int64_t next = now_ns();
    const Dataset& data = live_.data;
    const int days = data.window.num_days();
    SpanSum publish("query.publish"), ingest("subscribe.ingest"), tick("subscribe.tick");
    while (!stop_.load()) {
      const int d = live_.next_day;
      if (d + 1 < days) {
        const std::int64_t t0 = now_ns();
        publish.time([&] {
          for (std::size_t i = live_.day_begin[d + 1]; i < live_.day_begin[d + 2]; ++i)
            live_.publisher->ingest(data.events[i]);
        });
        live_.keep_snapshot();
        const std::int64_t t1 = now_ns();
        ingest.time([&] {
          for (std::size_t i = live_.day_begin[d]; i < live_.day_begin[d + 1]; ++i)
            live_.dispatcher->ingest(data.events[i]);
        });
        const std::int64_t t2 = now_ns();
        tick_ns_[static_cast<std::size_t>(d)].store(t2);
        tick.time([&] { live_.dispatcher->tick(); });
        const std::int64_t t3 = now_ns();
        stats_.publish_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
        stats_.ingest_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
        stats_.tick_s.push_back(static_cast<double>(t3 - t2) * 1e-9);
        ++stats_.days_published;
        live_.next_day = d + 1;
      }
      next += period;
      while (!stop_.load() && now_ns() < next) {
        stats_.queue_depth_max =
            std::max(stats_.queue_depth_max, serve::Metrics::get().queue_depth.value());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }

  Live& live_;
  std::vector<std::atomic<std::int64_t>>& tick_ns_;
  WriterStats stats_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after the members it uses
};

/// Long-polls /watch on its own connection and records, per day, the lag
/// from the writer's tick to the first notification of that day.
class Watcher {
 public:
  Watcher(const Live& live, std::uint16_t port,
          const std::vector<std::atomic<std::int64_t>>& tick_ns)
      : live_(live), client_(port), tick_ns_(tick_ns), thread_([this] { loop(); }) {}
  ~Watcher() { stop(); }
  Watcher(const Watcher&) = delete;
  Watcher& operator=(const Watcher&) = delete;
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  // After stop():
  std::vector<double> lag_ms;
  // `lost` counts notifications the client never saw (sequence gaps); the
  // queue is a ring of the last max_pending notifications, so evictions of
  // already-delivered ones are not losses.
  std::uint64_t polls = 0, failed = 0, lost = 0, notifications = 0;

 private:
  static std::uint64_t field(const std::string& body, std::string_view key, std::size_t from = 0) {
    const std::size_t at = body.find(key, from);
    std::uint64_t value = 0;
    if (at != std::string::npos)
      std::from_chars(body.data() + at + key.size(), body.data() + body.size(), value);
    return value;
  }
  void loop() {
    std::uint64_t cursor = 0;
    std::set<std::uint64_t> seen;
    HttpClient::Response response;
    while (!stop_.load()) {
      const std::string request =
          get_request("/watch?id=" + std::to_string(live_.watch_id) + "&cursor=" +
                      std::to_string(cursor) + "&max=100000&wait_ms=100");
      ++polls;
      bool ok = false;
      try {
        ok = client_.round_trip(request, response, kRequestTimeoutMs);
      } catch (const std::exception&) {
        ok = false;
      }
      const std::int64_t now = now_ns();
      if (!ok || response.status != 200) {
        ++failed;
        continue;
      }
      const std::uint64_t first_seq = field(response.body, "\"seq\":");
      if (first_seq > cursor + 1) lost += first_seq - cursor - 1;
      cursor = field(response.body, "\"next_cursor\":");
      for (std::size_t at = response.body.find("\"day\":"); at != std::string::npos;
           at = response.body.find("\"day\":", at + 1)) {
        ++notifications;
        const std::uint64_t day = field(response.body, "\"day\":", at);
        if (day >= tick_ns_.size() || !seen.insert(day).second) continue;
        const std::int64_t tick = tick_ns_[day].load();
        if (tick > 0) lag_ms.push_back(static_cast<double>(now - tick) * 1e-6);
      }
    }
  }

  const Live& live_;
  HttpClient client_;
  const std::vector<std::atomic<std::int64_t>>& tick_ns_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after the members it uses
};

std::vector<double> latencies(const std::vector<Sample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.latency_ms());
  return out;
}

std::uint64_t non2xx(const std::vector<Sample>& samples) {
  std::uint64_t n = 0;
  for (const Sample& s : samples) n += (s.status < 200 || s.status >= 300) ? 1 : 0;
  return n;
}

/// Byte-equality of every response against execute_query on the snapshot
/// version it names: one execution per distinct (version, request text),
/// spread over `threads` threads once the server is idle.
void verify(Live& live, const RequestMix& mix,
            const std::vector<Sample>& samples, int threads, Result& result) {
  using Key = std::pair<std::uint64_t, std::string>;
  using Body = std::pair<std::uint64_t, std::uint32_t>;  // hash, length
  std::map<Key, Body> expected;
  for (const Sample& s : samples)
    if (s.status == 200) expected.emplace(Key{s.version, mix.at(s.request)}, Body{0, 0});
  std::vector<std::pair<const Key, Body>*> work;
  for (auto& entry : expected) work.push_back(&entry);
  std::atomic<std::size_t> next{0};
  auto run = [&] {
    for (std::size_t i = next++; i < work.size(); i = next++) {
      const auto [version, request] = work[i]->first;
      std::shared_ptr<const query::Snapshot> snap;
      {
        const std::lock_guard<std::mutex> lock(live.snapshots_mutex);
        const auto found = live.snapshots.find(version);
        if (found == live.snapshots.end()) continue;  // unknown version
        snap = found->second;
      }
      const serve::ParseResult parsed = serve::parse_request(request, serve::HttpLimits{});
      const serve::ApiCall call = serve::parse_query_request(parsed.request, live.data.window);
      const serve::ApiResponse response = serve::execute_query(*snap, call, query::ExecBudget{});
      work[i]->second = {fnv1a(response.body), static_cast<std::uint32_t>(response.body.size())};
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(run);
  for (std::thread& t : pool) t.join();
  std::uint64_t mismatched = 0;
  for (const Sample& s : samples)
    if (s.status == 200 && expected.at(Key{s.version, mix.at(s.request)}) != Body{s.hash, s.length})
      ++mismatched;
  result.check(mismatched == 0, "live: " + std::to_string(mismatched) +
                                    " /query bodies differ from execute_query");
}

}  // namespace

int run_live(const Options& options, Result& result) {
  const int workers = options.threads;
  const int connections = std::max(1, options.threads - 1);  // + 1 watcher = nproc
  std::unique_ptr<Live> live;
  const double setup_s = median_seconds(kSetupRepeats, [&] {
    live.reset();
    live = make_live(options.seed, workers);
  });
  const std::uint16_t port = live->server->port();
  const int days_left = live->data.window.num_days() - 1 - kPrepublishDays;

  result.input("events", static_cast<double>(live->data.events.size()));
  result.input("prepublished_days", kPrepublishDays);
  result.input("workers", workers);
  result.input("generator_connections", connections);
  result.input("watchers", 1);
  result.input("dashboard_share", kDashboardShare);
  std::string rates = fmt(kLowRate) + "," + fmt(kHighRate) + ";ladder";
  for (const double r : kLadder) rates += "," + fmt(r);
  result.input("offered_rates", rates);
  result.input("publish_period_s", kPublishPeriodS);
  result.line("inputs: " + std::to_string(live->data.events.size()) + " events, " +
              std::to_string(kPrepublishDays) + " days published before timing, " +
              std::to_string(workers) + " server workers, " + std::to_string(connections) +
              " generator connections + 1 /watch long-poll; mix " + fmt(kDashboardShare) +
              " dashboard; rates low " + fmt(kLowRate) + " high " + fmt(kHighRate) + " req/s");

  const RequestMix mix(live->data, options.seed);
  LoadGenerator gen(port, connections, [&mix](std::size_t i) { return mix.at(i); });
  std::size_t cursor = 0;  // index of the next request to send
  std::vector<Sample> all;
  serve::Metrics& sm = serve::Metrics::get();
  const std::uint64_t hits0 = sm.cache_hits.value(), miss0 = sm.cache_misses.value(),
                      rej0 = sm.admission_rejected.value();
  Tracer& tracer = Tracer::get();
  const double rss_start_mb = reset_peak_rss();

  // Bursts (closed loop, writer paused): a hit batch, then a miss batch.
  // One warm-up pair first. The server's CPU is the process's minus what
  // the generator threads used.
  struct Bursts {
    std::vector<double> hit_s, miss_s, hit_cpu, miss_cpu, server_cpu;
    double client_cpu = 0.0, total_cpu = 0.0;
  };
  auto burst_pair = [&](Bursts& b) {
    double server = 0.0;
    for (const Traffic traffic : {Traffic::kHit, Traffic::kMiss}) {
      const bool hit = traffic == Traffic::kHit;
      const std::size_t count = hit ? kHitBurst : kMissBurst;
      const double cpu0 = process_cpu_s();
      const LoadGenerator::Burst burst = gen.closed_loop(request_id(traffic, cursor), count, all);
      const double total = process_cpu_s() - cpu0;
      cursor += count;
      (hit ? b.hit_s : b.miss_s).push_back(burst.seconds);
      (hit ? b.hit_cpu : b.miss_cpu).push_back(total - burst.client_cpu_s);
      server += total - burst.client_cpu_s;
      b.client_cpu += burst.client_cpu_s;
      b.total_cpu += total;
    }
    b.server_cpu.push_back(server);
  };
  auto bursts = [&](double share) {
    const auto pairs = std::max<std::size_t>(
        5, static_cast<std::size_t>(std::lround(options.seconds * share / kPairSeconds)));
    Bursts b;
    while (b.server_cpu.size() < pairs) {
      tracer.set_run(static_cast<std::uint32_t>(b.server_cpu.size() + 1));
      burst_pair(b);
    }
    return b;
  };
  {
    Bursts warm_up;
    burst_pair(warm_up);
  }
  const Bursts untraced = bursts(options.trace ? 0.2 : 0.45);
  std::vector<double> burst_s;  // wall seconds per hit + miss pair
  for (std::size_t i = 0; i < untraced.hit_s.size(); ++i)
    burst_s.push_back(untraced.hit_s[i] + untraced.miss_s[i]);
  const double run_s = median(burst_s);
  std::vector<double> traced_burst_s;
  if (options.trace) {
    tracer.enable(true);
    const Bursts traced = bursts(0.25);
    for (std::size_t i = 0; i < traced.hit_s.size(); ++i)
      traced_burst_s.push_back(traced.hit_s[i] + traced.miss_s[i]);
  }

  // Open-loop phases with the writer and the /watch client running.
  std::vector<std::atomic<std::int64_t>> tick_ns(
      static_cast<std::size_t>(live->data.window.num_days()));
  std::vector<Sample> low, high;
  std::vector<std::vector<Sample>> ladder;
  WriterStats writer_stats;
  std::unique_ptr<Watcher> watcher;
  {
    watcher = std::make_unique<Watcher>(*live, port, tick_ns);
    Writer writer(*live, tick_ns);
    const double phase = options.seconds * 0.15;
    tracer.set_run(100);
    low = gen.open_loop(cursor, kLowRate, phase);
    cursor += low.size();
    tracer.set_run(101);
    high = gen.open_loop(cursor, kHighRate, phase);
    cursor += high.size();
    const double step = options.seconds * 0.25 / static_cast<double>(std::size(kLadder));
    for (const double rate : kLadder) {
      tracer.set_run(102);
      ladder.push_back(gen.open_loop(cursor, rate, step));
      cursor += ladder.back().size();
    }
    writer.stop();
    watcher->stop();
    writer_stats = writer.stats();
  }
  tracer.enable(false);

  // Read before the oracle runs: its memory is the benchmark's.
  const double peak_mb = peak_rss_mib();
  result.set_e2e("peak_rss_mb", peak_mb);
  result.line("peak_rss_mb: " + fmt(peak_mb) + " MiB (" + fmt(rss_start_mb) +
              " MiB resident when timing began)");

  // Correctness: every body against execute_query on its named version.
  for (const auto* phase : {&low, &high}) all.insert(all.end(), phase->begin(), phase->end());
  for (const auto& step : ladder) all.insert(all.end(), step.begin(), step.end());
  verify(*live, mix, all, options.threads, result);
  const std::uint64_t low_bad = non2xx(low), high_bad = non2xx(high);
  const std::uint64_t bad = non2xx(all) + watcher->failed + watcher->lost;
  result.attempted += all.size() + watcher->polls;
  result.failed += bad;

  const LatencySummary low_lat = summarize(latencies(low));
  const LatencySummary high_lat = summarize(latencies(high));
  const LatencySummary lag = summarize(watcher->lag_ms);
  double max_qps = 0.0;
  std::string ladder_text;
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const LatencySummary s = summarize(latencies(ladder[i]));
    const bool meets = s.tail <= kLatencyLimitMs && non2xx(ladder[i]) == 0 &&
                       final_backlog(ladder[i]) <= static_cast<std::uint64_t>(connections);
    if (meets) max_qps = std::max(max_qps, kLadder[i]);
    ladder_text += " " + fmt(kLadder[i]) + (meets ? ":ok" : ":over") + "(p" + fmt(s.tail_pct) +
                   "=" + fmt(s.tail) + "ms)";
  }
  std::vector<double> lateness;
  std::vector<Sample> open;
  for (const auto* phase : {&low, &high}) {
    open.insert(open.end(), phase->begin(), phase->end());
    for (const Sample& s : *phase) lateness.push_back(s.lateness_ms());
  }
  const LatencySummary late = summarize(lateness);

  result.set_e2e("setup_s", setup_s);
  result.set_e2e("run_cpu_s", median(untraced.server_cpu));
  result.line("setup_s: " + fmt(setup_s) + " s (median of " + std::to_string(kSetupRepeats) +
              ", includes server start)");
  const double client_share = untraced.client_cpu / untraced.total_cpu;
  result.input("generator_cpu_share", client_share);
  result.line("run_s: " + describe(summarize(burst_s), "s") + " per closed-loop pair of " +
              std::to_string(kHitBurst) + " hits + " + std::to_string(kMissBurst) +
              " misses (hits " + fmt(median(untraced.hit_s)) + " s, misses " +
              fmt(median(untraced.miss_s)) + " s)");
  result.line("run_cpu_s: " + describe(summarize(untraced.server_cpu), "s") +
              " server CPU per pair (hits " + fmt(median(untraced.hit_cpu)) + " s, misses " +
              fmt(median(untraced.miss_cpu)) + " s); the generator threads used " +
              fmt(client_share) + " of the process CPU and are not counted");
  result.line("http_p50_ms.low / http_p99_ms.low: " + describe(low_lat, "ms") + " at " +
              fmt(kLowRate) + " req/s");
  result.line("http_p50_ms.high / http_p99_ms.high: " + describe(high_lat, "ms") + " at " +
              fmt(kHighRate) + " req/s");
  result.line("max_qps: " + fmt(max_qps) + " req/s (limit: tail <= " + fmt(kLatencyLimitMs) +
              " ms, no backlog left) ladder:" + ladder_text);
  result.line("alert_lag_p50_ms / alert_lag_p99_ms: " + describe(lag, "ms") + " over " +
              std::to_string(writer_stats.days_published) + " published days");
  result.line("error_rate: " + fmt(static_cast<double>(result.failed) / static_cast<double>(result.attempted)) +
              " ratio (" + std::to_string(result.failed) + " of " + std::to_string(result.attempted) +
              "); low " + std::to_string(low_bad) + " of " + std::to_string(low.size()) +
              ", high " + std::to_string(high_bad) + " of " + std::to_string(high.size()) +
              ", notifications lost " + std::to_string(watcher->lost));
  result.line("loadgen: lateness " + describe(late, "ms") + ", backlog max " +
              std::to_string(max_backlog(open)));
  if (writer_stats.days_published + kPrepublishDays >= live->data.window.num_days() - 1 ||
      writer_stats.days_published >= days_left)
    result.line("note: the writer ran out of days before the phases ended");

  if (!options.trace) return 0;

  // Per-layer: in-process parse and execute over the live mix.
  std::vector<double> parse_us, exec_us;
  const auto snap = live->engine->snapshot();
  for (std::size_t i = 0; i < 2000; ++i) {
    const std::string request = mix.at(i);
    const std::int64_t t0 = now_ns();
    const serve::ParseResult parsed = serve::parse_request(request, serve::HttpLimits{});
    const std::int64_t t1 = now_ns();
    const serve::ApiCall call = serve::parse_query_request(parsed.request, live->data.window);
    const std::int64_t t2 = now_ns();
    const serve::ApiResponse response = serve::execute_query(*snap, call, query::ExecBudget{});
    exec_us.push_back(seconds_since(t2) * 1e6);
    parse_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
  }
  result.set_layer("serve.parse_us", median(parse_us));
  result.set_layer("serve.execute_us", median(exec_us));
  const double hits = static_cast<double>(sm.cache_hits.value() - hits0);
  const double misses = static_cast<double>(sm.cache_misses.value() - miss0);
  result.set_layer("serve.hit_cpu_us",
                   median(untraced.hit_cpu) * 1e6 / static_cast<double>(kHitBurst));
  result.set_layer("serve.miss_cpu_us",
                   median(untraced.miss_cpu) * 1e6 / static_cast<double>(kMissBurst));
  result.set_layer("serve.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0);
  result.set_layer("serve.rejected", static_cast<double>(sm.admission_rejected.value() - rej0));
  result.set_layer("serve.queue_depth_max", static_cast<double>(writer_stats.queue_depth_max));
  result.set_layer("serve.non2xx", static_cast<double>(non2xx(all)));
  result.set_layer("loadgen.lateness_p99_ms", late.tail);
  result.set_layer("loadgen.backlog_max", static_cast<double>(max_backlog(open)));
  result.set_layer("query.publish_s", median(writer_stats.publish_s));
  result.set_layer("subscribe.ingest_s", median(writer_stats.ingest_s));
  result.set_layer("subscribe.tick_s", median(writer_stats.tick_s));
  result.set_layer("subscribe.watchers", 1);
  result.set_layer("subscribe.notifications", static_cast<double>(watcher->notifications));
  result.set_layer("subscribe.dropped", static_cast<double>(watcher->lost));
  std::vector<double> coverage;
  for (std::uint32_t run = 1; run <= traced_burst_s.size(); ++run)
    coverage.push_back(tracer.coverage(run, "live.connection"));
  result.set_layer("trace.coverage", median(coverage));
  result.set_layer("trace.overhead_s", median(traced_burst_s) - run_s);
  result.line("traced run_s: " + fmt(median(traced_burst_s)) + " s (overhead " +
              fmt(median(traced_burst_s) - run_s) + " s)");
  return 0;
}

}  // namespace perfbench
