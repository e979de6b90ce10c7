// Workload `history`: the paper's two-year analysis, built and then queried.
//
// Set-up: sim::build_world over the 731-day window, plus a watcher set
// (see make_watchers for the mix).
//
// Timed pass:
//   1. events in start order through core::StreamingFusion (the
//      subscribe::Dispatcher as its AlertSink, one tick() per closed day),
//      query::SnapshotPublisher and Dispatcher::ingest; a consumer drains
//      the broad watchers after every tick;
//   2. storage::write_archive -> storage::open_tiered, cold cache budget
//      below the decoded size;
//   3. a fixed cold-query suite (six aggregations x five filters).
// Oracles: every cold answer equals Snapshot::build in memory over the same
// events; a verification replay checks delivered notifications against
// subscribe::ScanOracle on a sample of alerts.
#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "core/streaming.h"
#include "dataset.h"
#include "query/engine.h"
#include "query/snapshot.h"
#include "report.h"
#include "storage/archive.h"
#include "storage/metrics.h"
#include "storage/tiered.h"
#include "subscribe/dispatcher.h"
#include "subscribe/index.h"
#include "subscribe/metrics.h"
#include "subscribe/oracle.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace dosm;

// Watcher mix (a recorded traffic dimension). Each predicate is drawn from
// the attacked targets, one watcher per distinct value so no watcher's
// queue outgrows the bound. Counts are fixed (below what every seed's
// world offers) so the set has the same size and mix under every seed.
// The kScanList watchers are /16 prefixes: broader than /24, so the index
// keeps them on the scan list every alert walks.
constexpr std::size_t kTargetWatchers = 25'000;
constexpr std::size_t kSlash24Watchers = 12'000;
constexpr std::size_t kAsnWatchers = 400;
constexpr std::size_t kCountryWatchers = 40;
constexpr std::size_t kScanList = 100;
constexpr std::size_t kMaxPending = 1u << 16;
constexpr int kSetupRepeats = 3;
constexpr int kAlertSampleEvery = 64;

enum class WatchKind { kTarget, kSlash24, kAsn, kCountry, kScan };

struct Watchers {
  std::vector<subscribe::Predicate> predicates;  // id = index + 1
  std::vector<WatchKind> kinds;
  std::size_t scan_list = 0;  // as the SubscriptionIndex places them
  std::map<WatchKind, std::size_t> mix;
};

Watchers make_watchers(const Dataset& data, std::uint64_t seed) {
  Rng rng = Rng(seed).fork("watchers");
  auto take = [](std::size_t want, std::size_t have) { return std::min(want, have); };
  const std::size_t n_32 = take(kTargetWatchers, data.targets.size());
  const std::size_t n_24 = take(kSlash24Watchers, data.slash24s.size());
  const std::size_t n_asn = take(kAsnWatchers, data.asns.size());
  const std::size_t n_country = take(kCountryWatchers, data.countries.size());
  const std::size_t n_scan = take(kScanList, data.slash16s.size());

  // Uniform sample without replacement of `count` indices below `size`.
  auto sample = [&](std::size_t count, std::size_t size) {
    std::vector<std::size_t> idx(size);
    for (std::size_t i = 0; i < size; ++i) idx[i] = i;
    for (std::size_t i = 0; i < count; ++i)
      std::swap(idx[i], idx[i + rng.next_below(size - i)]);
    idx.resize(count);
    return idx;
  };
  std::vector<std::pair<subscribe::Predicate, WatchKind>> all;
  for (const std::size_t i : sample(n_32, data.targets.size()))
    all.push_back({subscribe::Predicate{}.match_prefix(
                       net::Prefix(net::Ipv4Addr(data.targets[i]), 32)),
                   WatchKind::kTarget});
  for (const std::size_t i : sample(n_24, data.slash24s.size()))
    all.push_back({subscribe::Predicate{}.match_prefix(
                       net::Prefix(net::Ipv4Addr(data.slash24s[i]), 24)),
                   WatchKind::kSlash24});
  for (const std::size_t i : sample(n_asn, data.asns.size()))
    all.push_back({subscribe::Predicate{}.match_asn(data.asns[i]), WatchKind::kAsn});
  for (const std::size_t i : sample(n_country, data.countries.size()))
    all.push_back({subscribe::Predicate{}.match_country(data.countries[i]),
                   WatchKind::kCountry});
  for (const std::size_t i : sample(n_scan, data.slash16s.size()))
    all.push_back({subscribe::Predicate{}.match_prefix(
                       net::Prefix(net::Ipv4Addr(data.slash16s[i]), 16)),
                   WatchKind::kScan});
  // Interleave kinds so subscription ids do not group by kind.
  for (std::size_t i = all.size(); i > 1; --i)
    std::swap(all[i - 1], all[rng.next_below(i)]);

  Watchers w;
  subscribe::SubscriptionIndex index;
  for (const auto& [predicate, kind] : all) {
    w.predicates.push_back(predicate);
    w.kinds.push_back(kind);
    ++w.mix[kind];
    index.insert(w.predicates.size(), predicate);
  }
  w.scan_list = index.scan_list_size();
  return w;
}

// ---------------------------------------------------------------------------
// Cold-query suite: six aggregations under five filters (time, prefix, ASN,
// country, port), filter values picked by rank (most attacked /16, third
// ASN, second country, top port) so every seed's suite has similar
// selectivity.

struct SuiteQuery {
  std::string agg;
  std::string label;
  query::Query q;
};

const char* const kAggs[] = {"count", "unique_targets", "daily_attacks",
                             "top_targets", "top_asns", "top_countries"};

std::vector<SuiteQuery> make_suite(const Dataset& data) {
  // Each attribute filter is paired with its own 60-day range, as a
  // dashboard would ask; the zone maps then skip most cold segments, and
  // the decoded working set still exceeds the cache budget.
  auto days = [&](int first, int count) {
    return query::Query{}.between(static_cast<double>(data.window.day_start(first)),
                                  static_cast<double>(data.window.day_start(first + count)));
  };
  auto rank = [](const auto& ranked, std::size_t r) { return ranked.at(std::min(r, ranked.size() - 1)); };
  std::vector<std::pair<std::string, query::Query>> filters;
  filters.push_back({"time", days(300, 90)});
  filters.push_back({"prefix", days(120, 60).in_prefix(
                                   net::Prefix(net::Ipv4Addr(data.slash16s.at(0)), 16))});
  filters.push_back({"asn", days(420, 60).in_asn(rank(data.asns, 2))});
  filters.push_back({"country", days(540, 60).in_country(rank(data.countries, 1))});
  filters.push_back({"port", days(660, 60).on_port(data.ports.empty() ? 80 : data.ports[0])});
  std::vector<SuiteQuery> suite;
  for (const char* agg : kAggs)
    for (const auto& [label, q] : filters) suite.push_back({agg, label, q});
  return suite;
}

std::string answer(const query::Snapshot& snap, const SuiteQuery& sq) {
  std::ostringstream out;
  const query::Query& q = sq.q;
  if (sq.agg == "count") {
    out << snap.count(q);
  } else if (sq.agg == "unique_targets") {
    out << snap.unique_targets(q);
  } else if (sq.agg == "daily_attacks") {
    const DailySeries series = snap.daily_attacks(q);
    for (const double v : series.values()) out << v << ',';
  } else if (sq.agg == "top_targets") {
    for (const auto& t : snap.top_targets(q, 10)) out << t.target.value() << ':' << t.events << ',';
  } else if (sq.agg == "top_asns") {
    for (const auto& a : snap.top_asns(q, 10)) out << a.asn << ':' << a.targets << ':' << a.events << ',';
  } else {
    for (const auto& c : snap.top_countries(q, 10))
      out << c.country.to_string() << ':' << c.targets << ':' << fmt(c.share) << ',';
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Step 1: the replay.

/// Forwards fusion's spike alerts to the dispatcher inside a span (so the
/// fusion span's self time excludes dispatch) and optionally records them.
class SpikeSink final : public core::AlertSink {
 public:
  explicit SpikeSink(subscribe::Dispatcher& dispatcher) : dispatcher_(dispatcher) {}
  void on_alert(const core::Alert& alert) override {
    if (record != nullptr) record->push_back({alert, ticks});
    span_.time([&] { dispatcher_.on_alert(alert); });
  }
  struct Recorded {
    core::Alert alert;
    std::size_t tick;
  };
  std::vector<Recorded>* record = nullptr;
  std::size_t ticks = 0;

 private:
  subscribe::Dispatcher& dispatcher_;
  SpanSum span_{"subscribe.on_alert"};
};

struct ReplayOutput {
  std::shared_ptr<const query::Snapshot> snapshot;
  std::uint64_t days = 0;
  std::uint64_t alerts = 0;
  std::uint64_t ingested = 0;
  std::uint64_t fetched = 0;
  std::uint64_t dropped = 0;
  std::vector<double> seal_us;
};

ReplayOutput replay(const Dataset& data, subscribe::Dispatcher& dispatcher,
                    const std::vector<subscribe::SubscriptionId>& drained,
                    std::vector<SpikeSink::Recorded>* record) {
  ReplayOutput out;
  query::QueryEngine engine;
  query::SnapshotPublisher publisher(engine, data.window, data.context());
  SpikeSink sink(dispatcher);
  sink.record = record;
  core::StreamingFusion fusion(data.window, {},
                               [&out](const core::DaySummary&) { ++out.days; }, &sink);
  std::vector<std::uint64_t> cursors(drained.size(), 0);
  {
    SpanSum fuse("core.streaming");
    SpanSum publish("query.publish");
    SpanSum ingest("subscribe.ingest");
    SpanSum tick("subscribe.tick");
    SpanSum fetch("subscribe.fetch");
    auto close_day = [&] {
      tick.time([&] { dispatcher.tick(); });
      ++sink.ticks;
      for (std::size_t i = 0; i < drained.size(); ++i) {
        const auto got = fetch.time([&] { return dispatcher.fetch(drained[i], cursors[i], 0); });
        if (!got) continue;
        cursors[i] = got->next_cursor;
        out.fetched += got->notifications.size();
        out.dropped = std::max(out.dropped, got->dropped);
      }
    };
    int day = -1;
    for (const core::AttackEvent& event : data.events) {
      fuse.time([&] { fusion.ingest(event); });
      const int d = data.window.day_of(static_cast<UnixSeconds>(event.start));
      if (day >= 0)
        for (int k = day; k < d; ++k) close_day();
      day = std::max(day, d);
      const std::uint64_t sealed = publisher.snapshots_published();
      publish.time([&] { publisher.ingest(event); });
      if (Tracer::get().on() && publisher.snapshots_published() != sealed)
        out.seal_us.push_back(static_cast<double>(publish.last_ns()) * 1e-3);
      ingest.time([&] { dispatcher.ingest(event); });
    }
    fuse.time([&] { fusion.finish(); });
    publish.time([&] { publisher.finish(); });
    close_day();
  }
  out.snapshot = engine.snapshot();
  out.alerts = fusion.alerts_fired();
  out.ingested = fusion.events_ingested();
  return out;
}

std::unique_ptr<subscribe::Dispatcher> make_dispatcher(const Dataset& data,
                                                       const Watchers& watchers) {
  subscribe::DispatcherConfig config;
  config.pfx2as = &data.pfx2as();
  config.geo = &data.geo();
  config.window = data.window;
  config.max_pending = kMaxPending;
  auto dispatcher = std::make_unique<subscribe::Dispatcher>(config);
  for (const auto& predicate : watchers.predicates) dispatcher->subscribe(predicate);
  return dispatcher;
}

// ---------------------------------------------------------------------------
// Notification oracle: replay once without draining, fetch every queue, and
// compare against subscribe::ScanOracle on every kAlertSampleEvery-th alert.

void check_notifications(const Dataset& data, const Watchers& watchers, Result& result) {
  auto dispatcher = make_dispatcher(data, watchers);
  std::vector<SpikeSink::Recorded> spikes;
  replay(data, *dispatcher, {}, &spikes);

  // (day, target) -> watchers notified, and per-watcher coalesced counts.
  using Key = std::pair<int, std::uint32_t>;
  std::map<Key, std::vector<std::pair<subscribe::SubscriptionId, std::uint32_t>>> delivered;
  std::uint64_t spike_notifications = 0, queue_drops = 0;
  for (subscribe::SubscriptionId id = 1; id <= watchers.predicates.size(); ++id) {
    const auto got = dispatcher->fetch(id, 0, 0);
    if (!got) continue;
    queue_drops += got->dropped;
    for (const auto& n : got->notifications) {
      if (!n.alert.has_event) {
        ++spike_notifications;
        continue;
      }
      delivered[{n.alert.day, n.alert.event.target.value()}].push_back({id, n.coalesced});
    }
  }
  result.check(queue_drops == 0, "history: watcher queues dropped notifications");
  result.check(spike_notifications == 0, "history: victimless spike reached a victim watcher");

  std::map<Key, std::uint32_t> per_bucket;  // event alerts per (day, target)
  for (const auto& event : data.events)
    ++per_bucket[{data.window.day_of(static_cast<UnixSeconds>(event.start)),
                  event.target.value()}];

  subscribe::ScanOracle oracle;
  for (std::size_t i = 0; i < watchers.predicates.size(); ++i)
    oracle.insert(i + 1, watchers.predicates[i]);
  std::vector<subscribe::SubscriptionId> expected;
  for (std::size_t i = 0; i < data.events.size(); i += kAlertSampleEvery) {
    const core::AttackEvent& event = data.events[i];
    const int day = data.window.day_of(static_cast<UnixSeconds>(event.start));
    const core::Alert alert = core::event_alert(event, day, data.pfx2as().origin(event.target),
                                                data.geo().locate(event.target));
    expected.clear();
    oracle.match(alert, expected);
    const Key key{day, event.target.value()};
    std::vector<std::pair<subscribe::SubscriptionId, std::uint32_t>> got;
    if (const auto it = delivered.find(key); it != delivered.end()) got = it->second;
    std::sort(got.begin(), got.end());
    bool ok = got.size() == expected.size();
    for (std::size_t j = 0; ok && j < got.size(); ++j)
      ok = got[j].first == expected[j] && got[j].second + 1 == per_bucket[key];
    result.check(ok, "history: notifications for event " + std::to_string(i) +
                         " differ from the scan oracle");
  }
  for (const auto& spike : spikes) {
    expected.clear();
    oracle.match(spike.alert, expected);
    result.check(expected.empty(), "history: scan oracle matched a spike alert");
  }
}

struct PassResult {
  double seconds = 0.0;
  double cpu_s = 0.0;
  std::vector<double> query_ms;
  std::string answers;
  ReplayOutput replay;
  std::uint64_t archive_bytes = 0;
  std::uint64_t notifications = 0;
  std::uint64_t sub_dropped = 0;
  std::uint64_t segment_loads = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t segment_visits = 0;  // cold segments x suite queries
  std::uint64_t raw_bytes = 0;
  std::uint64_t written_bytes = 0;
};

PassResult run_pass(const Dataset& data, const Watchers& watchers,
                    const std::vector<SuiteQuery>& suite, const std::string& archive_path) {
  // Untimed preparation: a fresh dispatcher holding the watcher set.
  auto dispatcher = make_dispatcher(data, watchers);
  std::vector<subscribe::SubscriptionId> drained;
  for (std::size_t i = 0; i < watchers.kinds.size(); ++i)
    if (watchers.kinds[i] == WatchKind::kCountry || watchers.kinds[i] == WatchKind::kScan)
      drained.push_back(i + 1);
  storage::Metrics& sm = storage::Metrics::get();
  subscribe::Metrics& subm = subscribe::Metrics::get();
  const std::uint64_t enq0 = subm.enqueued.value(), drop0 = subm.dropped.value();

  PassResult pr;
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  {
    Span pass("history.pass");
    pr.replay = replay(data, *dispatcher, drained, nullptr);
    const std::uint64_t raw0 = sm.raw_bytes_archived.value(), wr0 = sm.bytes_written.value();
    {
      Span span("storage.write");
      pr.archive_bytes = storage::write_archive(archive_path, *pr.replay.snapshot);
    }
    pr.raw_bytes = sm.raw_bytes_archived.value() - raw0;
    pr.written_bytes = sm.bytes_written.value() - wr0;
    query::BuildContext ctx = data.context();
    ctx.hot_days = 0;
    ctx.cold_cache_bytes = pr.replay.snapshot->size() * storage::kDecodedBytesPerRow / 4;
    std::shared_ptr<const query::Snapshot> cold;
    {
      Span span("storage.open");
      cold = storage::open_tiered(archive_path, ctx, pr.replay.snapshot->version());
    }
    const std::uint64_t loads0 = sm.segment_loads.value(), hits0 = sm.cache_hits.value(),
                        miss0 = sm.cache_misses.value();
    for (const SuiteQuery& sq : suite) {
      const std::int64_t q0 = now_ns();
      {
        Span span(sq.agg == "count"            ? "query.cold.count"
                  : sq.agg == "unique_targets" ? "query.cold.unique_targets"
                  : sq.agg == "daily_attacks"  ? "query.cold.daily_attacks"
                  : sq.agg == "top_targets"    ? "query.cold.top_targets"
                  : sq.agg == "top_asns"       ? "query.cold.top_asns"
                                               : "query.cold.top_countries");
        pr.answers += answer(*cold, sq);
      }
      pr.query_ms.push_back(seconds_since(q0) * 1e3);
      pr.answers += '\n';
    }
    pr.segment_loads = sm.segment_loads.value() - loads0;
    pr.cache_hits = sm.cache_hits.value() - hits0;
    pr.cache_misses = sm.cache_misses.value() - miss0;
    pr.segment_visits = cold->num_segments() * suite.size();
  }
  pr.seconds = seconds_since(t0);
  pr.cpu_s = process_cpu_s() - cpu0;
  pr.notifications = subm.enqueued.value() - enq0;
  pr.sub_dropped = subm.dropped.value() - drop0 + pr.replay.dropped;
  return pr;
}

std::string mix_text(const Watchers& w) {
  auto get = [&](WatchKind k) {
    const auto it = w.mix.find(k);
    return std::to_string(it == w.mix.end() ? 0 : it->second);
  };
  return "/32=" + get(WatchKind::kTarget) + " /24=" + get(WatchKind::kSlash24) +
         " asn=" + get(WatchKind::kAsn) + " country=" + get(WatchKind::kCountry) +
         " /16=" + get(WatchKind::kScan);
}

}  // namespace

int run_history(const Options& options, Result& result) {
  Dataset data;
  Watchers watchers;
  const double setup_s = median_seconds(kSetupRepeats, [&] {
    data = Dataset{};
    data = make_dataset(options.seed);
    watchers = make_watchers(data, options.seed);
  });
  const std::vector<SuiteQuery> suite = make_suite(data);
  const std::string archive_path =
      options.out_dir + "/history-seed" + std::to_string(options.seed) + ".dosarch";

  result.input("events", static_cast<double>(data.events.size()));
  result.input("days", static_cast<double>(data.window.num_days()));
  result.input("watchers", static_cast<double>(watchers.predicates.size()));
  result.input("scan_list", static_cast<double>(watchers.scan_list));
  result.input("watcher_mix", mix_text(watchers));
  result.input("cold_queries", static_cast<double>(suite.size()));
  result.line("inputs: " + std::to_string(data.events.size()) + " events over " +
              std::to_string(data.window.num_days()) + " days; " +
              std::to_string(watchers.predicates.size()) + " watchers (" + mix_text(watchers) +
              "), scan list " + std::to_string(watchers.scan_list) + "; " +
              std::to_string(suite.size()) + " cold queries");

  std::uint64_t dropped = 0;
  std::vector<std::string> answers;  // per pass; checked against the oracle
  auto check_pass = [&](const PassResult& pr) {
    answers.push_back(pr.answers);
    dropped += pr.sub_dropped;
  };
  std::vector<double> untraced, untraced_cpu, query_ms;
  const double rss_start_mb = reset_peak_rss();
  const double untraced_budget = options.trace ? options.seconds / 2 : options.seconds;
  const std::int64_t start = now_ns();
  while (untraced.size() < 3 || seconds_since(start) < untraced_budget) {
    const PassResult pr = run_pass(data, watchers, suite, archive_path);
    check_pass(pr);
    untraced.push_back(pr.seconds);
    untraced_cpu.push_back(pr.cpu_s);
    query_ms.insert(query_ms.end(), pr.query_ms.begin(), pr.query_ms.end());
  }
  const double run_s = median(untraced);
  const LatencySummary queries = summarize(query_ms);
  result.set_e2e("setup_s", setup_s);
  result.set_e2e("run_cpu_s", median(untraced_cpu));
  // Read before the oracles run: their memory is the benchmark's.
  const double peak_mb = peak_rss_mib();
  result.set_e2e("peak_rss_mb", peak_mb);
  result.line("peak_rss_mb: " + fmt(peak_mb) + " MiB (" + fmt(rss_start_mb) +
              " MiB resident when timing began)");
  result.line("setup_s: " + fmt(setup_s) + " s (median of " + std::to_string(kSetupRepeats) + ")");
  result.line("run_s: " + describe(summarize(untraced), "s"));
  result.line("run_cpu_s: " + describe(summarize(untraced_cpu), "s") + " process CPU per pass");
  result.line("query_p50_ms / query_p99_ms: " + describe(queries, "ms"));

  // The oracles: in-memory answers for every pass (traced ones included)
  // and notifications against the scan oracle.
  auto finish = [&] {
    std::filesystem::remove(archive_path);
    std::string expected;
    {
      const auto memory = query::Snapshot::build(data.window, data.events, data.context());
      for (const SuiteQuery& sq : suite) expected += answer(*memory, sq) + '\n';
    }
    for (const std::string& a : answers)
      result.check(a == expected, "history: cold-suite answers differ from Snapshot::build");
    check_notifications(data, watchers, result);
    result.failed += dropped;
    result.line("error_rate: " +
                fmt(static_cast<double>(result.failed) / static_cast<double>(result.attempted)) +
                " ratio (" + std::to_string(result.failed) + " of " +
                std::to_string(result.attempted) + ")");
    return 0;
  };
  if (!options.trace) return finish();

  Tracer& tracer = Tracer::get();
  tracer.enable(true);
  std::vector<PassResult> traced;
  const std::int64_t traced_start = now_ns();
  while (traced.size() < 3 || seconds_since(traced_start) < options.seconds / 2) {
    tracer.set_run(static_cast<std::uint32_t>(traced.size() + 1));
    PassResult pr = run_pass(data, watchers, suite, archive_path);
    check_pass(pr);
    traced.push_back(std::move(pr));
  }
  tracer.enable(false);

  auto per_run = [&](auto&& fn) {
    std::vector<double> values;
    for (std::uint32_t run = 1; run <= traced.size(); ++run) values.push_back(fn(run, traced[run - 1]));
    return median(values);
  };
  auto busy = [&](const char* name) {
    return per_run([&](std::uint32_t r, const PassResult&) { return tracer.busy_s(r, name); });
  };
  const PassResult& last = traced.back();
  const auto events = static_cast<double>(data.events.size());

  result.set_layer("core.fused_events", static_cast<double>(last.replay.ingested));
  result.set_layer("core.streaming_s", per_run([&](std::uint32_t r, const PassResult&) {
                     return tracer.self_s(r, "core.streaming");
                   }));
  result.set_layer("core.days", static_cast<double>(last.replay.days));
  result.set_layer("core.alerts", static_cast<double>(last.replay.alerts));

  std::vector<double> seals;
  for (const auto& pr : traced) seals.insert(seals.end(), pr.replay.seal_us.begin(), pr.replay.seal_us.end());
  const LatencySummary seal = summarize(seals);
  result.set_layer("query.publish_s", busy("query.publish"));
  result.set_layer("query.seal_p50_us", seal.p50);
  result.set_layer("query.seal_p99_us", seal.tail);
  // In-process executor latency per aggregation on the resident snapshot.
  for (const char* agg : kAggs) {
    std::vector<double> us;
    for (int rep = 0; rep < 20; ++rep)
      for (const SuiteQuery& sq : suite) {
        if (sq.agg != agg) continue;
        const std::int64_t q0 = now_ns();
        const std::string a = answer(*last.replay.snapshot, sq);
        us.push_back(seconds_since(q0) * 1e6);
      }
    result.set_layer(std::string("query.exec_p50_us.") + agg, median(us));
  }

  result.set_layer("storage.write_s", busy("storage.write"));
  result.set_layer("storage.bytes_per_event", static_cast<double>(last.archive_bytes) / events);
  result.set_layer("storage.compression",
                   last.written_bytes ? static_cast<double>(last.raw_bytes) /
                                            static_cast<double>(last.written_bytes)
                                      : 0.0);
  result.set_layer("storage.open_s", busy("storage.open"));
  result.set_layer("storage.segment_loads", static_cast<double>(last.segment_loads));
  const double fetches = static_cast<double>(last.cache_hits + last.cache_misses);
  result.set_layer("storage.cache_hit_ratio", fetches > 0 ? static_cast<double>(last.cache_hits) / fetches : 0.0);
  // Share of (cold segment, query) visits the TOC zone maps skipped
  // without fetching the segment.
  const double visits = static_cast<double>(last.segment_visits);
  result.set_layer("storage.block_skip_ratio", visits > 0 ? 1.0 - fetches / visits : 0.0);

  result.set_layer("subscribe.ingest_s", busy("subscribe.ingest"));
  result.set_layer("subscribe.tick_s", busy("subscribe.tick"));
  result.set_layer("subscribe.fetch_us", per_run([&](std::uint32_t r, const PassResult&) {
                     const auto calls = tracer.calls(r, "subscribe.fetch");
                     return calls ? tracer.busy_s(r, "subscribe.fetch") * 1e6 / static_cast<double>(calls) : 0.0;
                   }));
  result.set_layer("subscribe.watchers", static_cast<double>(watchers.predicates.size()));
  result.set_layer("subscribe.scan_list", static_cast<double>(watchers.scan_list));
  result.set_layer("subscribe.notifications", static_cast<double>(last.notifications));
  result.set_layer("subscribe.dropped", static_cast<double>(dropped));

  result.set_layer("trace.coverage", per_run([&](std::uint32_t r, const PassResult&) {
                     return tracer.coverage(r, "history.pass");
                   }));
  std::vector<double> traced_s;
  for (const auto& pr : traced) traced_s.push_back(pr.seconds);
  result.set_layer("trace.overhead_s", median(traced_s) - run_s);
  result.line("traced run_s: " + fmt(median(traced_s)) + " s (overhead " +
              fmt(median(traced_s) - run_s) + " s over " + std::to_string(traced.size()) +
              " traced passes)");
  result.line("replay split (s): fusion " + fmt(busy("core.streaming")) + ", publish " +
              fmt(busy("query.publish")) + ", dispatch ingest " + fmt(busy("subscribe.ingest")) +
              " (scan list " + std::to_string(watchers.scan_list) + " per alert), tick " +
              fmt(busy("subscribe.tick")) + " (" + std::to_string(last.replay.days) +
              " ticks over " + std::to_string(watchers.predicates.size()) + " watchers), fetch " +
              fmt(busy("subscribe.fetch")));
  return finish();
}

}  // namespace perfbench
