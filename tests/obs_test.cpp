// Observability substrate tests: striped counters, histogram bucket
// semantics, registry invariants, exporters, and the no-perturbation switch.
#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "serve/metrics.h"

namespace dosm::obs {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void TearDown() override { set_enabled(true); }
  MetricsRegistry registry_;
};

TEST_F(ObsTest, CounterFoldsStripesAcrossThreads) {
  Counter& counter = registry_.counter("test.hits", "hits");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& worker : pool) worker.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST_F(ObsTest, CounterRegistrationIsIdempotent) {
  Counter& a = registry_.counter("test.once", "first help wins");
  Counter& b = registry_.counter("test.once", "ignored");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.help(), "first help wins");
}

TEST_F(ObsTest, GaugeSetAndAdd) {
  Gauge& gauge = registry_.gauge("test.depth", "queue depth");
  gauge.set(42);
  EXPECT_EQ(gauge.value(), 42);
  gauge.add(-10);
  EXPECT_EQ(gauge.value(), 32);
}

TEST_F(ObsTest, HistogramUsesPrometheusLeSemantics) {
  const std::array<double, 3> bounds{1.0, 10.0, 100.0};
  Histogram& hist = registry_.histogram("test.latency", "latency", bounds);
  hist.observe(0.5);    // <= 1
  hist.observe(1.0);    // le is inclusive: lands in the 1.0 bucket
  hist.observe(5.0);    // <= 10
  hist.observe(100.0);  // <= 100
  hist.observe(1e6);    // +Inf overflow
  const auto buckets = hist.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.5 + 1.0 + 5.0 + 100.0 + 1e6);
}

TEST_F(ObsTest, HistogramRejectsBadBounds) {
  EXPECT_THROW(registry_.histogram("test.empty", "", std::span<const double>{}),
               std::invalid_argument);
  const std::array<double, 3> unsorted{1.0, 3.0, 2.0};
  EXPECT_THROW(registry_.histogram("test.unsorted", "", unsorted),
               std::invalid_argument);
  const std::array<double, 2> dup{1.0, 1.0};
  EXPECT_THROW(registry_.histogram("test.dup", "", dup),
               std::invalid_argument);
}

TEST_F(ObsTest, NameConflictsAcrossKindsThrow) {
  registry_.counter("test.name", "");
  EXPECT_THROW(registry_.gauge("test.name", ""), std::logic_error);
  EXPECT_THROW(registry_.histogram("test.name", "", latency_buckets()),
               std::logic_error);
}

TEST_F(ObsTest, MalformedNamesRejected) {
  EXPECT_THROW(registry_.counter("", ""), std::invalid_argument);
  EXPECT_THROW(registry_.counter("9starts_with_digit", ""),
               std::invalid_argument);
  EXPECT_THROW(registry_.counter("has space", ""), std::invalid_argument);
  EXPECT_THROW(registry_.counter("Upper.case", ""), std::invalid_argument);
}

TEST_F(ObsTest, SnapshotIsNameSorted) {
  registry_.counter("test.zebra", "").inc();
  registry_.counter("test.alpha", "").inc();
  registry_.counter("test.mid", "").inc();
  const auto snap = registry_.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "test.alpha");
  EXPECT_EQ(snap.counters[1].name, "test.mid");
  EXPECT_EQ(snap.counters[2].name, "test.zebra");
}

TEST_F(ObsTest, ResetZeroesValuesButKeepsRegistrations) {
  Counter& counter = registry_.counter("test.n", "");
  counter.add(7);
  Gauge& gauge = registry_.gauge("test.g", "");
  gauge.set(5);
  registry_.reset();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(&registry_.counter("test.n", ""), &counter);
}

TEST_F(ObsTest, DisabledInstrumentationRecordsNothing) {
  Counter& counter = registry_.counter("test.off", "");
  Histogram& hist = registry_.histogram("test.off_hist", "", latency_buckets());
  set_enabled(false);
  counter.add(100);
  hist.observe(0.5);
  {
    const ScopedTimer timer(hist);
  }
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(hist.count(), 0u);
  set_enabled(true);
  counter.add(3);
  EXPECT_EQ(counter.value(), 3u);
}

TEST_F(ObsTest, ScopedTimerObservesOnceIntoHistogram) {
  Histogram& hist = registry_.histogram("test.span", "", latency_buckets());
  {
    ScopedTimer timer(hist);
    timer.stop();
    timer.stop();  // second stop is a no-op
  }  // destructor after stop() must not double-observe
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_GE(hist.sum(), 0.0);
}

TEST_F(ObsTest, JsonExportIsDeterministicAndWellFormed) {
  registry_.counter("test.b", "").add(2);
  registry_.counter("test.a", "").add(1);
  registry_.gauge("test.g", "").set(-4);
  const std::array<double, 2> bounds{0.5, 2.0};
  registry_.histogram("test.h", "", bounds).observe(1.0);
  const auto snap = registry_.snapshot();
  const std::string json = to_json(snap);
  EXPECT_EQ(json, to_json(registry_.snapshot()));  // stable across renders
  EXPECT_NE(json.find("\"test.a\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"test.b\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"test.g\": -4"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_LT(json.find("\"test.a\""), json.find("\"test.b\""));
}

TEST_F(ObsTest, MetricsFileOnFullDiskThrows) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  // The file fits the stream buffer, so the full disk surfaces only when
  // it is flushed: that must throw, not return normally.
  registry_.counter("test.a", "").add(1);
  EXPECT_THROW(write_metrics_file("/dev/full", registry_), std::runtime_error);
}

TEST_F(ObsTest, PrometheusExportUsesCumulativeBuckets) {
  const std::array<double, 2> bounds{1.0, 10.0};
  Histogram& hist = registry_.histogram("test.lat", "latency", bounds);
  hist.observe(0.5);
  hist.observe(5.0);
  hist.observe(50.0);
  const std::string prom = to_prometheus(registry_.snapshot());
  EXPECT_NE(prom.find("# TYPE dosm_test_lat histogram"), std::string::npos);
  EXPECT_NE(prom.find("dosm_test_lat_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("dosm_test_lat_bucket{le=\"10\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("dosm_test_lat_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("dosm_test_lat_count 3"), std::string::npos);
}

TEST_F(ObsTest, PrometheusCounterNamesArePrefixedAndSanitized) {
  registry_.counter("telescope.packets_seen", "help text").add(9);
  const std::string prom = to_prometheus(registry_.snapshot());
  EXPECT_NE(prom.find("dosm_telescope_packets_seen 9"), std::string::npos);
  EXPECT_NE(prom.find("# HELP dosm_telescope_packets_seen help text"),
            std::string::npos);
}

TEST_F(ObsTest, GlobalRegistryIsASingleton) {
  Counter& a = MetricsRegistry::global().counter("test.global_singleton", "");
  Counter& b = MetricsRegistry::global().counter("test.global_singleton", "");
  EXPECT_EQ(&a, &b);
}

// The query server registers its serve.* family in the global registry;
// the Prometheus exporter must expose every series a dashboard scrapes
// (request counters, admission drops, cache accounting, the latency
// histogram). Touching serve::Metrics::get() is what registers them.
TEST_F(ObsTest, ServeMetricsAppearInPrometheusExport) {
  serve::Metrics& metrics = serve::Metrics::get();
  metrics.requests.inc();
  metrics.request_seconds.observe(0.002);
  const std::string prom =
      to_prometheus(MetricsRegistry::global().snapshot());
  for (const std::string_view name :
       {"dosm_serve_requests", "dosm_serve_admission_rejected",
        "dosm_serve_admission_enqueued", "dosm_serve_queue_depth",
        "dosm_serve_responses_ok", "dosm_serve_responses_client_error",
        "dosm_serve_responses_server_error", "dosm_serve_bad_requests",
        "dosm_serve_request_timeouts",
        "dosm_serve_budget_rows_rejected", "dosm_serve_budget_time_rejected",
        "dosm_serve_cache_hits", "dosm_serve_cache_misses",
        "dosm_serve_cache_evictions", "dosm_serve_cache_stale_dropped",
        "dosm_serve_cache_bytes", "dosm_serve_cache_entries",
        "dosm_serve_connections_accepted", "dosm_serve_connections_closed"}) {
    EXPECT_NE(prom.find(name), std::string::npos) << name;
  }
  EXPECT_NE(prom.find("# TYPE dosm_serve_request_seconds histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("dosm_serve_request_seconds_bucket{le="),
            std::string::npos);
}

}  // namespace
}  // namespace dosm::obs
