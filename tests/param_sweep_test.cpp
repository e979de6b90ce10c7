// Cross-module parameterized property sweeps: monotonicity and invariance
// properties that must hold for any sane parameter choice, not just the
// paper defaults.
#include <gtest/gtest.h>

#include <algorithm>

#include "amppot/consolidator.h"
#include "amppot/honeypot.h"
#include "common/rng.h"
#include "core/event_store.h"
#include "query/snapshot.h"

namespace dosm {
namespace {

using net::Ipv4Addr;

// ---------------------------------------------------------------------------
// Consolidator gap timeout: a longer gap can only merge sessions, never
// split them — event count is non-increasing in the gap.
class GapSweep : public ::testing::TestWithParam<double> {};

std::vector<amppot::RequestRecord> bursty_log(Rng& rng) {
  std::vector<amppot::RequestRecord> log;
  const Ipv4Addr victim(9, 9, 9, 9);
  double t = 0.0;
  for (int burst = 0; burst < 12; ++burst) {
    for (int i = 0; i < 200; ++i) {
      log.push_back({t, victim, amppot::ReflectionProtocol::kNtp, 8});
      t += rng.uniform(0.1, 1.0);
    }
    t += rng.uniform(200.0, 5000.0);  // variable lulls
  }
  return log;
}

TEST_P(GapSweep, LongerGapMergesNeverSplits) {
  Rng rng(17);
  const auto log = bursty_log(rng);
  amppot::ConsolidatorConfig narrow, wide;
  narrow.gap_timeout_s = GetParam();
  wide.gap_timeout_s = GetParam() * 4.0;
  const auto narrow_events = consolidate_log(log, narrow);
  const auto wide_events = consolidate_log(log, wide);
  EXPECT_GE(narrow_events.size(), wide_events.size());
  // Total requests across events is conserved up to threshold filtering.
  std::uint64_t narrow_requests = 0, wide_requests = 0;
  for (const auto& event : narrow_events) narrow_requests += event.requests;
  for (const auto& event : wide_events) wide_requests += event.requests;
  EXPECT_LE(narrow_requests, wide_requests + 1);
}

INSTANTIATE_TEST_SUITE_P(Gaps, GapSweep,
                         ::testing::Values(150.0, 300.0, 600.0, 1200.0));

// ---------------------------------------------------------------------------
// Consolidator duration cap: a tighter cap produces at least as many events
// and none longer than the cap.
class CapSweep : public ::testing::TestWithParam<double> {};

TEST_P(CapSweep, CapBoundsEveryEvent) {
  const double cap = GetParam();
  std::vector<amppot::RequestRecord> log;
  const Ipv4Addr victim(9, 9, 9, 9);
  for (double t = 0.0; t < 100000.0; t += 5.0)
    log.push_back({t, victim, amppot::ReflectionProtocol::kDns, 64});
  amppot::ConsolidatorConfig config;
  config.max_duration_s = cap;
  const auto events = consolidate_log(log, config);
  ASSERT_FALSE(events.empty());
  for (const auto& event : events) EXPECT_LE(event.duration(), cap + 5.0);
  amppot::ConsolidatorConfig loose;
  loose.max_duration_s = cap * 2.0;
  EXPECT_GE(events.size(), consolidate_log(log, loose).size());
}

INSTANTIATE_TEST_SUITE_P(Caps, CapSweep,
                         ::testing::Values(3600.0, 14400.0, 43200.0, 86400.0));

// ---------------------------------------------------------------------------
// Reply rate limiter: the number of replies per source per minute is below
// the configured bound for any flood rate.
class LimiterSweep : public ::testing::TestWithParam<int> {};

TEST_P(LimiterSweep, RepliesStayUnderBound) {
  const int bound = GetParam();
  amppot::ReplyRateLimiter limiter(static_cast<std::uint32_t>(bound));
  const Ipv4Addr source(1, 2, 3, 4);
  int replies_this_minute = 0;
  double minute_start = 0.0;
  Rng rng(23);
  double t = 0.0;
  for (int i = 0; i < 5000; ++i) {
    t += rng.uniform(0.001, 2.0);
    if (t - minute_start >= 60.0) {
      minute_start = t;
      replies_this_minute = 0;
    }
    if (limiter.on_packet(t, source)) ++replies_this_minute;
    // The limiter window restarts on its own schedule; allow one window of
    // slack when comparing to our minute-aligned accounting.
    EXPECT_LE(replies_this_minute, 2 * (bound - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, LimiterSweep, ::testing::Values(2, 3, 5, 10));

// ---------------------------------------------------------------------------
// Zipf concentration: a larger exponent concentrates more mass on rank 1.
class ZipfSweep : public ::testing::TestWithParam<double> {};

TEST_P(ZipfSweep, HigherExponentConcentrates) {
  const double s = GetParam();
  Rng rng_a(31), rng_b(31);
  const ZipfSampler flat(1000, s);
  const ZipfSampler steep(1000, s + 0.5);
  int flat_top = 0, steep_top = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    if (flat.sample(rng_a) <= 10) ++flat_top;
    if (steep.sample(rng_b) <= 10) ++steep_top;
  }
  EXPECT_GT(steep_top, flat_top);
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfSweep,
                         ::testing::Values(0.5, 0.8, 1.0, 1.3));

// ---------------------------------------------------------------------------
// EventStore and query-rollup invariants under random event populations.
class StoreInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StoreInvariants, HoldForRandomPopulations) {
  Rng rng(GetParam());
  const StudyWindow window;
  std::vector<core::AttackEvent> population;
  const double t0 = static_cast<double>(window.start_time());
  const int n = 500 + static_cast<int>(rng.next_below(1500));
  for (int i = 0; i < n; ++i) {
    core::AttackEvent event;
    event.source = rng.bernoulli(0.5) ? core::EventSource::kTelescope
                                      : core::EventSource::kHoneypot;
    event.target =
        Ipv4Addr(static_cast<std::uint32_t>(0x0a000000 + rng.next_below(300)));
    event.start = t0 + rng.uniform(0.0, 730.0 * 86400.0);
    event.end = event.start + rng.lognormal(5.5, 1.5);
    event.intensity = rng.lognormal(0.0, 2.0);
    event.packets = 25 + rng.next_below(100000);
    event.ip_proto = 6;
    event.num_ports = 1;
    event.top_port = 80;
    population.push_back(event);
  }
  const core::EventStore store(window, std::move(population));

  meta::PrefixToAsMap pfx2as;
  pfx2as.announce(net::Prefix::parse("10.0.0.0/8"), 64500);
  const meta::GeoDatabase geo;
  const auto snapshot =
      query::Snapshot::build(store.window(), store.events(), {pfx2as, geo});
  using enum core::SourceFilter;
  using enum query::DistinctKey;
  const auto events = [&](core::SourceFilter filter) {
    return snapshot->count(query::Query{}.from_source(filter));
  };
  const auto distinct = [&](core::SourceFilter filter,
                            query::DistinctKey key = kTarget) {
    return snapshot->distinct(query::Query{}.from_source(filter), key);
  };

  // Event counts are additive; target sets sub-additive.
  EXPECT_EQ(events(kCombined), events(kTelescope) + events(kHoneypot));
  EXPECT_LE(distinct(kCombined), distinct(kTelescope) + distinct(kHoneypot));
  EXPECT_GE(distinct(kCombined),
            std::max(distinct(kTelescope), distinct(kHoneypot)));
  EXPECT_LE(distinct(kCombined, kSlash24), distinct(kCombined));
  EXPECT_LE(distinct(kCombined, kSlash16), distinct(kCombined, kSlash24));

  // The store holds every event, in canonical order.
  EXPECT_EQ(store.size(), static_cast<std::size_t>(n));
  EXPECT_TRUE(std::is_sorted(store.events().begin(), store.events().end(),
                             core::canonical_less));

  // Normalized intensities live in [0, 1] and the max is exactly 1.
  const core::IntensityScale scale(store.events());
  double max_norm = 0.0;
  for (const auto& event : store.events()) {
    const double norm = scale.normalized(event);
    EXPECT_GE(norm, 0.0);
    EXPECT_LE(norm, 1.0);
    max_norm = std::max(max_norm, norm);
  }
  EXPECT_DOUBLE_EQ(max_norm, 1.0);

  // Daily series totals match the event count (every event is in-window).
  EXPECT_DOUBLE_EQ(snapshot->daily_attacks(query::Query{}).total(),
                   static_cast<double>(store.size()));
  // Medium+ (at or above the source's mean intensity) is a subset.
  const auto medium = [&](core::SourceFilter filter, core::EventSource source) {
    return snapshot->count(query::Query{}.from_source(filter).at_least(
        scale.mean(source)));
  };
  EXPECT_LE(medium(kTelescope, core::EventSource::kTelescope) +
                medium(kHoneypot, core::EventSource::kHoneypot),
            store.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreInvariants,
                         ::testing::Values(1, 7, 19, 101, 997));

}  // namespace
}  // namespace dosm
