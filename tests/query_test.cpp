// Query engine correctness: seeded property tests comparing the indexed
// Snapshot against the ScanOracle (naive linear scan) for every filter /
// aggregation combination, and planner behaviour. Hand-computed rollup
// fixtures live in event_store_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "query/engine.h"
#include "query/scan.h"
#include "query/snapshot.h"
#include "sim/scenario.h"

namespace dosm::query {
namespace {

using core::AttackEvent;
using core::EventSource;
using core::SourceFilter;
using net::Ipv4Addr;

constexpr const char* kCountries[] = {"US", "CN", "DE", "FR",
                                      "GB", "NL", "RU", "BR"};

/// A randomized scenario: prefix-structured metadata and an event
/// population with deliberate key collisions (shared targets, /24s, ASNs,
/// countries) so indexes and tie-breaks are actually exercised.
struct Scenario {
  StudyWindow window;
  meta::PrefixToAsMap pfx2as;
  meta::GeoDatabase geo;
  std::vector<AttackEvent> events;
  std::vector<Ipv4Addr> pool;  // target pool the events draw from
};

Scenario make_scenario(std::uint64_t seed, std::size_t num_events) {
  Rng rng(seed);
  Scenario s;
  s.window.end = civil_from_days(days_from_civil(s.window.start) + 29);

  // Eight /8 country blocks; /16 announcements cover only the low second
  // octets, leaving some targets in unannounced (kUnknownAsn) space.
  for (int i = 0; i < 8; ++i) {
    const auto block = Ipv4Addr(static_cast<std::uint8_t>(10 + i), 0, 0, 0);
    s.geo.add(net::Prefix(block, 8), meta::CountryCode(kCountries[i]));
    for (int j = 0; j < 4; ++j) {
      const auto net16 = Ipv4Addr(static_cast<std::uint8_t>(10 + i),
                                  static_cast<std::uint8_t>(j), 0, 0);
      s.pfx2as.announce(net::Prefix(net16, 16),
                        static_cast<meta::Asn>(100 + i * 4 + j));
    }
  }

  for (int i = 0; i < 160; ++i) {
    s.pool.emplace_back(static_cast<std::uint8_t>(10 + rng.next_below(8)),
                        static_cast<std::uint8_t>(rng.next_below(6)),
                        static_cast<std::uint8_t>(rng.next_below(4)),
                        static_cast<std::uint8_t>(rng.next_below(32)));
  }

  const double t0 = static_cast<double>(s.window.start_time());
  const double t1 = static_cast<double>(s.window.end_time());
  const std::uint16_t ports[] = {0, 53, 80, 123, 443};
  for (std::size_t i = 0; i < num_events; ++i) {
    AttackEvent event;
    event.target = s.pool[rng.next_below(s.pool.size())];
    // ~3% of starts fall outside the window on either side.
    event.start = rng.uniform(t0 - 43200.0, t1 + 43200.0);
    event.end = event.start + rng.uniform(60.0, 3600.0);
    event.source =
        rng.bernoulli(0.7) ? EventSource::kTelescope : EventSource::kHoneypot;
    event.intensity = rng.exponential(0.01);
    if (event.source == EventSource::kTelescope) {
      event.top_port = ports[rng.next_below(5)];
      event.ip_proto = rng.bernoulli(0.8) ? 6 : 17;
    }
    s.events.push_back(event);
  }
  // Snapshot::build takes its input in canonical order.
  std::sort(s.events.begin(), s.events.end(), core::canonical_less);
  return s;
}

Query random_query(Rng& rng, const Scenario& s) {
  Query q;
  if (rng.bernoulli(0.4)) {
    const double day0 = static_cast<double>(
        s.window.day_start(static_cast<int>(rng.next_below(25))));
    q.between(day0, day0 + static_cast<double>(rng.uniform_int(1, 7)) *
                               static_cast<double>(kSecondsPerDay));
  }
  if (rng.bernoulli(0.4)) {
    const SourceFilter filters[] = {SourceFilter::kTelescope,
                                    SourceFilter::kHoneypot,
                                    SourceFilter::kCombined};
    q.from_source(filters[rng.next_below(3)]);
  }
  if (rng.bernoulli(0.4)) {
    const int lengths[] = {8, 16, 24, 32};
    const auto anchor = s.pool[rng.next_below(s.pool.size())];
    q.in_prefix(net::Prefix(anchor, lengths[rng.next_below(4)]));
  }
  if (rng.bernoulli(0.3))
    q.in_asn(static_cast<meta::Asn>(98 + rng.next_below(36)));
  if (rng.bernoulli(0.3))
    q.in_country(rng.bernoulli(0.9)
                     ? meta::CountryCode(kCountries[rng.next_below(8)])
                     : meta::unknown_country());
  if (rng.bernoulli(0.3)) {
    const std::uint16_t ports[] = {0, 53, 80, 123, 443, 9999};
    q.on_port(ports[rng.next_below(6)]);
  }
  if (rng.bernoulli(0.3)) q.at_least(rng.uniform(0.0, 200.0));
  return q;
}

constexpr DistinctKey kDistinctKeys[] = {DistinctKey::kTarget,
                                         DistinctKey::kSlash24,
                                         DistinctKey::kSlash16,
                                         DistinctKey::kAsn};

void expect_equal_results(const Snapshot& snap, const ScanOracle& oracle,
                          const Query& q) {
  const std::string label = to_string(q);
  EXPECT_EQ(snap.count(q), oracle.count(q)) << label;
  for (const auto key : kDistinctKeys)
    EXPECT_EQ(snap.distinct(q, key), oracle.distinct(q, key))
        << label << " key " << static_cast<int>(key);

  const auto snap_daily = snap.daily_attacks(q);
  const auto oracle_daily = oracle.daily_attacks(q);
  ASSERT_EQ(snap_daily.num_days(), oracle_daily.num_days());
  for (int d = 0; d < snap_daily.num_days(); ++d)
    EXPECT_DOUBLE_EQ(snap_daily.at(d), oracle_daily.at(d))
        << label << " day " << d;

  EXPECT_EQ(snap.top_targets(q, 5), oracle.top_targets(q, 5)) << label;
  EXPECT_EQ(snap.top_asns(q, 5), oracle.top_asns(q, 5)) << label;

  const auto snap_countries = snap.country_ranking(q);
  const auto oracle_countries = oracle.country_ranking(q);
  ASSERT_EQ(snap_countries.size(), oracle_countries.size()) << label;
  for (std::size_t i = 0; i < snap_countries.size(); ++i) {
    EXPECT_EQ(snap_countries[i].country, oracle_countries[i].country) << label;
    EXPECT_EQ(snap_countries[i].targets, oracle_countries[i].targets) << label;
    EXPECT_DOUBLE_EQ(snap_countries[i].share, oracle_countries[i].share)
        << label;
  }

  EXPECT_EQ(snap.match_rows(q).size(), snap.count(q)) << label;
}

class QueryPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueryPropertyTest, SnapshotMatchesOracleOnRandomQueries) {
  const auto scenario = make_scenario(GetParam(), 2000);
  const auto snap =
      Snapshot::build(scenario.window, scenario.events,
                      BuildContext{scenario.pfx2as, scenario.geo});
  const ScanOracle oracle(scenario.events, scenario.window, scenario.pfx2as,
                          scenario.geo);
  // The unfiltered query plus a battery of random filter combinations.
  expect_equal_results(*snap, oracle, Query{});
  Rng rng(GetParam() ^ 0x9e3779b9u);
  for (int i = 0; i < 60; ++i)
    expect_equal_results(*snap, oracle, random_query(rng, scenario));

  // Per-day rollups (Figure 1): a one-day time range selects exactly the
  // rows the day column places on that day (daily_attacks), so the per-day
  // distinct counts built on it match the oracle's.
  const auto attacks = snap->daily_attacks(Query{});
  std::vector<DailySeries> daily;
  for (const auto key : kDistinctKeys)
    daily.push_back(daily_distinct(*snap, Query{}, key));
  for (int d = 0; d < attacks.num_days(); ++d) {
    const auto day =
        Query{}.between(static_cast<double>(scenario.window.day_start(d)),
                        static_cast<double>(scenario.window.day_start(d + 1)));
    EXPECT_EQ(static_cast<double>(snap->count(day)), attacks.at(d)) << d;
    EXPECT_EQ(static_cast<double>(oracle.count(day)), attacks.at(d)) << d;
    for (std::size_t k = 0; k < daily.size(); ++k)
      EXPECT_EQ(daily[k].at(d),
                static_cast<double>(oracle.distinct(day, kDistinctKeys[k])))
          << "key " << k << " day " << d;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryPropertyTest,
                         ::testing::Values(1u, 7u, 42u, 20170301u));

// ---------------------------------------------------------------------------
// Segmented snapshots: any segment_days must produce results — global row
// ids included — identical to a single-segment full rebuild and to the
// oracle. This pins the ordering invariant in segment.h.
// ---------------------------------------------------------------------------

using SegmentedParam = std::tuple<std::uint64_t, int>;

class SegmentedSnapshotPropertyTest
    : public ::testing::TestWithParam<SegmentedParam> {};

TEST_P(SegmentedSnapshotPropertyTest, AnyGranularityMatchesFullRebuild) {
  const auto [seed, segment_days] = GetParam();
  const auto scenario = make_scenario(seed, 2000);
  const auto full =
      Snapshot::build(scenario.window, scenario.events,
                      BuildContext{scenario.pfx2as, scenario.geo});
  const auto segmented = Snapshot::build(
      scenario.window, scenario.events,
      BuildContext{.pfx2as = scenario.pfx2as, .geo = scenario.geo,
                   .segment_days = segment_days});
  const ScanOracle oracle(scenario.events, scenario.window, scenario.pfx2as,
                          scenario.geo);

  ASSERT_EQ(full->num_segments(), 1u);
  EXPECT_GT(segmented->num_segments(), 1u);
  ASSERT_EQ(segmented->size(), full->size());
  const auto all_rows = segmented->match_rows(Query{});
  EXPECT_TRUE(std::is_sorted(all_rows.begin(), all_rows.end()));
  EXPECT_EQ(all_rows, full->match_rows(Query{}));

  expect_equal_results(*segmented, oracle, Query{});
  Rng rng(seed ^ 0xa5a5a5a5u);
  for (int i = 0; i < 40; ++i) {
    const Query q = random_query(rng, scenario);
    expect_equal_results(*segmented, oracle, q);
    // match_rows emits global row ids ascending without sorting them.
    const auto rows = segmented->match_rows(q);
    EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end())) << to_string(q);
    EXPECT_EQ(rows, full->match_rows(q)) << to_string(q);
    // Per-segment index selection can only improve on the monolithic plan:
    // candidate totals never exceed the single-segment estimate.
    EXPECT_LE(segmented->plan(q).candidates, full->plan(q).candidates)
        << to_string(q);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Granularity, SegmentedSnapshotPropertyTest,
    ::testing::Combine(::testing::Values<std::uint64_t>(1u, 20170301u),
                       ::testing::Values(1, 3, 7)));

TEST(QueryPlannerTest, PicksTheCheapestIndex) {
  const auto scenario = make_scenario(11, 3000);
  const auto snap =
      Snapshot::build(scenario.window, scenario.events,
                      BuildContext{scenario.pfx2as, scenario.geo});

  EXPECT_EQ(snap->plan(Query{}).choice, IndexChoice::kFullScan);
  EXPECT_EQ(snap->plan(Query{}).candidates, snap->size());

  // A /32 target is the most selective filter on offer.
  Query by_target;
  by_target.in_prefix(net::Prefix(scenario.pool[0], 32));
  by_target.in_country(meta::CountryCode("US"));
  EXPECT_EQ(snap->plan(by_target).choice, IndexChoice::kTarget32);

  Query by_slash24;
  by_slash24.in_prefix(net::Prefix(scenario.pool[0], 24));
  EXPECT_EQ(snap->plan(by_slash24).choice, IndexChoice::kSlash24);

  // A /8 prefix has no hash index; with no other filter it full-scans.
  Query by_slash8;
  by_slash8.in_prefix(net::Prefix(scenario.pool[0], 8));
  EXPECT_EQ(snap->plan(by_slash8).choice, IndexChoice::kFullScan);

  Query by_asn;
  by_asn.in_asn(101);
  EXPECT_EQ(snap->plan(by_asn).choice, IndexChoice::kAsn);

  Query by_country;
  by_country.in_country(meta::CountryCode("CN"));
  EXPECT_EQ(snap->plan(by_country).choice, IndexChoice::kCountry);

  // A time filter alone uses the contiguous start-sorted range...
  Query one_day;
  const double day0 = static_cast<double>(scenario.window.day_start(3));
  one_day.between(day0, day0 + static_cast<double>(kSecondsPerDay));
  const auto time_plan = snap->plan(one_day);
  EXPECT_EQ(time_plan.choice, IndexChoice::kTimeRange);
  EXPECT_LE(time_plan.candidates, snap->size() / 10);

  // ...and combined with an equality filter, the postings are clipped to
  // that range first, so they cost even less than the day itself.
  Query narrow_time = by_country;
  narrow_time.between(day0, day0 + static_cast<double>(kSecondsPerDay));
  const auto plan = snap->plan(narrow_time);
  EXPECT_EQ(plan.choice, IndexChoice::kCountry);
  EXPECT_LE(plan.candidates, time_plan.candidates);

  // An unknown key has empty postings: zero candidates.
  Query miss;
  miss.in_asn(424242);
  EXPECT_EQ(snap->plan(miss).choice, IndexChoice::kAsn);
  EXPECT_EQ(snap->plan(miss).candidates, 0u);
  EXPECT_EQ(snap->count(miss), 0u);
}

TEST(QuerySnapshotTest, TimeRangeBoundariesAreHalfOpen) {
  StudyWindow window;
  window.end = civil_from_days(days_from_civil(window.start) + 4);
  meta::PrefixToAsMap pfx2as;
  meta::GeoDatabase geo;
  const double day1 = static_cast<double>(window.day_start(1));

  std::vector<AttackEvent> events(3);
  events[0].start = day1 - 1.0;  // just before the range
  events[1].start = day1;        // exactly at begin: included
  events[2].start = day1 + static_cast<double>(kSecondsPerDay);  // at end: excluded
  for (auto& event : events) {
    event.target = Ipv4Addr(10, 0, 0, 1);
    event.end = event.start + 60.0;
  }
  const auto snap = Snapshot::build(window, events, BuildContext{pfx2as, geo});
  Query q;
  q.between(day1, day1 + static_cast<double>(kSecondsPerDay));
  EXPECT_EQ(snap->count(q), 1u);
  const auto rows = snap->match_rows(q);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(snap->start_at(rows[0]), day1);
}

// ---------------------------------------------------------------------------
// Input order contract: Snapshot::build and SnapshotPublisher::ingest take
// events in core::canonical_less order and keep it as the row order.
// ---------------------------------------------------------------------------

class QueryOrderContractTest : public ::testing::Test {
 protected:
  QueryOrderContractTest() {
    window_.end = civil_from_days(days_from_civil(window_.start) + 4);
  }

  AttackEvent event(int day, std::uint8_t host) const {
    AttackEvent e;
    e.target = Ipv4Addr(10, 0, 0, host);
    e.start = static_cast<double>(window_.day_start(day)) + 600.0;
    e.end = e.start + 60.0;
    return e;
  }

  StudyWindow window_;
  meta::PrefixToAsMap pfx2as_;
  meta::GeoDatabase geo_;
};

TEST_F(QueryOrderContractTest, BuildRejectsSameStartTargetInversion) {
  const std::vector<AttackEvent> events{event(1, 2), event(1, 1)};
  EXPECT_THROW(Snapshot::build(window_, events, BuildContext{pfx2as_, geo_}),
               std::invalid_argument);
}

TEST_F(QueryOrderContractTest, BuildRejectsInversionAcrossBuckets) {
  // One bucket per day: each bucket alone is in order, the span is not.
  const std::vector<AttackEvent> events{event(2, 1), event(1, 1)};
  EXPECT_THROW(Snapshot::build(window_, events,
                               BuildContext{.pfx2as = pfx2as_, .geo = geo_,
                                            .segment_days = 1}),
               std::invalid_argument);
}

TEST_F(QueryOrderContractTest, PublisherRejectsSameStartInversion) {
  QueryEngine engine;
  SnapshotPublisher publisher(engine, window_, BuildContext{pfx2as_, geo_});
  publisher.ingest(event(1, 2));
  EXPECT_THROW(publisher.ingest(event(1, 1)), std::invalid_argument);
  publisher.ingest(event(1, 2));  // an equal event is not an inversion
  EXPECT_EQ(publisher.events_ingested(), 2u);
}

TEST_F(QueryOrderContractTest, TiedHoneypotEventsKeepReflectionOrder) {
  // Three events on one (start, target): the telescope's first, then the
  // honeypots' by reflection protocol. Intensity tags each row.
  std::vector<AttackEvent> events(3, event(1, 1));
  events[0].intensity = 1.0;
  for (std::size_t i = 1; i < events.size(); ++i)
    events[i].source = EventSource::kHoneypot;
  events[1].reflection = amppot::ReflectionProtocol::kDns;
  events[1].intensity = 2.0;
  events[2].reflection = amppot::ReflectionProtocol::kNtp;
  events[2].intensity = 3.0;
  ASSERT_TRUE(std::is_sorted(events.begin(), events.end(),
                             core::canonical_less));

  const auto snap =
      Snapshot::build(window_, events, BuildContext{pfx2as_, geo_});
  ASSERT_EQ(snap->size(), events.size());
  for (std::uint32_t row = 0; row < events.size(); ++row) {
    EXPECT_EQ(snap->source_at(row), events[row].source) << row;
    EXPECT_EQ(snap->intensity_at(row), events[row].intensity) << row;
  }
}

// ---------------------------------------------------------------------------
// Query::cache_key() — the canonical hash the serve result cache keys on.
// ---------------------------------------------------------------------------

/// One mutation per Query field. Extending Query means extending this list
/// (the test below fails when a new field leaves the key unchanged only if
/// the list names it, so keep it exhaustive).
std::vector<std::pair<std::string, Query>> single_field_variants() {
  std::vector<std::pair<std::string, Query>> variants;
  variants.emplace_back("time", Query{}.between(100.0, 200.0));
  variants.emplace_back("time.begin", Query{}.between(101.0, 200.0));
  variants.emplace_back("time.end", Query{}.between(100.0, 201.0));
  variants.emplace_back("source.telescope",
                        Query{}.from_source(core::SourceFilter::kTelescope));
  variants.emplace_back("source.honeypot",
                        Query{}.from_source(core::SourceFilter::kHoneypot));
  variants.emplace_back(
      "prefix", Query{}.in_prefix(net::Prefix(net::Ipv4Addr(0x0a000000u), 8)));
  variants.emplace_back(
      "prefix.length",
      Query{}.in_prefix(net::Prefix(net::Ipv4Addr(0x0a000000u), 9)));
  variants.emplace_back("asn", Query{}.in_asn(65000));
  variants.emplace_back("asn.other", Query{}.in_asn(65001));
  variants.emplace_back("country", Query{}.in_country(meta::CountryCode("US")));
  variants.emplace_back("country.other",
                        Query{}.in_country(meta::CountryCode("DE")));
  variants.emplace_back("port", Query{}.on_port(80));
  variants.emplace_back("port.other", Query{}.on_port(443));
  variants.emplace_back("min_intensity", Query{}.at_least(1.5));
  variants.emplace_back("min_intensity.other", Query{}.at_least(1.6));
  return variants;
}

TEST(QueryCacheKeyTest, AnyFieldChangeChangesTheKey) {
  const std::uint64_t base = Query{}.cache_key();
  const auto variants = single_field_variants();
  // Every single-field mutation moves the key away from the default...
  for (const auto& [name, query] : variants)
    EXPECT_NE(query.cache_key(), base) << name;
  // ...and away from every other mutation (field tags keep e.g. asn=80
  // and port=80 apart).
  for (std::size_t i = 0; i < variants.size(); ++i)
    for (std::size_t j = i + 1; j < variants.size(); ++j)
      EXPECT_NE(variants[i].second.cache_key(), variants[j].second.cache_key())
          << variants[i].first << " vs " << variants[j].first;
}

TEST(QueryCacheKeyTest, KeyIsStableForEqualQueries) {
  const Query a = Query{}.between(100.0, 200.0).on_port(80).at_least(0.5);
  const Query b = Query{}.between(100.0, 200.0).on_port(80).at_least(0.5);
  EXPECT_EQ(a.cache_key(), b.cache_key());
  EXPECT_EQ(a.cache_key(), a.cache_key());
}

// ---------------------------------------------------------------------------
// ExecBudget enforcement inside Snapshot execution.
// ---------------------------------------------------------------------------

TEST(QueryBudgetTest, RowBudgetAbortsDeterministically) {
  const auto world = sim::build_world(sim::ScenarioConfig::small());
  const auto snapshot = Snapshot::build(
      world->store.window(), world->store.events(),
      BuildContext{world->population.pfx2as(), world->population.geo()});
  const Query all;
  ExecBudget tight;
  tight.max_rows = 10;  // far below the small world's event count
  ASSERT_GT(snapshot->count(all), 10u);
  for (int attempt = 0; attempt < 3; ++attempt) {
    try {
      snapshot->count(all, tight);
      FAIL() << "expected BudgetExceeded";
    } catch (const BudgetExceeded& e) {
      EXPECT_EQ(e.kind(), BudgetExceeded::Kind::kRows);
      EXPECT_EQ(e.limit(), 10u);
    }
  }
  // Aggregations all charge the same accounting.
  EXPECT_THROW(snapshot->unique_targets(all, tight), BudgetExceeded);
  EXPECT_THROW(snapshot->daily_attacks(all, tight), BudgetExceeded);
  EXPECT_THROW(snapshot->top_targets(all, 5, tight), BudgetExceeded);
  EXPECT_THROW(snapshot->top_asns(all, 5, tight), BudgetExceeded);
  EXPECT_THROW(snapshot->top_countries(all, 5, tight), BudgetExceeded);
  EXPECT_THROW(snapshot->match_rows(all, tight), BudgetExceeded);
}

TEST(QueryBudgetTest, SufficientBudgetDoesNotPerturbResults) {
  const auto world = sim::build_world(sim::ScenarioConfig::small());
  const auto snapshot = Snapshot::build(
      world->store.window(), world->store.events(),
      BuildContext{world->population.pfx2as(), world->population.geo()});
  const Query all;
  ExecBudget roomy;
  roomy.max_rows = snapshot->size() + 1;
  EXPECT_EQ(snapshot->count(all, roomy), snapshot->count(all));
  EXPECT_EQ(snapshot->top_asns(all, 5, roomy), snapshot->top_asns(all, 5));
}

TEST(QueryBudgetTest, RowBudgetIsIdenticalAcrossSegmentGranularities) {
  // Regression: the row budget must charge MATCHED rows, not visited
  // candidates. Candidate counts depend on which access path each
  // per-segment planner picks, so charging candidates made the same query
  // with the same max_rows succeed at one --segment-days and throw at
  // another. Matched rows are a pure function of (dataset, query).
  const auto scenario = make_scenario(0xb0d6e7, 2000);
  const int granularities[] = {0, 1, 7};
  std::vector<std::shared_ptr<const Snapshot>> snaps;
  for (const int days : granularities)
    snaps.push_back(Snapshot::build(
        scenario.window, scenario.events,
        BuildContext{.pfx2as = scenario.pfx2as, .geo = scenario.geo,
                     .segment_days = days}));

  // Find a query whose candidate counts differ across granularities AND
  // exceed its matched count — exactly the shape where candidate-charging
  // diverges: with max_rows == matched, a candidate-charging executor
  // throws on the granularity that scans more than it matches.
  Rng rng(20260808);
  bool exercised = false;
  for (int attempt = 0; attempt < 200; ++attempt) {
    const Query q = random_query(rng, scenario);
    const std::uint64_t matched = snaps[0]->count(q);
    if (matched < 2) continue;
    std::uint64_t max_candidates = 0;
    for (const auto& snap : snaps)
      max_candidates = std::max(max_candidates, snap->plan(q).candidates);
    if (max_candidates <= matched) continue;
    exercised = true;

    ExecBudget exact;
    exact.max_rows = matched;
    for (std::size_t g = 0; g < snaps.size(); ++g) {
      EXPECT_EQ(snaps[g]->count(q, exact), matched)
          << "segment_days=" << granularities[g];
      EXPECT_EQ(snaps[g]->match_rows(q, exact), snaps[0]->match_rows(q, exact))
          << "segment_days=" << granularities[g];
    }
    ExecBudget tight;
    tight.max_rows = matched - 1;
    for (std::size_t g = 0; g < snaps.size(); ++g) {
      try {
        snaps[g]->count(q, tight);
        FAIL() << "expected BudgetExceeded at segment_days="
               << granularities[g];
      } catch (const BudgetExceeded& e) {
        EXPECT_EQ(e.kind(), BudgetExceeded::Kind::kRows);
      }
    }
    if (exercised && attempt > 50) break;  // a handful of shapes is plenty
  }
  ASSERT_TRUE(exercised) << "no query separated candidates from matches";
}

TEST(QueryBudgetTest, ExpiredDeadlineSurfacesAsTimeKind) {
  const auto world = sim::build_world(sim::ScenarioConfig::small());
  const auto snapshot = Snapshot::build(
      world->store.window(), world->store.events(),
      BuildContext{world->population.pfx2as(), world->population.geo()});
  ExecBudget expired;
  expired.deadline_ns = 1;  // monotonic epoch start — always in the past
  try {
    snapshot->count(Query{}, expired);
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetExceeded::Kind::kTime);
  }
}

}  // namespace
}  // namespace dosm::query
