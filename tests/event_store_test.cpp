// EventStore tests: fusion, canonical order, the per-source intensity scale,
// and hand-computed rollup fixtures (Table 1, Figs. 1/5, Table 4) run on the
// query executor and its oracle.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/event_store.h"
#include "query/scan.h"
#include "query/snapshot.h"

namespace dosm::core {
namespace {

using net::Ipv4Addr;

AttackEvent telescope_event(Ipv4Addr target, double start, double duration,
                            double max_pps) {
  AttackEvent event;
  event.source = EventSource::kTelescope;
  event.target = target;
  event.start = start;
  event.end = start + duration;
  event.intensity = max_pps;
  event.packets = 100;
  event.ip_proto = 6;
  event.num_ports = 1;
  event.top_port = 80;
  return event;
}

AttackEvent honeypot_event(Ipv4Addr target, double start, double duration,
                           double rps) {
  AttackEvent event;
  event.source = EventSource::kHoneypot;
  event.target = target;
  event.start = start;
  event.end = start + duration;
  event.intensity = rps;
  event.packets = 500;
  event.reflection = amppot::ReflectionProtocol::kNtp;
  event.honeypots = 3;
  return event;
}

class EventStoreTest : public ::testing::Test {
 protected:
  EventStoreTest() : t0_(static_cast<double>(window_.start_time())) {
    pfx2as_.announce(net::Prefix::parse("10.0.0.0/8"), 100);
    pfx2as_.announce(net::Prefix::parse("20.0.0.0/8"), 200);
    geo_.add(net::Prefix::parse("10.0.0.0/8"), meta::CountryCode("US"));
    geo_.add(net::Prefix::parse("20.0.0.0/8"), meta::CountryCode("CN"));
  }

  /// Runs `check` on a query::Snapshot of the store, then on the
  /// query::ScanOracle: both executors must give the hand-computed answers.
  template <typename Check>
  void on_both(const EventStore& store, Check check) const {
    check(*query::Snapshot::build(store.window(), store.events(),
                                  {pfx2as_, geo_}));
    check(query::ScanOracle(store.events(), window_, pfx2as_, geo_));
  }

  StudyWindow window_{};
  double t0_;
  meta::PrefixToAsMap pfx2as_;
  meta::GeoDatabase geo_;
};

using query::DistinctKey;
using query::Query;

TEST_F(EventStoreTest, LiftsSourceEventsCorrectly) {
  telescope::TelescopeEvent te;
  te.victim = Ipv4Addr(1, 2, 3, 4);
  te.start = 100.0;
  te.end = 400.0;
  te.max_pps = 7.0;
  te.packets = 210;
  te.attack_proto = 17;
  te.num_ports = 2;
  te.top_port = 53;
  te.unique_sources = 99;
  const auto lifted = from_telescope(te);
  EXPECT_TRUE(lifted.is_telescope());
  EXPECT_EQ(lifted.target, te.victim);
  EXPECT_DOUBLE_EQ(lifted.intensity, 7.0);
  EXPECT_EQ(lifted.num_ports, 2);
  EXPECT_FALSE(lifted.single_port());

  amppot::AmpPotEvent ae;
  ae.victim = Ipv4Addr(5, 6, 7, 8);
  ae.start = 0.0;
  ae.end = 100.0;
  ae.requests = 1000;
  ae.honeypots = 2;
  ae.protocol = amppot::ReflectionProtocol::kSsdp;
  const auto lifted2 = from_amppot(ae);
  EXPECT_TRUE(lifted2.is_honeypot());
  EXPECT_DOUBLE_EQ(lifted2.intensity, 5.0);  // 1000 / 100 / 2
  EXPECT_EQ(lifted2.reflection, amppot::ReflectionProtocol::kSsdp);
}

TEST_F(EventStoreTest, DistinctCountsTable1Rollups) {
  const EventStore store(window_, {
      telescope_event(Ipv4Addr(10, 0, 0, 1), t0_ + 100, 120, 1.0),
      telescope_event(Ipv4Addr(10, 0, 0, 2), t0_ + 200, 120, 1.0),
      telescope_event(Ipv4Addr(10, 0, 1, 1), t0_ + 300, 120, 1.0),
      honeypot_event(Ipv4Addr(20, 0, 0, 1), t0_ + 400, 300, 50.0),
      honeypot_event(Ipv4Addr(10, 0, 0, 1), t0_ + 500, 300, 50.0),
  });

  on_both(store, [](const auto& exec) {
    const Query combined;
    EXPECT_EQ(exec.count(combined), 5u);
    EXPECT_EQ(exec.distinct(combined, DistinctKey::kTarget), 4u);
    // 10.0.0/24, 10.0.1/24, 20.0.0/24
    EXPECT_EQ(exec.distinct(combined, DistinctKey::kSlash24), 3u);
    EXPECT_EQ(exec.distinct(combined, DistinctKey::kSlash16), 2u);
    EXPECT_EQ(exec.distinct(combined, DistinctKey::kAsn), 2u);

    const auto telescope = Query{}.from_source(SourceFilter::kTelescope);
    EXPECT_EQ(exec.count(telescope), 3u);
    EXPECT_EQ(exec.distinct(telescope, DistinctKey::kTarget), 3u);
    EXPECT_EQ(exec.distinct(telescope, DistinctKey::kAsn), 1u);
  });
}

TEST_F(EventStoreTest, SortsShuffledEventsCanonically) {
  // (start, target) ties across the two sources and across reflection
  // protocols, shuffled, with a honeypot event ahead of the telescope event
  // it ties with: canonical_less breaks ties by source, then by protocol.
  const Ipv4Addr a(10, 0, 0, 1), b(10, 0, 0, 2);
  const auto reflected = [&](Ipv4Addr target,
                             amppot::ReflectionProtocol protocol) {
    auto event = honeypot_event(target, t0_ + 100, 60, 5.0);
    event.reflection = protocol;
    return event;
  };
  using enum amppot::ReflectionProtocol;
  std::vector<AttackEvent> events{
      reflected(a, kNtp),
      telescope_event(b, t0_ + 50, 60, 1.0),
      reflected(b, kNtp),
      reflected(a, kCharGen),
      telescope_event(a, t0_ + 100, 60, 1.0),
      reflected(b, kDns),
      telescope_event(b, t0_ + 100, 60, 1.0),
      telescope_event(a, t0_ + 20, 60, 1.0),
  };

  const EventStore store(window_, events);
  std::sort(events.begin(), events.end(), canonical_less);
  ASSERT_EQ(store.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& got = store.events()[i];
    EXPECT_EQ(got.start, events[i].start) << i;
    EXPECT_EQ(got.target, events[i].target) << i;
    EXPECT_EQ(got.source, events[i].source) << i;
    EXPECT_EQ(got.reflection, events[i].reflection) << i;
  }
  // The (t0 + 100, a) tie: telescope, then CharGen, then NTP.
  EXPECT_TRUE(store.events()[2].is_telescope());
  EXPECT_EQ(store.events()[3].reflection, kCharGen);
  EXPECT_EQ(store.events()[4].reflection, kNtp);
}

TEST_F(EventStoreTest, DailySeriesPlaceEventsOnStartDay) {
  const EventStore store(window_, {
      // Two events on day 0, one on day 1, one crossing midnight counts on
      // day 0.
      telescope_event(Ipv4Addr(10, 0, 0, 1), t0_ + 1000, 60, 1.0),
      telescope_event(Ipv4Addr(10, 0, 0, 2), t0_ + 2000, 60, 1.0),
      telescope_event(Ipv4Addr(10, 0, 0, 3), t0_ + 86000, 3600, 1.0),
      telescope_event(Ipv4Addr(10, 0, 0, 4), t0_ + 86400 + 100, 60, 1.0),
  });
  const auto telescope = Query{}.from_source(SourceFilter::kTelescope);
  const auto day0 = Query(telescope).between(t0_, t0_ + 86400);
  on_both(store, [&](const auto& exec) {
    const auto attacks = exec.daily_attacks(telescope);
    EXPECT_DOUBLE_EQ(attacks.at(0), 3.0);
    EXPECT_DOUBLE_EQ(attacks.at(1), 1.0);
    EXPECT_EQ(exec.distinct(day0, DistinctKey::kTarget), 3u);
    EXPECT_EQ(exec.distinct(day0, DistinctKey::kSlash16), 1u);
    EXPECT_EQ(exec.distinct(day0, DistinctKey::kAsn), 1u);
  });
}

TEST_F(EventStoreTest, DailyDistinctDeduplicatesTargets) {
  const Ipv4Addr target(10, 0, 0, 1);
  const EventStore store(window_, {
      telescope_event(target, t0_ + 100, 60, 1.0),
      telescope_event(target, t0_ + 5000, 60, 1.0),
  });
  const auto day0 = Query{}.between(t0_, t0_ + 86400);
  on_both(store, [&](const auto& exec) {
    EXPECT_DOUBLE_EQ(exec.daily_attacks(Query{}).at(0), 2.0);
    EXPECT_EQ(exec.distinct(day0, DistinctKey::kTarget), 1u);
  });
}

TEST_F(EventStoreTest, MediumIntensityFilterUsesSourceMean) {
  const EventStore store(window_, {
      // Telescope intensities: 1, 1, 10 (mean 4): only the 10 is medium+.
      telescope_event(Ipv4Addr(10, 0, 0, 1), t0_ + 100, 60, 1.0),
      telescope_event(Ipv4Addr(10, 0, 0, 2), t0_ + 200, 60, 1.0),
      telescope_event(Ipv4Addr(10, 0, 0, 3), t0_ + 300, 60, 10.0),
      // Honeypot intensities: all 50 (mean 50): all medium+ (>=).
      honeypot_event(Ipv4Addr(20, 0, 0, 1), t0_ + 400, 100, 50.0),
  });
  const IntensityScale scale(store.events());
  EXPECT_DOUBLE_EQ(scale.mean(EventSource::kTelescope), 4.0);
  EXPECT_FALSE(scale.medium_or_higher(store.events()[1]));
  EXPECT_TRUE(scale.medium_or_higher(store.events()[2]));
  EXPECT_TRUE(scale.medium_or_higher(store.events()[3]));
  // Figure 5's medium+ count is one thresholded query per source, summed:
  // here the 10-pps telescope event and the honeypot event.
  const auto telescope = Query{}.from_source(SourceFilter::kTelescope).at_least(
      scale.mean(EventSource::kTelescope));
  const auto honeypot = Query{}.from_source(SourceFilter::kHoneypot).at_least(
      scale.mean(EventSource::kHoneypot));
  on_both(store, [&](const auto& exec) {
    EXPECT_DOUBLE_EQ(exec.daily_attacks(telescope).at(0) +
                         exec.daily_attacks(honeypot).at(0),
                     2.0);
  });
}

TEST_F(EventStoreTest, NormalizedIntensityIsLinearPerSource) {
  const EventStore store(window_, {
      telescope_event(Ipv4Addr(10, 0, 0, 1), t0_ + 100, 60, 25.0),
      telescope_event(Ipv4Addr(10, 0, 0, 2), t0_ + 200, 60, 100.0),
      honeypot_event(Ipv4Addr(20, 0, 0, 1), t0_ + 300, 100, 500.0),
  });
  const IntensityScale scale(store.events());
  EXPECT_DOUBLE_EQ(scale.normalized(store.events()[0]), 0.25);
  EXPECT_DOUBLE_EQ(scale.normalized(store.events()[1]), 1.0);
  // The honeypot event normalizes against its own dataset's max.
  EXPECT_DOUBLE_EQ(scale.normalized(store.events()[2]), 1.0);
}

TEST_F(EventStoreTest, CountryRankingOrdersByTargets) {
  const EventStore store(window_, {
      telescope_event(Ipv4Addr(10, 0, 0, 1), t0_ + 100, 60, 1.0),
      telescope_event(Ipv4Addr(10, 0, 0, 2), t0_ + 100, 60, 1.0),
      telescope_event(Ipv4Addr(20, 0, 0, 1), t0_ + 100, 60, 1.0),
      telescope_event(Ipv4Addr(99, 0, 0, 1), t0_ + 100, 60, 1.0),
  });
  on_both(store, [](const auto& exec) {
    const auto ranking =
        exec.country_ranking(Query{}.from_source(SourceFilter::kTelescope));
    ASSERT_EQ(ranking.size(), 3u);  // US, CN, ZZ (unknown)
    EXPECT_EQ(ranking[0].country.to_string(), "US");
    EXPECT_EQ(ranking[0].targets, 2u);
    EXPECT_DOUBLE_EQ(ranking[0].share, 0.5);
  });
}

TEST_F(EventStoreTest, OverlapPredicate) {
  const auto a = telescope_event(Ipv4Addr(1, 1, 1, 1), 100.0, 100.0, 1.0);
  auto b = honeypot_event(Ipv4Addr(1, 1, 1, 1), 150.0, 100.0, 1.0);
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  b.start = 201.0;
  b.end = 300.0;
  EXPECT_FALSE(a.overlaps(b));
  b.start = 200.0;  // touching endpoints count as overlap
  EXPECT_TRUE(a.overlaps(b));
}

}  // namespace
}  // namespace dosm::core
