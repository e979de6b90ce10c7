// Joint-attack analysis tests (§4): common targets vs simultaneous attacks.
#include <gtest/gtest.h>

#include "core/joint.h"
#include "sim/scenario.h"

namespace dosm::core {
namespace {

using net::Ipv4Addr;

AttackEvent make_event(EventSource source, Ipv4Addr target, double start,
                       double duration) {
  AttackEvent event;
  event.source = source;
  event.target = target;
  event.start = start;
  event.end = start + duration;
  event.intensity = 1.0;
  if (source == EventSource::kTelescope) {
    event.ip_proto = 6;
    event.num_ports = 1;
    event.top_port = 80;
  } else {
    event.reflection = amppot::ReflectionProtocol::kNtp;
  }
  return event;
}

class JointTest : public ::testing::Test {
 protected:
  JointTest() : t0_(static_cast<double>(window_.start_time())) {
    pfx2as_.announce(net::Prefix::parse("10.0.0.0/8"), 12276);
    pfx2as_.announce(net::Prefix::parse("20.0.0.0/8"), 4134);
    geo_.add(net::Prefix::parse("10.0.0.0/8"), meta::CountryCode("FR"));
    geo_.add(net::Prefix::parse("20.0.0.0/8"), meta::CountryCode("CN"));
  }

  EventStore store() const { return EventStore(window_, events_); }

  StudyWindow window_{};
  double t0_;
  std::vector<AttackEvent> events_;
  meta::PrefixToAsMap pfx2as_;
  meta::GeoDatabase geo_;
};

TEST_F(JointTest, DistinguishesCommonFromJoint) {
  // Target A: both sources, overlapping -> joint.
  const Ipv4Addr a(10, 0, 0, 1);
  events_.push_back(make_event(EventSource::kTelescope, a, t0_ + 100, 600));
  events_.push_back(make_event(EventSource::kHoneypot, a, t0_ + 300, 600));
  // Target B: both sources, days apart -> common but not joint.
  const Ipv4Addr b(10, 0, 0, 2);
  events_.push_back(make_event(EventSource::kTelescope, b, t0_ + 100, 600));
  events_.push_back(make_event(EventSource::kHoneypot, b, t0_ + 86400 * 3, 600));
  // Target C: telescope only.
  events_.push_back(make_event(EventSource::kTelescope, Ipv4Addr(20, 0, 0, 3),
                        t0_ + 100, 600));

  const JointAttackAnalysis joint(store());
  EXPECT_EQ(joint.common_targets(), 2u);
  EXPECT_EQ(joint.joint_targets(), 1u);
  ASSERT_EQ(joint.joint_target_list().size(), 1u);
  EXPECT_EQ(joint.joint_target_list()[0], a);
  EXPECT_EQ(joint.telescope_joint_events().size(), 1u);
  EXPECT_EQ(joint.honeypot_joint_events().size(), 1u);
}

TEST_F(JointTest, CollectsAllCoParticipatingEvents) {
  const Ipv4Addr a(10, 0, 0, 1);
  // Two telescope events overlapping the same reflection attack.
  events_.push_back(make_event(EventSource::kTelescope, a, t0_ + 100, 200));
  events_.push_back(make_event(EventSource::kTelescope, a, t0_ + 400, 200));
  events_.push_back(make_event(EventSource::kHoneypot, a, t0_ + 50, 700));
  // A later telescope event with no overlap: not joint.
  events_.push_back(make_event(EventSource::kTelescope, a, t0_ + 5000, 100));
  const JointAttackAnalysis joint(store());
  EXPECT_EQ(joint.joint_targets(), 1u);
  EXPECT_EQ(joint.telescope_joint_events().size(), 2u);
  EXPECT_EQ(joint.honeypot_joint_events().size(), 1u);
}

TEST_F(JointTest, AsnRankingCountsJointTargets) {
  for (int i = 1; i <= 3; ++i) {
    const Ipv4Addr target(10, 0, 0, static_cast<std::uint8_t>(i));
    events_.push_back(make_event(EventSource::kTelescope, target, t0_ + 100, 600));
    events_.push_back(make_event(EventSource::kHoneypot, target, t0_ + 200, 600));
  }
  const Ipv4Addr other(20, 0, 0, 9);
  events_.push_back(make_event(EventSource::kTelescope, other, t0_ + 100, 600));
  events_.push_back(make_event(EventSource::kHoneypot, other, t0_ + 200, 600));
  const JointAttackAnalysis joint(store());
  const auto ranking = joint.asn_ranking(pfx2as_);
  ASSERT_EQ(ranking.size(), 2u);
  EXPECT_EQ(ranking[0].asn, 12276u);  // OVH-style: most joint targets
  EXPECT_EQ(ranking[0].targets, 3u);
  EXPECT_DOUBLE_EQ(ranking[0].share, 0.75);
  const auto countries = joint.country_ranking(geo_);
  ASSERT_EQ(countries.size(), 2u);
  EXPECT_EQ(countries[0].country.to_string(), "FR");
}

TEST_F(JointTest, EmptyStoreIsClean) {
  const JointAttackAnalysis joint(store());
  EXPECT_EQ(joint.common_targets(), 0u);
  EXPECT_EQ(joint.joint_targets(), 0u);
  EXPECT_TRUE(joint.asn_ranking(pfx2as_).empty());
}

TEST(JointEventTest, FlagsMatchBruteForceOnSmallScenario) {
  const auto world = sim::build_world(sim::ScenarioConfig::small());
  const auto events = world->store.events();
  const JointAttackAnalysis joint(world->store);
  std::size_t flagged = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    // Joint: an overlapping event from the other source on the same target.
    bool expected = false;
    for (const auto& other : events) {
      if (other.target == events[i].target &&
          other.source != events[i].source && events[i].overlaps(other)) {
        expected = true;
        break;
      }
    }
    EXPECT_EQ(joint.joint_event(i), expected) << "event " << i;
    flagged += expected;
  }
  EXPECT_GT(flagged, 0u);
  EXPECT_EQ(flagged, joint.telescope_joint_events().size() +
                         joint.honeypot_joint_events().size());
}

}  // namespace
}  // namespace dosm::core
