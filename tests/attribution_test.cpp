// Peak-attribution tests (§5 case-study machinery).
#include <gtest/gtest.h>

#include "core/attribution.h"

namespace dosm::core {
namespace {

using net::Ipv4Addr;

class AttributionTest : public ::testing::Test {
 protected:
  AttributionTest()
      : t0_(static_cast<double>(window_.start_time())),
        dns_(window_.num_days()) {
    pfx2as_.announce(net::Prefix::parse("10.0.0.0/8"), 26496);
    pfx2as_.announce(net::Prefix::parse("20.0.0.0/8"), 16509);
    registry_.register_as(26496, "GoDaddy");
    registry_.register_as(16509, "Amazon AWS");
  }

  void host(const std::string& name, Ipv4Addr ip, const std::string& ns) {
    const auto id = dns_.add_domain(name, 0);
    dns::WebsiteRecord record;
    record.www_a = ip;
    record.ns = names_.intern(ns);
    dns_.record_change(id, 0, record);
  }

  void attack(Ipv4Addr target, int day, EventSource source) {
    AttackEvent event;
    event.source = source;
    event.target = target;
    event.start = t0_ + day * 86400.0 + 1000.0;
    event.end = event.start + 600.0;
    event.intensity = 1.0;
    event.ip_proto = 6;
    events_.push_back(event);
  }

  std::vector<PeakParty> run(int day) {
    dns_.build_reverse_index();
    return attribute_peak(store(), dns_, names_, day, pfx2as_, registry_);
  }

  EventStore store() const { return EventStore(window_, events_); }

  StudyWindow window_{};
  double t0_;
  dns::NameTable names_;
  dns::SnapshotStore dns_;
  meta::PrefixToAsMap pfx2as_;
  meta::AsRegistry registry_;
  std::vector<AttackEvent> events_;
};

TEST_F(AttributionTest, GroupsByOriginAsAndRanksBySites) {
  for (int i = 0; i < 20; ++i)
    host("gd" + std::to_string(i) + ".com", Ipv4Addr(10, 0, 0, 1),
         "ns1.godaddy-dns.com");
  for (int i = 0; i < 3; ++i)
    host("aws" + std::to_string(i) + ".com", Ipv4Addr(20, 0, 0, 1),
         "ns1.mixed" + std::to_string(i) + ".com");
  attack(Ipv4Addr(10, 0, 0, 1), 10, EventSource::kTelescope);
  attack(Ipv4Addr(20, 0, 0, 1), 10, EventSource::kTelescope);
  attack(Ipv4Addr(10, 0, 1, 1), 10, EventSource::kTelescope);  // hosts nothing

  const auto parties = run(10);
  ASSERT_EQ(parties.size(), 2u);
  EXPECT_EQ(parties[0].name, "GoDaddy");
  EXPECT_EQ(parties[0].affected_sites, 20u);
  EXPECT_EQ(parties[0].attacked_ips, 1u);
  EXPECT_EQ(parties[0].common_ns, "ns1.godaddy-dns.com");
  EXPECT_EQ(parties[1].name, "Amazon AWS");
  EXPECT_EQ(parties[1].common_ns, "");  // no 60% NS majority
}

TEST_F(AttributionTest, DetectsJointAttackedParties) {
  host("a.com", Ipv4Addr(10, 0, 0, 1), "ns1.x.com");
  attack(Ipv4Addr(10, 0, 0, 1), 10, EventSource::kTelescope);
  attack(Ipv4Addr(10, 0, 0, 1), 10, EventSource::kHoneypot);  // overlapping
  host("b.com", Ipv4Addr(20, 0, 0, 1), "ns1.y.com");
  attack(Ipv4Addr(20, 0, 0, 1), 10, EventSource::kTelescope);

  const auto parties = run(10);
  ASSERT_EQ(parties.size(), 2u);
  for (const auto& party : parties) {
    if (party.name == "GoDaddy") {
      EXPECT_TRUE(party.joint_attacked);
    }
    if (party.name == "Amazon AWS") {
      EXPECT_FALSE(party.joint_attacked);
    }
  }
}

TEST_F(AttributionTest, OtherDaysAreExcluded) {
  host("a.com", Ipv4Addr(10, 0, 0, 1), "ns1.x.com");
  attack(Ipv4Addr(10, 0, 0, 1), 10, EventSource::kTelescope);
  attack(Ipv4Addr(10, 0, 0, 1), 12, EventSource::kTelescope);
  EXPECT_EQ(run(11).size(), 0u);
}

TEST_F(AttributionTest, UnroutedSpaceGetsSentinelName) {
  host("a.com", Ipv4Addr(99, 0, 0, 1), "ns1.x.com");  // no announcement
  attack(Ipv4Addr(99, 0, 0, 1), 5, EventSource::kTelescope);
  const auto parties = run(5);
  ASSERT_EQ(parties.size(), 1u);
  EXPECT_EQ(parties[0].name, "(unrouted)");
  EXPECT_EQ(parties[0].asn, meta::kUnknownAsn);
}

}  // namespace
}  // namespace dosm::core
