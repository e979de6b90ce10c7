// Web-impact analysis tests (§5): event x DNS joins, co-hosting, daily
// affected-site series.
#include <gtest/gtest.h>

#include "core/impact.h"

namespace dosm::core {
namespace {

using net::Ipv4Addr;

class ImpactTest : public ::testing::Test {
 protected:
  ImpactTest()
      : t0_(static_cast<double>(window_.start_time())),
        dns_(window_.num_days()) {}

  dns::DomainId host_site(const std::string& name, Ipv4Addr ip, int day = 0) {
    const auto id = dns_.add_domain(name, day);
    dns::WebsiteRecord record;
    record.www_a = ip;
    dns_.record_change(id, day, record);
    return id;
  }

  void add_telescope(Ipv4Addr target, int day, double intensity = 1.0,
                     std::uint16_t port = 80, std::uint8_t proto = 6) {
    AttackEvent event;
    event.source = EventSource::kTelescope;
    event.target = target;
    event.start = t0_ + day * 86400.0 + 3600.0;
    event.end = event.start + 600.0;
    event.intensity = intensity;
    event.ip_proto = proto;
    event.num_ports = 1;
    event.top_port = port;
    events_.push_back(event);
  }

  void add_honeypot(Ipv4Addr target, int day, double duration_s,
                    amppot::ReflectionProtocol protocol =
                        amppot::ReflectionProtocol::kNtp) {
    AttackEvent event;
    event.source = EventSource::kHoneypot;
    event.target = target;
    event.start = t0_ + day * 86400.0 + 3600.0;
    event.end = event.start + duration_s;
    event.intensity = 50.0;
    event.reflection = protocol;
    events_.push_back(event);
  }

  EventStore store() const { return EventStore(window_, events_); }

  StudyWindow window_{};
  double t0_;
  dns::SnapshotStore dns_;
  std::vector<AttackEvent> events_;
};

TEST_F(ImpactTest, CountsAffectedSitesPerDay) {
  const Ipv4Addr shared(10, 0, 0, 1);
  host_site("a.com", shared);
  host_site("b.com", shared);
  host_site("c.com", Ipv4Addr(10, 0, 0, 2));
  add_telescope(shared, 5);
  add_telescope(Ipv4Addr(10, 0, 0, 2), 7);
  dns_.build_reverse_index();

  const ImpactAnalysis impact(store(), dns_);
  EXPECT_DOUBLE_EQ(impact.affected_daily().at(5), 2.0);
  EXPECT_DOUBLE_EQ(impact.affected_daily().at(7), 1.0);
  EXPECT_DOUBLE_EQ(impact.affected_daily().at(6), 0.0);
  EXPECT_EQ(impact.attacked_domains(), 3u);
  EXPECT_EQ(impact.web_domains(), 3u);
  EXPECT_DOUBLE_EQ(impact.attacked_domain_fraction(), 1.0);
}

TEST_F(ImpactTest, SameDayRepeatsDoNotDoubleCountSites) {
  const Ipv4Addr shared(10, 0, 0, 1);
  host_site("a.com", shared);
  add_telescope(shared, 5);
  add_telescope(shared, 5);  // second attack, same day, same IP
  dns_.build_reverse_index();
  const ImpactAnalysis impact(store(), dns_);
  EXPECT_DOUBLE_EQ(impact.affected_daily().at(5), 1.0);
  // But the domain records two touches.
  EXPECT_EQ(impact.domain_info(0).attack_count(), 2u);
}

TEST_F(ImpactTest, HistoricalMappingIsRespected) {
  // The site moves from IP1 to IP2 on day 10; an attack on IP1 on day 20
  // does NOT affect it, an attack on IP2 does.
  const Ipv4Addr ip1(10, 0, 0, 1), ip2(10, 0, 0, 2);
  const auto id = host_site("mover.com", ip1);
  dns::WebsiteRecord moved;
  moved.www_a = ip2;
  dns_.record_change(id, 10, moved);
  add_telescope(ip1, 20);
  add_telescope(ip2, 25);
  dns_.build_reverse_index();
  const ImpactAnalysis impact(store(), dns_);
  EXPECT_DOUBLE_EQ(impact.affected_daily().at(20), 0.0);
  EXPECT_DOUBLE_EQ(impact.affected_daily().at(25), 1.0);
  ASSERT_EQ(impact.domain_info(id).attack_count(), 1u);
  EXPECT_EQ(impact.domain_info(id).touches[0].day, 25);
}

TEST_F(ImpactTest, CohostingHistogramUsesFirstAttackSnapshot) {
  const Ipv4Addr mega(10, 0, 0, 1);
  for (int i = 0; i < 150; ++i)
    host_site("m" + std::to_string(i) + ".com", mega);
  const Ipv4Addr single(10, 0, 0, 2);
  host_site("solo.com", single);
  add_telescope(mega, 3);
  add_telescope(mega, 9);  // second attack: IP already counted
  add_telescope(single, 4);
  add_telescope(Ipv4Addr(10, 9, 9, 9), 5);  // hosts nothing
  dns_.build_reverse_index();
  const ImpactAnalysis impact(store(), dns_);
  EXPECT_EQ(impact.web_hosting_targets(), 2u);
  const auto& hist = impact.cohosting_histogram();
  EXPECT_EQ(hist.bin(0), 1u);  // solo.com's IP
  EXPECT_EQ(hist.bin(3), 1u);  // 150 sites -> (100, 1000] bin
  EXPECT_EQ(hist.total(), 2u);
}

TEST_F(ImpactTest, MediumSeriesFiltersByIntensity) {
  const Ipv4Addr a(10, 0, 0, 1), b(10, 0, 0, 2);
  host_site("a.com", a);
  host_site("b.com", b);
  add_telescope(a, 3, /*intensity=*/1.0);
  add_telescope(b, 4, /*intensity=*/99.0);  // far above mean
  dns_.build_reverse_index();
  const ImpactAnalysis impact(store(), dns_);
  EXPECT_DOUBLE_EQ(impact.affected_daily().at(3), 1.0);
  EXPECT_DOUBLE_EQ(impact.affected_daily_medium().at(3), 0.0);
  EXPECT_DOUBLE_EQ(impact.affected_daily_medium().at(4), 1.0);
}

TEST_F(ImpactTest, ProtocolEmphasisOnWebTargets) {
  const Ipv4Addr web(10, 0, 0, 1), non_web(10, 0, 0, 9);
  host_site("site.com", web);
  add_telescope(web, 3, 1.0, 80, 6);    // TCP web-port on web target
  add_telescope(web, 4, 1.0, 22, 6);    // TCP non-web-port
  add_telescope(non_web, 5, 1.0, 80, 6);  // ignored: no sites
  add_telescope(web, 6, 1.0, 27015, 17);  // UDP on web target
  add_honeypot(web, 7, 600.0, amppot::ReflectionProtocol::kNtp);
  add_honeypot(web, 8, 600.0, amppot::ReflectionProtocol::kDns);
  dns_.build_reverse_index();
  const ImpactAnalysis impact(store(), dns_);
  EXPECT_NEAR(impact.tcp_share_on_web_targets(), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(impact.web_port_share_on_web_targets(), 0.5, 1e-9);
  EXPECT_NEAR(impact.ntp_share_on_web_targets(), 0.5, 1e-9);
}

TEST_F(ImpactTest, DomainAttackInfoQueries) {
  DomainAttackInfo info;
  info.touches = {{10, 0.2f, 300.0f, false},
                  {20, 0.9f, 16000.0f, true},
                  {30, 0.1f, 20000.0f, true}};
  EXPECT_TRUE(info.attacked());
  EXPECT_EQ(info.first_attack_day(), 10);
  EXPECT_NEAR(info.max_norm_intensity(), 0.9, 1e-6);
  EXPECT_NEAR(info.max_honeypot_duration(), 20000.0, 1e-3);
  EXPECT_EQ(info.latest_attack_on_or_before(25), 20);
  EXPECT_EQ(info.latest_attack_on_or_before(9), -1);
  EXPECT_EQ(info.latest_attack_on_or_before(100), 30);
  EXPECT_EQ(info.latest_long_attack_on_or_before(100, 4 * 3600.0), 30);
  EXPECT_EQ(info.latest_long_attack_on_or_before(25, 4 * 3600.0), 20);
  EXPECT_EQ(info.latest_long_attack_on_or_before(15, 4 * 3600.0), -1);
}

TEST_F(ImpactTest, TopPeaksOrdering) {
  const Ipv4Addr shared(10, 0, 0, 1);
  for (int i = 0; i < 5; ++i) host_site("p" + std::to_string(i) + ".com", shared);
  host_site("solo.com", Ipv4Addr(10, 0, 0, 2));
  add_telescope(shared, 100);
  add_telescope(Ipv4Addr(10, 0, 0, 2), 200);
  dns_.build_reverse_index();
  const ImpactAnalysis impact(store(), dns_);
  const auto peaks = impact.top_peaks(2);
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_EQ(peaks[0].first, 100);
  EXPECT_DOUBLE_EQ(peaks[0].second, 5.0);
  EXPECT_EQ(peaks[1].first, 200);
}

TEST_F(ImpactTest, UnregisteredDomainsDontCount) {
  // A site that first appears on day 50 is not affected by a day-10 attack
  // on its (future) IP.
  const Ipv4Addr ip(10, 0, 0, 1);
  host_site("late.com", ip, /*day=*/50);
  add_telescope(ip, 10);
  dns_.build_reverse_index();
  const ImpactAnalysis impact(store(), dns_);
  EXPECT_EQ(impact.attacked_domains(), 0u);
  EXPECT_EQ(impact.web_domains(), 1u);
  EXPECT_DOUBLE_EQ(impact.affected_daily().at(10), 0.0);
}

}  // namespace
}  // namespace dosm::core
