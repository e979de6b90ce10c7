// Port/service mapping and Table 5-8 distribution tests.
#include <gtest/gtest.h>

#include "core/ports.h"

namespace dosm::core {
namespace {

using net::Ipv4Addr;


TEST(ServiceName, KnownMappings) {
  EXPECT_EQ(service_name(80, true), "HTTP");
  EXPECT_EQ(service_name(443, true), "HTTPS");
  EXPECT_EQ(service_name(3306, true), "MySQL");
  EXPECT_EQ(service_name(53, true), "DNS");
  EXPECT_EQ(service_name(1723, true), "VPN PPTP");
  EXPECT_EQ(service_name(123, false), "NTP");
  EXPECT_EQ(service_name(123, true), "123");  // NTP is UDP-only
  EXPECT_EQ(service_name(138, false), "NetBIOS");
  EXPECT_EQ(service_name(27015, false), "27015");  // game ports stay numeric
}

TEST(WebPort, Only80And443) {
  EXPECT_TRUE(is_web_port(80));
  EXPECT_TRUE(is_web_port(443));
  EXPECT_FALSE(is_web_port(8080));
  EXPECT_FALSE(is_web_port(0));
}

class DistributionTest : public ::testing::Test {
 protected:
  DistributionTest() : t0_(static_cast<double>(window_.start_time())) {}

  void add_telescope(std::uint8_t proto, std::vector<std::uint16_t> ports) {
    AttackEvent event;
    event.source = EventSource::kTelescope;
    event.target = Ipv4Addr(10, 0, 0, next_++);
    event.start = t0_ + next_ * 100.0;
    event.end = event.start + 100.0;
    event.intensity = 1.0;
    event.ip_proto = proto;
    event.num_ports = static_cast<std::uint16_t>(ports.size());
    event.top_port = ports.empty() ? 0 : ports[0];
    events_.push_back(event);
  }

  void add_honeypot(amppot::ReflectionProtocol protocol) {
    AttackEvent event;
    event.source = EventSource::kHoneypot;
    event.target = Ipv4Addr(20, 0, 0, next_++);
    event.start = t0_ + next_ * 100.0;
    event.end = event.start + 100.0;
    event.intensity = 10.0;
    event.reflection = protocol;
    events_.push_back(event);
  }

  EventStore store() const { return EventStore(window_, events_); }

  StudyWindow window_{};
  double t0_;
  std::vector<AttackEvent> events_;
  std::uint8_t next_ = 1;
};

TEST_F(DistributionTest, IpProtocolSharesSumToOne) {
  for (int i = 0; i < 8; ++i) add_telescope(6, {80});
  add_telescope(17, {27015});
  add_telescope(1, {});
  add_honeypot(amppot::ReflectionProtocol::kNtp);  // must not count
  const auto rows = ip_protocol_distribution(store());
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].label, "TCP");
  EXPECT_EQ(rows[0].events, 8u);
  EXPECT_DOUBLE_EQ(rows[0].share, 0.8);
  EXPECT_DOUBLE_EQ(rows[1].share + rows[2].share + rows[3].share, 0.2);
}

TEST_F(DistributionTest, ReflectionDistributionRanksAndFoldsOther) {
  for (int i = 0; i < 5; ++i) add_honeypot(amppot::ReflectionProtocol::kNtp);
  for (int i = 0; i < 3; ++i) add_honeypot(amppot::ReflectionProtocol::kDns);
  add_honeypot(amppot::ReflectionProtocol::kCharGen);
  add_honeypot(amppot::ReflectionProtocol::kSsdp);
  add_honeypot(amppot::ReflectionProtocol::kRipv1);
  add_honeypot(amppot::ReflectionProtocol::kTftp);   // 6th: folds to Other
  add_honeypot(amppot::ReflectionProtocol::kMssql);  // 7th: folds to Other
  const auto rows = reflection_distribution(store());
  ASSERT_EQ(rows.size(), 6u);  // top 5 + Other
  EXPECT_EQ(rows[0].label, "NTP");
  EXPECT_EQ(rows[0].events, 5u);
  EXPECT_EQ(rows.back().label, "Other");
  EXPECT_EQ(rows.back().events, 2u);
  double total_share = 0.0;
  for (const auto& row : rows) total_share += row.share;
  EXPECT_NEAR(total_share, 1.0, 1e-9);
}

TEST_F(DistributionTest, PortCardinalitySplit) {
  add_telescope(6, {80});
  add_telescope(6, {80, 443});
  add_telescope(6, {80, 443, 8080});
  add_telescope(1, {});  // portless: excluded from the split
  const auto split = port_cardinality(store().events());
  EXPECT_EQ(split.single_port, 1u);
  EXPECT_EQ(split.multi_port, 2u);
  EXPECT_EQ(split.total(), 3u);
  EXPECT_NEAR(split.single_share(), 1.0 / 3.0, 1e-9);
}

TEST_F(DistributionTest, ServiceDistributionTopN) {
  for (int i = 0; i < 6; ++i) add_telescope(6, {80});
  for (int i = 0; i < 3; ++i) add_telescope(6, {443});
  add_telescope(6, {3306});
  add_telescope(6, {3306});
  add_telescope(6, {22});
  add_telescope(6, {25});
  add_telescope(6, {80, 443});  // multi-port: excluded
  add_telescope(17, {27015});   // UDP: excluded from the TCP table
  const auto rows = service_distribution(store().events(), /*tcp=*/true, 3);
  ASSERT_EQ(rows.size(), 4u);  // top 3 + Other
  EXPECT_EQ(rows[0].label, "HTTP");
  EXPECT_EQ(rows[0].events, 6u);
  EXPECT_EQ(rows[1].label, "HTTPS");
  EXPECT_EQ(rows[2].label, "MySQL");
  EXPECT_EQ(rows[2].events, 2u);
  EXPECT_EQ(rows[3].label, "Other");
  EXPECT_EQ(rows[3].events, 2u);
  EXPECT_NEAR(rows[0].share, 6.0 / 13.0, 1e-9);  // 6 of 13 single-port TCP
}

TEST_F(DistributionTest, UdpServiceDistribution) {
  for (int i = 0; i < 4; ++i) add_telescope(17, {27015});
  add_telescope(17, {3306});
  const auto rows = service_distribution(store().events(), /*tcp=*/false, 5);
  EXPECT_EQ(rows[0].label, "27015");
  EXPECT_EQ(rows[0].events, 4u);
}

TEST_F(DistributionTest, WebPortShare) {
  for (int i = 0; i < 7; ++i) add_telescope(6, {80});
  for (int i = 0; i < 2; ++i) add_telescope(6, {443});
  add_telescope(6, {22});
  EXPECT_DOUBLE_EQ(web_port_share(store().events()), 0.9);
}

TEST_F(DistributionTest, EmptyStoreYieldsZeroShares) {
  const auto rows = ip_protocol_distribution(store());
  for (const auto& row : rows) EXPECT_DOUBLE_EQ(row.share, 0.0);
  EXPECT_DOUBLE_EQ(web_port_share(store().events()), 0.0);
  const auto split = port_cardinality(store().events());
  EXPECT_EQ(split.total(), 0u);
  EXPECT_DOUBLE_EQ(split.single_share(), 0.0);
}

}  // namespace
}  // namespace dosm::core
