// Mail-infrastructure impact tests (§8 extension).
#include <gtest/gtest.h>

#include "core/mail_impact.h"

namespace dosm::core {
namespace {

using net::Ipv4Addr;

class MailImpactTest : public ::testing::Test {
 protected:
  MailImpactTest()
      : t0_(static_cast<double>(window_.start_time())),
        dns_(window_.num_days()) {}

  dns::DomainId domain_with_mail(const std::string& name, Ipv4Addr web,
                                 Ipv4Addr mx, int day = 0) {
    const auto id = dns_.add_domain(name, day);
    dns::WebsiteRecord record;
    record.www_a = web;
    record.mx = names_.intern("mx." + name);
    record.mx_a = mx;
    dns_.record_change(id, day, record);
    return id;
  }

  void attack(Ipv4Addr target, int day) {
    AttackEvent event;
    event.source = EventSource::kTelescope;
    event.target = target;
    event.start = t0_ + day * 86400.0 + 1000.0;
    event.end = event.start + 600.0;
    event.intensity = 1.0;
    event.ip_proto = 6;
    events_.push_back(event);
  }

  EventStore store() const { return EventStore(window_, events_); }

  StudyWindow window_{};
  double t0_;
  dns::NameTable names_;
  dns::SnapshotStore dns_;
  std::vector<AttackEvent> events_;
};

TEST_F(MailImpactTest, JoinsAttacksAgainstMxHosts) {
  const Ipv4Addr shared_mx(10, 0, 0, 9);
  domain_with_mail("a.com", Ipv4Addr(10, 0, 0, 1), shared_mx);
  domain_with_mail("b.com", Ipv4Addr(10, 0, 0, 2), shared_mx);
  // A domain whose mail lives elsewhere.
  domain_with_mail("c.com", Ipv4Addr(10, 0, 0, 3), Ipv4Addr(10, 0, 0, 10));
  // A domain without mail at all.
  const auto d = dns_.add_domain("d.com", 0);
  dns::WebsiteRecord record;
  record.www_a = Ipv4Addr(10, 0, 0, 4);
  dns_.record_change(d, 0, record);

  attack(shared_mx, 5);  // hits the shared exchanger
  attack(Ipv4Addr(10, 0, 0, 4), 6);  // web IP of d.com: no mail there
  dns_.build_reverse_index();

  const MailImpactAnalysis mail(store(), dns_);
  EXPECT_EQ(mail.mail_domains(), 3u);
  EXPECT_EQ(mail.affected_domains(), 2u);
  EXPECT_DOUBLE_EQ(mail.affected_daily().at(5), 2.0);
  EXPECT_DOUBLE_EQ(mail.affected_daily().at(6), 0.0);
  EXPECT_EQ(mail.mail_hosting_targets(), 1u);
  EXPECT_NEAR(mail.affected_fraction(), 2.0 / 3.0, 1e-9);
}

TEST_F(MailImpactTest, TopMailTargetsRankedByInvolvements) {
  const Ipv4Addr big_mx(10, 0, 0, 9), small_mx(10, 0, 0, 10);
  for (int i = 0; i < 5; ++i)
    domain_with_mail("big" + std::to_string(i) + ".com",
                     Ipv4Addr(10, 0, 1, static_cast<std::uint8_t>(i)), big_mx);
  domain_with_mail("small.com", Ipv4Addr(10, 0, 2, 1), small_mx);
  attack(big_mx, 3);
  attack(big_mx, 9);   // repeat: involvements accumulate
  attack(small_mx, 4);
  dns_.build_reverse_index();

  const MailImpactAnalysis mail(store(), dns_);
  const auto top = mail.top_mail_targets(5);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, big_mx);
  EXPECT_EQ(top[0].second, 10u);  // 5 domains x 2 attacks
  EXPECT_EQ(top[1].second, 1u);
}

TEST_F(MailImpactTest, HistoricalMxMappingRespected) {
  const Ipv4Addr old_mx(10, 0, 0, 9), new_mx(10, 0, 0, 10);
  const auto id = domain_with_mail("mover.com", Ipv4Addr(10, 0, 1, 1), old_mx);
  dns::WebsiteRecord moved;
  moved.www_a = Ipv4Addr(10, 0, 1, 1);
  moved.mx = names_.intern("mx2.mover.com");
  moved.mx_a = new_mx;
  dns_.record_change(id, 20, moved);

  attack(old_mx, 30);  // after the move: no longer affects mover.com
  attack(new_mx, 40);
  dns_.build_reverse_index();
  const MailImpactAnalysis mail(store(), dns_);
  EXPECT_DOUBLE_EQ(mail.affected_daily().at(30), 0.0);
  EXPECT_DOUBLE_EQ(mail.affected_daily().at(40), 1.0);
}

TEST_F(MailImpactTest, EmptyWorldIsClean) {
  dns_.build_reverse_index();
  const MailImpactAnalysis mail(store(), dns_);
  EXPECT_EQ(mail.mail_domains(), 0u);
  EXPECT_EQ(mail.affected_domains(), 0u);
  EXPECT_DOUBLE_EQ(mail.affected_fraction(), 0.0);
  EXPECT_TRUE(mail.top_mail_targets(3).empty());
}

TEST(MailDns, ReverseMailIndexBasics) {
  dns::SnapshotStore store(50);
  dns::NameTable names;
  const auto id = store.add_domain("x.com", 0);
  dns::WebsiteRecord record;
  record.www_a = Ipv4Addr(1, 1, 1, 1);
  record.mx = names.intern("mx.x.com");
  record.mx_a = Ipv4Addr(2, 2, 2, 2);
  store.record_change(id, 0, record);
  EXPECT_THROW(store.mail_domains_on(Ipv4Addr(2, 2, 2, 2), 0), std::logic_error);
  store.build_reverse_index();
  EXPECT_EQ(store.mail_domains_on(Ipv4Addr(2, 2, 2, 2), 10).size(), 1u);
  EXPECT_EQ(store.count_mail_domains_on(Ipv4Addr(2, 2, 2, 2), 10), 1u);
  EXPECT_TRUE(store.mail_domains_on(Ipv4Addr(1, 1, 1, 1), 10).empty());
}

// Regression: the involvement ranking used std::sort (unstable) with a
// count-only comparator; once the input exceeds the introsort threshold,
// tied addresses came back in a scrambled order that differed from the
// map-ordered input. Ties must break by ascending address.
TEST_F(MailImpactTest, TopMailTargetsTieBreakByAddress) {
  // 24 exchangers, one domain and one attack each: all tied at count 1,
  // comfortably above the 16-element insertion-sort cutoff.
  for (int i = 0; i < 24; ++i) {
    const auto o = static_cast<std::uint8_t>(i);
    domain_with_mail("tied" + std::to_string(i) + ".com",
                     Ipv4Addr(10, 0, 1, o), Ipv4Addr(10, 0, 3, o));
  }
  for (int i = 0; i < 24; ++i)
    attack(Ipv4Addr(10, 0, 3, static_cast<std::uint8_t>(i)), 2);
  dns_.build_reverse_index();

  const MailImpactAnalysis mail(store(), dns_);
  const auto top = mail.top_mail_targets(24);
  ASSERT_EQ(top.size(), 24u);
  for (int i = 0; i < 24; ++i) {
    EXPECT_EQ(top[static_cast<std::size_t>(i)].first,
              Ipv4Addr(10, 0, 3, static_cast<std::uint8_t>(i)));
    EXPECT_EQ(top[static_cast<std::size_t>(i)].second, 1u);
  }
}

}  // namespace
}  // namespace dosm::core
