// Migration-determinant analysis tests (Figures 9-11, Table 9).
#include <gtest/gtest.h>

#include "core/migration_analysis.h"
#include "dps/classifier.h"

namespace dosm::core {
namespace {

using net::Ipv4Addr;

class MigrationAnalysisTest : public ::testing::Test {
 protected:
  MigrationAnalysisTest()
      : t0_(static_cast<double>(window_.start_time())),
        dns_(window_.num_days()),
        registry_(dps::paper_providers()),
        classifier_(registry_, names_) {}

  dns::DomainId make_site(const std::string& name, Ipv4Addr ip) {
    const auto id = dns_.add_domain(name, 0);
    dns::WebsiteRecord record;
    record.www_a = ip;
    dns_.record_change(id, 0, record);
    return id;
  }

  void migrate(dns::DomainId id, int day) {
    const auto provider = *registry_.find("CloudFlare");
    dns::WebsiteRecord record;
    record.www_cname =
        names_.intern("c" + std::to_string(id) + "." +
                      registry_.provider(provider).cname_suffix);
    record.www_a = registry_.provider(provider).prefixes.front().address_at(10);
    dns_.record_change(id, day, record);
  }

  void attack(Ipv4Addr target, int day, double intensity, bool honeypot = false,
              double duration_s = 600.0) {
    AttackEvent event;
    event.source = honeypot ? EventSource::kHoneypot : EventSource::kTelescope;
    event.target = target;
    event.start = t0_ + day * 86400.0 + 1000.0;
    event.end = event.start + duration_s;
    event.intensity = intensity;
    if (!honeypot) {
      event.ip_proto = 6;
      event.num_ports = 1;
      event.top_port = 80;
    } else {
      event.reflection = amppot::ReflectionProtocol::kNtp;
    }
    events_.push_back(event);
  }

  void finish() {
    dns_.build_reverse_index();
    impact_ = std::make_unique<ImpactAnalysis>(store(), dns_);
    timelines_ = dps::all_timelines(dns_, classifier_);
    analysis_ = std::make_unique<MigrationAnalysis>(*impact_, timelines_);
  }

  EventStore store() const { return EventStore(window_, events_); }

  StudyWindow window_{};
  double t0_;
  dns::NameTable names_;
  dns::SnapshotStore dns_;
  dps::ProviderRegistry registry_;
  dps::Classifier classifier_;
  std::vector<AttackEvent> events_;
  std::unique_ptr<ImpactAnalysis> impact_;
  std::vector<dps::ProtectionTimeline> timelines_;
  std::unique_ptr<MigrationAnalysis> analysis_;
};

TEST_F(MigrationAnalysisTest, CollectsMigrationCasesWithDelays) {
  const auto a = make_site("a.com", Ipv4Addr(10, 0, 0, 1));
  attack(Ipv4Addr(10, 0, 0, 1), 20, 5.0);
  migrate(a, 23);  // delay 3 days

  make_site("b.com", Ipv4Addr(10, 0, 0, 2));
  attack(Ipv4Addr(10, 0, 0, 2), 30, 1.0);  // attacked, never migrates

  finish();
  ASSERT_EQ(analysis_->cases().size(), 1u);
  const auto& mc = analysis_->cases()[0];
  EXPECT_EQ(mc.domain, a);
  EXPECT_EQ(mc.migration_day, 23);
  EXPECT_EQ(mc.trigger_attack_day, 20);
  EXPECT_EQ(mc.delay_days, 3);
  EXPECT_EQ(analysis_->attack_counts_all().size(), 2u);
  EXPECT_EQ(analysis_->attack_counts_migrating().size(), 1u);
}

TEST_F(MigrationAnalysisTest, TriggerIsLatestAttackBeforeMigration) {
  const auto a = make_site("a.com", Ipv4Addr(10, 0, 0, 1));
  attack(Ipv4Addr(10, 0, 0, 1), 10, 1.0);
  attack(Ipv4Addr(10, 0, 0, 1), 40, 2.0);
  migrate(a, 41);
  finish();
  ASSERT_EQ(analysis_->cases().size(), 1u);
  EXPECT_EQ(analysis_->cases()[0].trigger_attack_day, 40);
  EXPECT_EQ(analysis_->cases()[0].delay_days, 1);
}

TEST_F(MigrationAnalysisTest, PreexistingAndUnattackedAreExcluded) {
  // Preexisting: protected from day 0.
  const auto p = dns_.add_domain("pre.com", 0);
  dns::WebsiteRecord rec;
  const auto provider = *registry_.find("Akamai");
  rec.www_cname = names_.intern("x." + registry_.provider(provider).cname_suffix);
  rec.www_a = registry_.provider(provider).prefixes.front().address_at(10);
  dns_.record_change(p, 0, rec);
  attack(rec.www_a, 10, 1.0);
  // Unattacked migrator.
  const auto u = make_site("u.com", Ipv4Addr(10, 0, 0, 9));
  migrate(u, 50);
  finish();
  EXPECT_TRUE(analysis_->cases().empty());
}

TEST_F(MigrationAnalysisTest, IntensityClassesNarrowDelays) {
  // 20 weak-attacked sites with slow migration; 2 intense with fast.
  for (int i = 0; i < 20; ++i) {
    const auto ip = Ipv4Addr(10, 0, 1, static_cast<std::uint8_t>(i));
    const auto id = make_site("w" + std::to_string(i) + ".com", ip);
    attack(ip, 10, 1.0);
    migrate(id, 10 + 20 + i);  // 20+ day delays
  }
  for (int i = 0; i < 2; ++i) {
    const auto ip = Ipv4Addr(10, 0, 2, static_cast<std::uint8_t>(i));
    const auto id = make_site("s" + std::to_string(i) + ".com", ip);
    attack(ip, 10, 1000.0);  // top intensity
    // Next-day migration: a same-day DNS flip would hide the attack from
    // the day-granular join (the record already points at the DPS).
    migrate(id, 11);
  }
  finish();
  const auto all = analysis_->delays_for_intensity_class(1.0);
  const auto top = analysis_->delays_for_intensity_class(2.0 / 22.0);
  EXPECT_EQ(all.size(), 22u);
  EXPECT_EQ(top.size(), 2u);
  EXPECT_LT(MigrationAnalysis::fraction_within(all, 6), 0.2);
  EXPECT_DOUBLE_EQ(MigrationAnalysis::fraction_within(top, 1), 1.0);
}

TEST_F(MigrationAnalysisTest, LongAttackDelaysUseHoneypotDurations) {
  // Site hit by a >= 4h honeypot attack on day 30, migrates day 31.
  const auto a = make_site("long.com", Ipv4Addr(10, 0, 0, 1));
  attack(Ipv4Addr(10, 0, 0, 1), 30, 50.0, /*honeypot=*/true, 5 * 3600.0);
  migrate(a, 31);
  // Site hit only by a long TELESCOPE attack: excluded (telescope durations
  // are unreliable for successful attacks, §6).
  const auto b = make_site("tel.com", Ipv4Addr(10, 0, 0, 2));
  attack(Ipv4Addr(10, 0, 0, 2), 30, 50.0, /*honeypot=*/false, 6 * 3600.0);
  migrate(b, 31);
  // Site with a short honeypot attack: excluded from the long-attack CDF.
  const auto c = make_site("short.com", Ipv4Addr(10, 0, 0, 3));
  attack(Ipv4Addr(10, 0, 0, 3), 30, 50.0, /*honeypot=*/true, 600.0);
  migrate(c, 31);
  finish();
  EXPECT_EQ(analysis_->cases().size(), 3u);
  const auto delays = analysis_->delays_for_long_attacks();
  ASSERT_EQ(delays.size(), 1u);
  EXPECT_DOUBLE_EQ(MigrationAnalysis::fraction_within(delays, 1), 1.0);
}

TEST_F(MigrationAnalysisTest, SiteIntensityIsMaxOverTouches) {
  const auto ip = Ipv4Addr(10, 0, 0, 1);
  make_site("a.com", ip);
  attack(ip, 10, 2.0);
  attack(ip, 20, 8.0);
  attack(ip, 30, 4.0);
  finish();
  ASSERT_EQ(analysis_->site_intensities().size(), 1u);
  // Normalized against dataset max (8.0): the site's max is 1.0.
  EXPECT_DOUBLE_EQ(analysis_->site_intensities().max(), 1.0);
  EXPECT_EQ(analysis_->attack_counts_all().max(), 3.0);
}

}  // namespace
}  // namespace dosm::core
