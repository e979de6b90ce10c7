// Figure-8 taxonomy classification tests.
#include <gtest/gtest.h>

#include "core/taxonomy.h"
#include "dps/classifier.h"

namespace dosm::core {
namespace {

using net::Ipv4Addr;

class TaxonomyTest : public ::testing::Test {
 protected:
  TaxonomyTest()
      : t0_(static_cast<double>(window_.start_time())),
        dns_(window_.num_days()),
        registry_(dps::paper_providers()),
        classifier_(registry_, names_) {}

  dns::WebsiteRecord plain_record(Ipv4Addr ip) {
    dns::WebsiteRecord record;
    record.www_a = ip;
    return record;
  }

  dns::WebsiteRecord protected_record(const char* provider) {
    const auto id = *registry_.find(provider);
    dns::WebsiteRecord record;
    record.www_cname =
        names_.intern("cust." + registry_.provider(id).cname_suffix);
    record.www_a = registry_.provider(id).prefixes.front().address_at(10);
    return record;
  }

  void attack(Ipv4Addr target, int day) {
    AttackEvent event;
    event.source = EventSource::kTelescope;
    event.target = target;
    event.start = t0_ + day * 86400.0 + 1000.0;
    event.end = event.start + 300.0;
    event.intensity = 1.0;
    event.ip_proto = 6;
    event.num_ports = 1;
    event.top_port = 80;
    events_.push_back(event);
  }

  TaxonomyCounts run() {
    dns_.build_reverse_index();
    impact_ = std::make_unique<ImpactAnalysis>(store(), dns_);
    timelines_ = dps::all_timelines(dns_, classifier_);
    return classify_websites(*impact_, timelines_, dns_);
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
};

TEST_F(TaxonomyTest, ClassifiesAllEightLeaves) {
  // attacked + preexisting
  auto id = dns_.add_domain("ap.com", 0);
  dns_.record_change(id, 0, protected_record("Akamai"));
  // Attack the provider's front IP so the protected site is "attacked".
  attack(protected_record("Akamai").www_a, 10);

  // attacked + migrating (attack day 20, protection day 25)
  id = dns_.add_domain("am.com", 0);
  dns_.record_change(id, 0, plain_record(Ipv4Addr(10, 0, 0, 2)));
  dns_.record_change(id, 25, protected_record("Incapsula"));
  attack(Ipv4Addr(10, 0, 0, 2), 20);

  // attacked + non-migrating
  id = dns_.add_domain("an.com", 0);
  dns_.record_change(id, 0, plain_record(Ipv4Addr(10, 0, 0, 3)));
  attack(Ipv4Addr(10, 0, 0, 3), 30);

  // not attacked + preexisting
  id = dns_.add_domain("np.com", 0);
  dns_.record_change(id, 0, protected_record("Verisign"));

  // not attacked + migrating
  id = dns_.add_domain("nm.com", 0);
  dns_.record_change(id, 0, plain_record(Ipv4Addr(10, 0, 0, 5)));
  dns_.record_change(id, 40, protected_record("CloudFlare"));

  // not attacked + non-migrating
  id = dns_.add_domain("nn.com", 0);
  dns_.record_change(id, 0, plain_record(Ipv4Addr(10, 0, 0, 6)));

  // non-website domain: excluded from the tree entirely
  dns_.add_domain("noweb.com", 0);

  const auto counts = run();
  EXPECT_EQ(counts.total, 6u);
  EXPECT_EQ(counts.attacked, 3u);
  EXPECT_EQ(counts.attacked_preexisting, 1u);
  EXPECT_EQ(counts.attacked_migrating, 1u);
  EXPECT_EQ(counts.attacked_non_migrating, 1u);
  EXPECT_EQ(counts.not_attacked, 3u);
  EXPECT_EQ(counts.not_attacked_preexisting, 1u);
  EXPECT_EQ(counts.not_attacked_migrating, 1u);
  EXPECT_EQ(counts.not_attacked_non_migrating, 1u);
  EXPECT_NEAR(counts.protected_share_attacked(), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(counts.protected_share_not_attacked(), 2.0 / 3.0, 1e-9);
}

TEST_F(TaxonomyTest, MigrationBeforeAttackIsNotPostAttackMigration) {
  // Site protects on day 10, first attack observed day 50 (on its old IP,
  // where it no longer resolves -> actually attack its new provider IP to
  // make it "attacked").
  const auto id = dns_.add_domain("early.com", 0);
  dns_.record_change(id, 0, plain_record(Ipv4Addr(10, 0, 0, 1)));
  const auto rec = protected_record("Neustar");
  dns_.record_change(id, 10, rec);
  attack(rec.www_a, 50);
  const auto counts = run();
  EXPECT_EQ(counts.attacked, 1u);
  // first_protected_day (10) < first_attack_day (50): not migrating.
  EXPECT_EQ(counts.attacked_migrating, 0u);
  EXPECT_EQ(counts.attacked_non_migrating, 1u);
}

TEST_F(TaxonomyTest, SameDayMigrationCountsAsMigrating) {
  const auto id = dns_.add_domain("fast.com", 0);
  dns_.record_change(id, 0, plain_record(Ipv4Addr(10, 0, 0, 1)));
  dns_.record_change(id, 20, protected_record("F5"));
  attack(Ipv4Addr(10, 0, 0, 1), 20);
  const auto counts = run();
  // The attack on day 20 hits the IP before the record flips? Both changes
  // are day-20; the site's record that day is the protected one, so the
  // attack does not associate... but the attack targets the ORIGIN IP on
  // the same day the migration lands. sites_on uses the day's final record,
  // so the site is NOT attacked here.
  EXPECT_EQ(counts.attacked, 0u);
  EXPECT_EQ(counts.not_attacked_migrating, 1u);
}

TEST_F(TaxonomyTest, CensusCrossTabulatesGroupAndClass) {
  // Two sites share one IP (bin 1: 1<n<=10); one preexisting single (bin 0).
  const Ipv4Addr shared(10, 0, 0, 1);
  auto a = dns_.add_domain("shared-a.com", 0);
  dns_.record_change(a, 0, plain_record(shared));
  auto b = dns_.add_domain("shared-b.com", 0);
  dns_.record_change(b, 0, plain_record(shared));
  dns_.record_change(b, 30, protected_record("CloudFlare"));  // migrates
  const auto rec = protected_record("Akamai");
  auto c = dns_.add_domain("pre.com", 0);
  dns_.record_change(c, 0, rec);
  attack(shared, 20);
  attack(rec.www_a, 20);

  dns_.build_reverse_index();
  impact_ = std::make_unique<ImpactAnalysis>(store(), dns_);
  timelines_ = dps::all_timelines(dns_, classifier_);
  const auto census =
      core::census_attacked_sites(*impact_, timelines_, dns_);

  // shared-a: bin 1, non-migrating; shared-b: bin 1, migrating.
  EXPECT_EQ(census.cell(1, CustomerClass::kNonMigrating).count, 1u);
  EXPECT_EQ(census.cell(1, CustomerClass::kMigrating).count, 1u);
  ASSERT_EQ(census.cell(1, CustomerClass::kMigrating).examples.size(), 1u);
  EXPECT_EQ(census.cell(1, CustomerClass::kMigrating).examples[0],
            "shared-b.com");
  // pre.com sits alone on the Akamai front: bin 0, preexisting.
  EXPECT_EQ(census.cell(0, CustomerClass::kPreexisting).count, 1u);
  EXPECT_EQ(to_string(CustomerClass::kPreexisting), "preexisting");
}

TEST_F(TaxonomyTest, RenderProducesTree) {
  TaxonomyCounts counts;
  counts.total = 210;
  counts.attacked = 134;
  counts.attacked_preexisting = 25;
  counts.attacked_migrating = 5;
  counts.attacked_non_migrating = 104;
  counts.not_attacked = 76;
  counts.not_attacked_preexisting = 1;
  counts.not_attacked_migrating = 2;
  counts.not_attacked_non_migrating = 73;
  const auto text = render_taxonomy(counts);
  EXPECT_NE(text.find("Attack Observed: 134"), std::string::npos);
  EXPECT_NE(text.find("No Attack Observed: 76"), std::string::npos);
  EXPECT_NE(text.find("Migrating: 5"), std::string::npos);
}

}  // namespace
}  // namespace dosm::core
