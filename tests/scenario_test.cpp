// End-to-end scenario tests: a small world must be buildable,
// deterministic, and produce events in both datasets with sane invariants.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/ports.h"
#include "dps/classifier.h"
#include "query/snapshot.h"
#include "sim/scenario.h"

namespace dosm {
namespace {

class ScenarioTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = sim::build_world(sim::ScenarioConfig::small()).release();
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static sim::World* world_;
};

sim::World* ScenarioTest::world_ = nullptr;

std::size_t count_source(const sim::World& world, core::EventSource source) {
  const auto events = world.store.events();
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [&](const auto& event) { return event.source == source; }));
}

TEST_F(ScenarioTest, ProducesEventsInBothDatasets) {
  EXPECT_GT(count_source(*world_, core::EventSource::kTelescope), 100u);
  EXPECT_GT(count_source(*world_, core::EventSource::kHoneypot), 100u);
}

TEST_F(ScenarioTest, EventsRespectDetectionThresholds) {
  // Checked on the fused events: intensity holds the telescope's max pps,
  // packets the honeypots' request count.
  const auto& thresholds = world_->config.observation.telescope_thresholds;
  const auto& honeypots = world_->config.observation.amppot_config;
  for (const auto& event : world_->store.events()) {
    if (event.is_telescope()) {
      EXPECT_GE(event.packets, thresholds.min_packets);
      EXPECT_GE(event.duration(), thresholds.min_duration_s);
      EXPECT_GE(event.intensity, thresholds.min_max_pps);
    } else {
      EXPECT_GT(event.packets, honeypots.min_requests);
      EXPECT_LE(event.duration(), honeypots.max_duration_s + 1.0);
    }
  }
}

TEST_F(ScenarioTest, SummariesAreConsistent) {
  const auto snapshot = query::Snapshot::build(
      world_->store.window(), world_->store.events(),
      {world_->population.pfx2as(), world_->population.geo()});
  using enum core::SourceFilter;
  using enum query::DistinctKey;
  const auto events = [&](core::SourceFilter filter) {
    return snapshot->count(query::Query{}.from_source(filter));
  };
  const auto distinct = [&](core::SourceFilter filter,
                            query::DistinctKey key = kTarget) {
    return snapshot->distinct(query::Query{}.from_source(filter), key);
  };
  EXPECT_EQ(events(kCombined), events(kTelescope) + events(kHoneypot));
  // Unique targets are sub-additive (overlap between datasets).
  EXPECT_LE(distinct(kCombined), distinct(kTelescope) + distinct(kHoneypot));
  EXPECT_GE(distinct(kCombined),
            std::max(distinct(kTelescope), distinct(kHoneypot)));
  // Rollup hierarchy: targets >= /24s >= /16s >= ASNs is not guaranteed in
  // general, but targets >= /24s >= /16s is.
  EXPECT_GE(distinct(kCombined), distinct(kCombined, kSlash24));
  EXPECT_GE(distinct(kCombined, kSlash24), distinct(kCombined, kSlash16));
  EXPECT_GT(distinct(kCombined, kAsn), 0u);
}

TEST_F(ScenarioTest, TcpDominatesSpoofedAttacks) {
  const auto rows = core::ip_protocol_distribution(world_->store);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].label, "TCP");
  EXPECT_GT(rows[0].share, 0.6);  // paper: 79.4%
  EXPECT_GT(rows[1].share, rows[2].share * 0.5);  // UDP > ICMP roughly
}

TEST_F(ScenarioTest, NtpLeadsReflectionVectors) {
  const auto rows = core::reflection_distribution(world_->store);
  ASSERT_GE(rows.size(), 2u);
  EXPECT_EQ(rows[0].label, "NTP");
  EXPECT_GT(rows[0].share, 0.30);  // paper: 40.08%
}

TEST_F(ScenarioTest, DeterministicAcrossRebuilds) {
  const auto again = sim::build_world(sim::ScenarioConfig::small());
  EXPECT_EQ(again->truth.size(), world_->truth.size());
  EXPECT_EQ(again->store.size(), world_->store.size());
  EXPECT_EQ(count_source(*again, core::EventSource::kTelescope),
            count_source(*world_, core::EventSource::kTelescope));
  EXPECT_EQ(again->migrations.size(), world_->migrations.size());
  ASSERT_FALSE(again->truth.empty());
  EXPECT_EQ(again->truth.front().target, world_->truth.front().target);
  EXPECT_DOUBLE_EQ(again->truth.front().start, world_->truth.front().start);
}

TEST_F(ScenarioTest, MigrationsAreDetectableInDns) {
  // Every applied migration must be re-detectable via the DPS classifier.
  const dps::Classifier classifier(world_->providers, world_->names);
  std::size_t checked = 0;
  for (const auto& migration : world_->migrations) {
    const auto record =
        world_->dns.record_on(migration.domain, migration.migration_day);
    ASSERT_TRUE(record.has_value());
    const auto provider = classifier.classify(*record);
    ASSERT_TRUE(provider.has_value());
    EXPECT_EQ(*provider, migration.provider);
    if (++checked > 200) break;  // sample is enough
  }
  EXPECT_GT(world_->migrations.size(), 0u);
}

}  // namespace
}  // namespace dosm
