// Attacker model tests: the generated ground truth must carry the paper's
// distributional shape.
#include <gtest/gtest.h>

#include <map>

#include "common/stats.h"
#include "core/ports.h"
#include "net/headers.h"
#include "sim/attacker.h"

namespace dosm::sim {
namespace {

class AttackerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new Rng(21);
    population_ = new Population(*rng_);
    providers_ = new dps::ProviderRegistry(dps::paper_providers());
    names_ = new dns::NameTable();
    window_ = new StudyWindow{{2015, 3, 1}, {2015, 8, 27}};  // 180 days
    store_ = new dns::SnapshotStore(window_->num_days());
    HostingConfig config;
    config.num_domains = 3000;
    hosting_ = new HostingEcosystem(*rng_, *population_, *providers_, *names_,
                                    *store_, config);
    AttackerConfig attacker_config;
    attacker_config.direct_per_day = 60;
    attacker_config.reflection_per_day = 45;
    Attacker attacker(99, *population_, *hosting_, *window_, attacker_config);
    attacks_ = new std::vector<GroundTruthAttack>(attacker.generate());
  }
  static void TearDownTestSuite() {
    delete attacks_;
    delete hosting_;
    delete store_;
    delete window_;
    delete names_;
    delete providers_;
    delete population_;
    delete rng_;
  }

  static Rng* rng_;
  static Population* population_;
  static dps::ProviderRegistry* providers_;
  static dns::NameTable* names_;
  static StudyWindow* window_;
  static dns::SnapshotStore* store_;
  static HostingEcosystem* hosting_;
  static std::vector<GroundTruthAttack>* attacks_;
};

Rng* AttackerTest::rng_ = nullptr;
Population* AttackerTest::population_ = nullptr;
dps::ProviderRegistry* AttackerTest::providers_ = nullptr;
dns::NameTable* AttackerTest::names_ = nullptr;
StudyWindow* AttackerTest::window_ = nullptr;
dns::SnapshotStore* AttackerTest::store_ = nullptr;
HostingEcosystem* AttackerTest::hosting_ = nullptr;
std::vector<GroundTruthAttack>* AttackerTest::attacks_ = nullptr;

TEST_F(AttackerTest, VolumeMatchesConfiguredRates) {
  // 180 days x ~105/day, modulated by growth/campaigns.
  EXPECT_GT(attacks_->size(), 12000u);
  EXPECT_LT(attacks_->size(), 30000u);
}

TEST_F(AttackerTest, OutputIsTimeSortedWithinWindow) {
  double prev = -1e18;
  for (const auto& attack : *attacks_) {
    EXPECT_GE(attack.start, prev);
    prev = attack.start;
    EXPECT_TRUE(window_->contains(static_cast<UnixSeconds>(attack.start)));
  }
}

TEST_F(AttackerTest, ProtocolMixMatchesTable5) {
  std::uint64_t tcp = 0, udp = 0, icmp = 0, other = 0, direct = 0;
  for (const auto& attack : *attacks_) {
    if (attack.kind != AttackKind::kDirect) continue;
    ++direct;
    switch (static_cast<net::IpProto>(attack.ip_proto)) {
      case net::IpProto::kTcp: ++tcp; break;
      case net::IpProto::kUdp: ++udp; break;
      case net::IpProto::kIcmp: ++icmp; break;
      default: ++other; break;
    }
  }
  ASSERT_GT(direct, 5000u);
  EXPECT_NEAR(double(tcp) / double(direct), 0.794, 0.03);
  EXPECT_NEAR(double(udp) / double(direct), 0.159, 0.03);
  EXPECT_NEAR(double(icmp) / double(direct), 0.045, 0.02);
  EXPECT_LT(double(other) / double(direct), 0.02);
}

TEST_F(AttackerTest, ReflectionMixMatchesTable6) {
  std::map<amppot::ReflectionProtocol, std::uint64_t> counts;
  std::uint64_t total = 0;
  for (const auto& attack : *attacks_) {
    if (attack.kind != AttackKind::kReflection) continue;
    ++counts[attack.reflector];
    ++total;
  }
  ASSERT_GT(total, 4000u);
  EXPECT_NEAR(double(counts[amppot::ReflectionProtocol::kNtp]) / double(total),
              0.42, 0.06);  // boosted slightly above .40 by web/joint skew
  EXPECT_GT(counts[amppot::ReflectionProtocol::kDns],
            counts[amppot::ReflectionProtocol::kCharGen] / 2);
  EXPECT_GT(counts[amppot::ReflectionProtocol::kCharGen],
            counts[amppot::ReflectionProtocol::kSsdp]);
}

TEST_F(AttackerTest, PortCardinalityMatchesTable7) {
  std::uint64_t single = 0, multi = 0;
  for (const auto& attack : *attacks_) {
    if (attack.kind != AttackKind::kDirect || attack.ports.empty()) continue;
    if (attack.ports.size() == 1) ++single; else ++multi;
  }
  EXPECT_NEAR(double(single) / double(single + multi), 0.62, 0.05);
}

TEST_F(AttackerTest, TcpServiceMixFavorsWeb) {
  std::uint64_t web = 0, total = 0;
  for (const auto& attack : *attacks_) {
    if (attack.kind != AttackKind::kDirect || attack.ports.size() != 1) continue;
    if (attack.ip_proto != static_cast<std::uint8_t>(net::IpProto::kTcp)) continue;
    ++total;
    if (core::is_web_port(attack.ports[0])) ++web;
  }
  ASSERT_GT(total, 1000u);
  // Paper: HTTP+HTTPS = 69.36% of single-port TCP attacks.
  EXPECT_NEAR(double(web) / double(total), 0.6936, 0.05);
}

TEST_F(AttackerTest, DurationsMatchPaperMedians) {
  EmpiricalDistribution direct, reflection;
  for (const auto& attack : *attacks_) {
    if (attack.kind == AttackKind::kDirect) direct.add(attack.duration_s);
    else reflection.add(attack.duration_s);
  }
  // Telescope: median 454 s; honeypot: median 255 s (order-of-magnitude
  // tolerances: the observation layer also shapes the measured values).
  EXPECT_GT(direct.median(), 200.0);
  EXPECT_LT(direct.median(), 900.0);
  EXPECT_GT(reflection.median(), 120.0);
  EXPECT_LT(reflection.median(), 500.0);
  EXPECT_GT(direct.mean(), direct.median());  // heavy right tail
}

TEST_F(AttackerTest, JointAttacksShareTargetAndOverlap) {
  std::uint64_t joint_reflections = 0;
  for (std::size_t i = 0; i < attacks_->size(); ++i) {
    const auto& attack = (*attacks_)[i];
    if (attack.kind != AttackKind::kReflection || !attack.joint) continue;
    ++joint_reflections;
    // A joint direct attack on the same target must overlap in time.
    bool found = false;
    for (const auto& other : *attacks_) {
      if (other.kind != AttackKind::kDirect || !other.joint) continue;
      if (other.target != attack.target) continue;
      const double a0 = attack.start, a1 = attack.start + attack.duration_s;
      const double b0 = other.start, b1 = other.start + other.duration_s;
      if (a0 <= b1 && b0 <= a1) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "reflection at " << attack.start;
  }
  EXPECT_GT(joint_reflections, 50u);
}

TEST_F(AttackerTest, RepeatTargetsExist) {
  std::map<std::uint32_t, int> per_target;
  for (const auto& attack : *attacks_) ++per_target[attack.target.value()];
  int repeated = 0;
  for (const auto& [target, count] : per_target)
    if (count > 1) ++repeated;
  EXPECT_GT(repeated, 500);
}

TEST_F(AttackerTest, IntensitiesAreHeavyTailed) {
  EmpiricalDistribution scope_pps;
  for (const auto& attack : *attacks_) {
    if (attack.kind == AttackKind::kDirect)
      scope_pps.add(attack.victim_pps / 256.0);
  }
  // Median around ~1 pps at the telescope, mean orders of magnitude higher.
  EXPECT_LT(scope_pps.median(), 5.0);
  EXPECT_GT(scope_pps.mean(), 10.0 * scope_pps.median());
}

TEST_F(AttackerTest, DeterministicForSameSeed) {
  AttackerConfig config;
  config.direct_per_day = 10;
  config.reflection_per_day = 5;
  const StudyWindow window{{2015, 3, 1}, {2015, 3, 30}};
  Attacker a(123, *population_, *hosting_, window, config);
  Attacker b(123, *population_, *hosting_, window, config);
  const auto va = a.generate();
  const auto vb = b.generate();
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(va[i].target, vb[i].target);
    EXPECT_DOUBLE_EQ(va[i].start, vb[i].start);
    EXPECT_DOUBLE_EQ(va[i].victim_pps, vb[i].victim_pps);
  }
}

}  // namespace
}  // namespace dosm::sim
