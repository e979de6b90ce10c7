// AmpPot honeypot tests: protocol registry, reply rate limiter, and the
// two-stage event consolidator.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "amppot/consolidator.h"
#include "amppot/honeypot.h"
#include "amppot/protocols.h"
#include "common/rng.h"
#include "common/sanitize.h"

namespace dosm::amppot {
namespace {

using net::Ipv4Addr;

TEST(Protocols, AllEightEmulatedProtocolsPresent) {
  const auto protocols = all_protocols();
  EXPECT_EQ(protocols.size(), kNumReflectionProtocols);
  // The paper's footnote list.
  for (const char* name :
       {"QOTD", "CharGen", "DNS", "NTP", "SSDP", "MSSQL", "RIPv1", "TFTP"}) {
    bool found = false;
    for (const auto& info : protocols) found |= info.name == name;
    EXPECT_TRUE(found) << name;
  }
}

TEST(Protocols, WellKnownPorts) {
  EXPECT_EQ(protocol_info(ReflectionProtocol::kNtp).udp_port, 123);
  EXPECT_EQ(protocol_info(ReflectionProtocol::kDns).udp_port, 53);
  EXPECT_EQ(protocol_info(ReflectionProtocol::kCharGen).udp_port, 19);
  EXPECT_EQ(protocol_info(ReflectionProtocol::kSsdp).udp_port, 1900);
  EXPECT_EQ(protocol_for_port(123), ReflectionProtocol::kNtp);
  EXPECT_EQ(protocol_for_port(520), ReflectionProtocol::kRipv1);
  EXPECT_FALSE(protocol_for_port(80).has_value());
}

TEST(Protocols, NtpHasHighestAmplification) {
  // NTP monlist has the largest BAF among the emulated set; that drives its
  // popularity with attackers (Table 6).
  const double ntp = protocol_info(ReflectionProtocol::kNtp).amplification;
  for (const auto& info : all_protocols()) {
    if (info.protocol != ReflectionProtocol::kNtp) {
      EXPECT_GT(ntp, info.amplification);
    }
  }
}

TEST(Protocols, ToStringRoundTrip) {
  EXPECT_EQ(to_string(ReflectionProtocol::kCharGen), "CharGen");
  EXPECT_EQ(to_string(ReflectionProtocol::kOther), "Other");
}

TEST(RateLimiter, AllowsFewerThanThreePerMinute) {
  ReplyRateLimiter limiter;  // default: <3 per minute
  const Ipv4Addr src(1, 2, 3, 4);
  EXPECT_TRUE(limiter.on_packet(0.0, src));
  EXPECT_TRUE(limiter.on_packet(1.0, src));
  EXPECT_FALSE(limiter.on_packet(2.0, src));  // third packet in the minute
  EXPECT_FALSE(limiter.on_packet(30.0, src));
  // A new minute resets the window.
  EXPECT_TRUE(limiter.on_packet(61.0, src));
}

TEST(RateLimiter, TracksSourcesIndependently) {
  ReplyRateLimiter limiter;
  const Ipv4Addr a(1, 1, 1, 1), b(2, 2, 2, 2);
  EXPECT_TRUE(limiter.on_packet(0.0, a));
  EXPECT_TRUE(limiter.on_packet(0.0, a));
  EXPECT_FALSE(limiter.on_packet(0.1, a));
  EXPECT_TRUE(limiter.on_packet(0.2, b));  // b unaffected by a's flood
  EXPECT_EQ(limiter.tracked_sources(), 2u);
}

TEST(RateLimiter, CompactDropsIdleSources) {
  ReplyRateLimiter limiter;
  limiter.on_packet(0.0, Ipv4Addr(1, 1, 1, 1));
  limiter.on_packet(100.0, Ipv4Addr(2, 2, 2, 2));
  limiter.compact(180.0);  // first source idle 180 s > 120 s, second only 80 s
  EXPECT_EQ(limiter.tracked_sources(), 1u);
  limiter.compact(500.0);
  EXPECT_EQ(limiter.tracked_sources(), 0u);
}

TEST(Honeypot, NonHarmProperty) {
  // The honeypot must reply to at most 2 of any source's packets per
  // minute, regardless of the attack rate — the design constraint that
  // keeps AmpPot from contributing attack bandwidth.
  Honeypot honeypot(0, Ipv4Addr(198, 51, 100, 10), meta::CountryCode("US"));
  const Ipv4Addr victim(9, 9, 9, 9);
  for (int i = 0; i < 6000; ++i) {
    RequestRecord req{i * 0.01, victim, ReflectionProtocol::kNtp, 8};
    honeypot.receive(req);
  }
  EXPECT_EQ(honeypot.requests_received(), 6000u);
  // 6000 packets over 60 s = 1 minute window: at most 2 replies per window,
  // windows restart when a minute elapses -> tiny number of replies.
  EXPECT_LE(honeypot.replies_sent(), 4u);
}

TEST(Honeypot, ClearLogKeepsCounters) {
  Honeypot honeypot(1, Ipv4Addr(198, 51, 100, 11), meta::CountryCode("DE"));
  honeypot.receive({0.0, Ipv4Addr(1, 1, 1, 1), ReflectionProtocol::kDns, 64});
  honeypot.clear_log();
  EXPECT_TRUE(honeypot.log().empty());
  EXPECT_EQ(honeypot.requests_received(), 1u);
}

std::vector<RequestRecord> flood(Ipv4Addr victim, ReflectionProtocol protocol,
                                 double start, double end, double rps) {
  std::vector<RequestRecord> log;
  for (double t = start; t < end; t += 1.0 / rps)
    log.push_back({t, victim, protocol, 8});
  return log;
}

TEST(Consolidator, ThresholdOf100RequestsIsExclusive) {
  const Ipv4Addr victim(9, 9, 9, 9);
  // Exactly 100 requests: NOT an event ("exceeding 100 requests").
  auto log = flood(victim, ReflectionProtocol::kNtp, 0.0, 100.0, 1.0);
  ASSERT_EQ(log.size(), 100u);
  EXPECT_TRUE(consolidate_log(log).empty());
  // 101 requests: an event.
  log.push_back({100.0, victim, ReflectionProtocol::kNtp, 8});
  const auto events = consolidate_log(log);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].requests, 101u);
  EXPECT_EQ(events[0].victim, victim);
}

TEST(Consolidator, GapSplitsSessions) {
  const Ipv4Addr victim(9, 9, 9, 9);
  auto log = flood(victim, ReflectionProtocol::kDns, 0.0, 60.0, 3.0);
  auto second = flood(victim, ReflectionProtocol::kDns, 7200.0, 7260.0, 3.0);
  log.insert(log.end(), second.begin(), second.end());
  ConsolidatorConfig config;
  config.min_requests = 100;
  config.gap_timeout_s = 3600.0;
  const auto events = consolidate_log(log, config);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_LT(events[0].end, events[1].start);
}

TEST(Consolidator, SeparatesProtocolsAndVictims) {
  const Ipv4Addr v1(1, 1, 1, 1), v2(2, 2, 2, 2);
  auto log = flood(v1, ReflectionProtocol::kNtp, 0.0, 120.0, 2.0);
  auto l2 = flood(v1, ReflectionProtocol::kDns, 0.0, 120.0, 2.0);
  auto l3 = flood(v2, ReflectionProtocol::kNtp, 0.0, 120.0, 2.0);
  log.insert(log.end(), l2.begin(), l2.end());
  log.insert(log.end(), l3.begin(), l3.end());
  std::sort(log.begin(), log.end(),
            [](const RequestRecord& a, const RequestRecord& b) { return a.ts < b.ts; });
  const auto events = consolidate_log(log);
  EXPECT_EQ(events.size(), 3u);
}

TEST(Consolidator, CapsEventsAt24Hours) {
  const Ipv4Addr victim(9, 9, 9, 9);
  // 25 hours of steady requests; must split at the 24 h cap.
  const auto log = flood(victim, ReflectionProtocol::kNtp, 0.0, 25.0 * 3600.0, 0.1);
  const auto events = consolidate_log(log);
  ASSERT_GE(events.size(), 1u);
  for (const auto& event : events)
    EXPECT_LE(event.duration(), 24.0 * 3600.0 + 1.0);
}

TEST(Consolidator, AvgRpsIsPerReflector) {
  AmpPotEvent event;
  event.requests = 12000;
  event.start = 0.0;
  event.end = 600.0;
  event.honeypots = 4;
  EXPECT_DOUBLE_EQ(event.avg_rps(), 12000.0 / 600.0 / 4.0);
}

TEST(FleetMerge, OverlappingEventsCombine) {
  std::vector<AmpPotEvent> events(3);
  const Ipv4Addr victim(9, 9, 9, 9);
  events[0] = {victim, ReflectionProtocol::kNtp, 0.0, 300.0, 500, 1};
  events[1] = {victim, ReflectionProtocol::kNtp, 100.0, 400.0, 450, 1};
  events[2] = {victim, ReflectionProtocol::kNtp, 250.0, 500.0, 480, 1};
  const auto merged = merge_fleet_events(events);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].requests, 1430u);
  EXPECT_EQ(merged[0].honeypots, 3u);
  EXPECT_DOUBLE_EQ(merged[0].start, 0.0);
  EXPECT_DOUBLE_EQ(merged[0].end, 500.0);
}

TEST(FleetMerge, SameHoneypotOverlapCountsOnce) {
  // One honeypot whose log split into two overlapping sessions (e.g. a
  // brief sub-gap lull) must not be double-counted as two reflectors.
  std::vector<AmpPotEvent> events(2);
  const Ipv4Addr victim(9, 9, 9, 9);
  events[0] = {victim, ReflectionProtocol::kNtp, 0.0, 300.0, 500, 1, 7};
  events[1] = {victim, ReflectionProtocol::kNtp, 100.0, 400.0, 450, 1, 7};
  const auto merged = merge_fleet_events(events);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].requests, 950u);
  EXPECT_EQ(merged[0].honeypots, 1u);
  EXPECT_EQ(merged[0].honeypot_id, 7);
}

TEST(FleetMerge, DistinctHoneypotsEachCount) {
  std::vector<AmpPotEvent> events(3);
  const Ipv4Addr victim(9, 9, 9, 9);
  events[0] = {victim, ReflectionProtocol::kNtp, 0.0, 300.0, 500, 1, 3};
  events[1] = {victim, ReflectionProtocol::kNtp, 100.0, 400.0, 450, 1, 5};
  events[2] = {victim, ReflectionProtocol::kNtp, 250.0, 500.0, 480, 1, 3};
  const auto merged = merge_fleet_events(events);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].honeypots, 2u);  // ids {3, 5}; 3 contributes twice
  EXPECT_EQ(merged[0].honeypot_id, -1);  // mixed contributors
}

TEST(Consolidator, TagsEventsWithHoneypotId) {
  const Ipv4Addr victim(9, 9, 9, 9);
  const auto log = flood(victim, ReflectionProtocol::kNtp, 0.0, 200.0, 1.0);
  const auto events = consolidate_log(log, {}, /*honeypot_id=*/11);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].honeypot_id, 11);
  EXPECT_EQ(events[0].honeypots, 1u);
}

TEST(Consolidator, MinRequestsBoundaryIsStrictForAnyConfig) {
  // The "exceeding min_requests" rule is strict for custom configs too.
  const Ipv4Addr victim(9, 9, 9, 9);
  ConsolidatorConfig config;
  config.min_requests = 5;
  auto log = flood(victim, ReflectionProtocol::kSsdp, 0.0, 5.0, 1.0);
  ASSERT_EQ(log.size(), 5u);
  EXPECT_TRUE(consolidate_log(log, config).empty());
  log.push_back({5.0, victim, ReflectionProtocol::kSsdp, 8});
  EXPECT_EQ(consolidate_log(log, config).size(), 1u);
}

// --- consolidate_log golden pins ------------------------------------------
//
// Exact stage-1 output (every field, in emission order) for the session
// rules: gap split, 24 h cap split, the exclusive 100-request threshold, one
// victim under two protocols, and many interleaved victims. The expected
// values were recorded from the ordered-map implementation; any change to
// the open-session container must reproduce them bit for bit.

struct Expected {
  std::uint32_t victim;
  ReflectionProtocol protocol;
  double start;
  double end;
  std::uint64_t requests;
};

void expect_events(const std::vector<AmpPotEvent>& actual,
                   const std::vector<Expected>& expected,
                   std::int32_t honeypot_id) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].victim.value(), expected[i].victim) << "row " << i;
    EXPECT_EQ(actual[i].protocol, expected[i].protocol) << "row " << i;
    EXPECT_EQ(actual[i].start, expected[i].start) << "row " << i;
    EXPECT_EQ(actual[i].end, expected[i].end) << "row " << i;
    EXPECT_EQ(actual[i].requests, expected[i].requests) << "row " << i;
    EXPECT_EQ(actual[i].honeypots, 1u) << "row " << i;
    EXPECT_EQ(actual[i].honeypot_id, honeypot_id) << "row " << i;
  }
}

/// One FNV-1a step per byte of `v`, little-endian.
DOSM_ALLOW_UNSIGNED_WRAP void fnv1a(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
}

/// FNV-1a over every field of every event, in emission order.
std::uint64_t digest(const std::vector<AmpPotEvent>& events) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&](std::uint64_t v) { fnv1a(h, v); };
  for (const auto& e : events) {
    mix(e.victim.value());
    mix(static_cast<std::uint64_t>(e.protocol));
    mix(std::bit_cast<std::uint64_t>(e.start));
    mix(std::bit_cast<std::uint64_t>(e.end));
    mix(e.requests);
    mix(e.honeypots);
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.honeypot_id)));
  }
  return h;
}

TEST(ConsolidatorGolden, GapSplit) {
  const Ipv4Addr victim(9, 9, 9, 9);
  // 150 requests over [0, 149]; a lull of exactly gap_timeout_s (3600 s,
  // not a split); 150 more; then a lull just over the timeout (a split).
  auto log = flood(victim, ReflectionProtocol::kNtp, 0.0, 150.0, 1.0);
  auto second = flood(victim, ReflectionProtocol::kNtp, 3749.0, 3899.0, 1.0);
  auto third = flood(victim, ReflectionProtocol::kNtp, 7498.5, 7648.5, 1.0);
  log.insert(log.end(), second.begin(), second.end());
  log.insert(log.end(), third.begin(), third.end());
  expect_events(consolidate_log(log, {}, 4),
                {{victim.value(), ReflectionProtocol::kNtp, 0.0, 3898.0, 300},
                 {victim.value(), ReflectionProtocol::kNtp, 7498.5, 7647.5,
                  150}},
                4);
}

TEST(ConsolidatorGolden, DurationCapSplit) {
  const Ipv4Addr victim(10, 0, 0, 1);
  // One request every 500 s (well under the gap) for ~44 h: the session is
  // cut when a request lands more than 24 h after the session start.
  const auto log =
      flood(victim, ReflectionProtocol::kDns, 0.0, 161000.5, 1.0 / 500.0);
  ASSERT_EQ(log.size(), 323u);
  expect_events(consolidate_log(log),
                {{victim.value(), ReflectionProtocol::kDns, 0.0, 86000.0, 173},
                 {victim.value(), ReflectionProtocol::kDns, 86500.0, 161000.0,
                  150}},
                -1);
}

TEST(ConsolidatorGolden, HundredVersusHundredAndOne) {
  const Ipv4Addr at_threshold(1, 0, 0, 100), above(1, 0, 0, 101);
  auto log = flood(at_threshold, ReflectionProtocol::kSsdp, 0.0, 100.0, 1.0);
  auto other = flood(above, ReflectionProtocol::kSsdp, 0.5, 101.5, 1.0);
  log.insert(log.end(), other.begin(), other.end());
  std::sort(log.begin(), log.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.ts < b.ts;
            });
  ASSERT_EQ(log.size(), 201u);
  expect_events(consolidate_log(log, {}, 2),
                {{above.value(), ReflectionProtocol::kSsdp, 0.5, 100.5, 101}},
                2);
}

TEST(ConsolidatorGolden, OneVictimTwoProtocols) {
  const Ipv4Addr victim(8, 8, 4, 4);
  std::vector<RequestRecord> log;
  for (int i = 0; i < 400; ++i) {
    const auto protocol =
        i % 3 == 0 ? ReflectionProtocol::kDns : ReflectionProtocol::kCharGen;
    log.push_back({1000.0 + i, victim, protocol, 8});
  }
  // DNS starts first (t = 1000), CharGen a second later.
  expect_events(
      consolidate_log(log, {}, 0),
      {{victim.value(), ReflectionProtocol::kDns, 1000.0, 1399.0, 134},
       {victim.value(), ReflectionProtocol::kCharGen, 1001.0, 1398.0, 266}},
      0);
}

TEST(ConsolidatorGolden, ManyInterleavedVictims) {
  // 60k requests from 60 (victim, protocol) keys with skewed popularity,
  // bursty arrivals and occasional multi-hour lulls, so sessions open, split
  // and close in a heavily interleaved order, on both sides of the request
  // threshold. Repeated timestamps exercise the (start, victim, protocol)
  // emission order.
  Rng rng(20170601);
  std::vector<RequestRecord> log;
  double t = 1.4e9;
  for (int i = 0; i < 60000; ++i) {
    if (rng.bernoulli(0.0003)) t += 3600.0 + rng.uniform(0.0, 7200.0);
    if (!rng.bernoulli(0.2)) t += rng.uniform(0.0, 2.0);
    const auto key =
        static_cast<std::uint32_t>(rng.next_below(rng.next_below(60) + 1));
    log.push_back({t, Ipv4Addr(0xc6336400U + key / 3),
                   static_cast<ReflectionProtocol>(key % 3), 8});
  }
  const auto events = consolidate_log(log, {}, 17);
  EXPECT_EQ(events.size(), 170u);
  EXPECT_EQ(digest(events), 4778198584200676949ULL);
}

TEST(FleetMerge, DistinctProtocolsStaySeparate) {
  std::vector<AmpPotEvent> events(2);
  const Ipv4Addr victim(9, 9, 9, 9);
  events[0] = {victim, ReflectionProtocol::kNtp, 0.0, 300.0, 500, 1};
  events[1] = {victim, ReflectionProtocol::kDns, 0.0, 300.0, 450, 1};
  EXPECT_EQ(merge_fleet_events(events).size(), 2u);
}

TEST(FleetMerge, NonOverlappingStaySeparate) {
  std::vector<AmpPotEvent> events(2);
  const Ipv4Addr victim(9, 9, 9, 9);
  events[0] = {victim, ReflectionProtocol::kNtp, 0.0, 300.0, 500, 1};
  events[1] = {victim, ReflectionProtocol::kNtp, 301.0, 600.0, 450, 1};
  EXPECT_EQ(merge_fleet_events(events).size(), 2u);
}

}  // namespace
}  // namespace dosm::amppot
