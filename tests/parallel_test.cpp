// Parallel execution layer: shard/merge/work-queue unit tests, plus the
// byte-identity property the whole subsystem is built around — the sharded
// detectors' output equals the sequential detectors' output, field for
// field, for every thread and shard count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/headers.h"
#include "parallel/detect.h"
#include "parallel/merge.h"
#include "parallel/shard.h"
#include "parallel/work_queue.h"
#include "parallel/workload.h"
#include "telescope/backscatter.h"

namespace dosm::parallel {
namespace {

using net::Ipv4Addr;

// --- shard.h ------------------------------------------------------------

TEST(Shard, SingleShardTakesEverything) {
  EXPECT_EQ(shard_of(Ipv4Addr(0, 0, 0, 0), 1), 0u);
  EXPECT_EQ(shard_of(Ipv4Addr(255, 255, 255, 255), 1), 0u);
}

TEST(Shard, StableAndInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const Ipv4Addr victim(static_cast<std::uint32_t>(rng.next_u64()));
    for (std::size_t n : {2u, 3u, 8u, 13u}) {
      const std::size_t s = shard_of(victim, n);
      EXPECT_LT(s, n);
      EXPECT_EQ(s, shard_of(victim, n));  // pure function of (victim, n)
    }
  }
}

TEST(Shard, Mix32SpreadsSequentialAddresses) {
  // Victims handed out sequentially (common in synthetic workloads) must
  // not collapse onto a few shards; mix32 avalanches the low bits.
  constexpr std::size_t kShards = 8;
  std::vector<std::size_t> counts(kShards, 0);
  for (std::uint32_t v = 0; v < 4096; ++v)
    ++counts[shard_of(Ipv4Addr(0x0a000000u + v), kShards)];
  for (const std::size_t count : counts) {
    EXPECT_GT(count, 4096u / kShards / 2);  // no starved shard
    EXPECT_LT(count, 4096u / kShards * 2);  // no hot shard
  }
}

// --- merge.h ------------------------------------------------------------

TEST(KwayMerge, EqualsSortedConcatenation) {
  Rng rng(11);
  std::vector<std::vector<int>> runs(5);
  std::vector<int> expected;
  for (auto& run : runs) {
    const std::size_t len = rng.next_below(40);
    for (std::size_t i = 0; i < len; ++i)
      run.push_back(static_cast<int>(rng.next_below(100)));
    std::sort(run.begin(), run.end());
    expected.insert(expected.end(), run.begin(), run.end());
  }
  std::sort(expected.begin(), expected.end());
  const auto merged =
      kway_merge(std::move(runs), [](int a, int b) { return a < b; });
  EXPECT_EQ(merged, expected);
}

TEST(KwayMerge, TiesGoToLowerRunIndex) {
  // Strict-less comparison: on equal keys the element from the
  // lower-indexed run is emitted first, making the merge deterministic.
  using Tagged = std::pair<int, char>;
  std::vector<std::vector<Tagged>> runs = {
      {{1, 'a'}, {3, 'a'}},
      {{1, 'b'}, {2, 'b'}, {3, 'b'}},
  };
  const auto merged = kway_merge(
      std::move(runs),
      [](const Tagged& a, const Tagged& b) { return a.first < b.first; });
  const std::vector<Tagged> expected = {
      {1, 'a'}, {1, 'b'}, {2, 'b'}, {3, 'a'}, {3, 'b'}};
  EXPECT_EQ(merged, expected);
}

TEST(KwayMerge, HandlesEmptyAndSingletonRuns) {
  std::vector<std::vector<int>> runs = {{}, {5}, {}, {1, 9}, {}};
  const auto merged =
      kway_merge(std::move(runs), [](int a, int b) { return a < b; });
  EXPECT_EQ(merged, (std::vector<int>{1, 5, 9}));
  EXPECT_TRUE(kway_merge(std::vector<std::vector<int>>{},
                         [](int a, int b) { return a < b; })
                  .empty());
}

// --- work_queue.h -------------------------------------------------------

TEST(WorkQueue, RunsEveryTaskExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    constexpr std::size_t kTasks = 100;
    std::vector<std::atomic<int>> hits(kTasks);
    run_tasks(kTasks, threads,
              [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(WorkQueue, ZeroTasksIsANoOp) {
  run_tasks(0, 4, [](std::size_t) { FAIL() << "task ran"; });
}

TEST(WorkQueue, PropagatesFirstException) {
  for (const int threads : {1, 4}) {
    EXPECT_THROW(
        run_tasks(10, threads,
                  [](std::size_t i) {
                    if (i == 3) throw std::runtime_error("boom");
                  }),
        std::runtime_error);
  }
}

// --- detector byte-identity --------------------------------------------

WorkloadConfig test_config() {
  WorkloadConfig config;
  config.seed = 1234;
  config.direct_attacks = 40;
  config.reflection_attacks = 8;
  config.window_s = 1800.0;
  return config;
}

/// Shared read-only workload (logs are consumed only by the harvest test,
/// which makes its own copies).
const DetectWorkload& shared_workload() {
  static const DetectWorkload workload = make_workload(test_config());
  return workload;
}

std::vector<HoneypotLog> logs_of(const DetectWorkload& workload) {
  std::vector<HoneypotLog> logs;
  for (const auto& honeypot : workload.fleet->honeypots())
    logs.push_back({honeypot.id(), honeypot.log()});
  return logs;
}

void expect_identical(const std::vector<telescope::TelescopeEvent>& actual,
                      const std::vector<telescope::TelescopeEvent>& expected,
                      const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const auto& a = actual[i];
    const auto& e = expected[i];
    EXPECT_EQ(a.victim, e.victim) << label << " row " << i;
    EXPECT_EQ(a.start, e.start) << label << " row " << i;
    EXPECT_EQ(a.end, e.end) << label << " row " << i;
    EXPECT_EQ(a.packets, e.packets) << label << " row " << i;
    EXPECT_EQ(a.bytes, e.bytes) << label << " row " << i;
    EXPECT_EQ(a.unique_sources, e.unique_sources) << label << " row " << i;
    EXPECT_EQ(a.num_ports, e.num_ports) << label << " row " << i;
    EXPECT_EQ(a.top_port, e.top_port) << label << " row " << i;
    EXPECT_EQ(a.attack_proto, e.attack_proto) << label << " row " << i;
    EXPECT_EQ(a.max_pps, e.max_pps) << label << " row " << i;
  }
}

void expect_identical(const std::vector<amppot::AmpPotEvent>& actual,
                      const std::vector<amppot::AmpPotEvent>& expected,
                      const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const auto& a = actual[i];
    const auto& e = expected[i];
    EXPECT_EQ(a.victim, e.victim) << label << " row " << i;
    EXPECT_EQ(a.protocol, e.protocol) << label << " row " << i;
    EXPECT_EQ(a.start, e.start) << label << " row " << i;
    EXPECT_EQ(a.end, e.end) << label << " row " << i;
    EXPECT_EQ(a.requests, e.requests) << label << " row " << i;
    EXPECT_EQ(a.honeypots, e.honeypots) << label << " row " << i;
    EXPECT_EQ(a.honeypot_id, e.honeypot_id) << label << " row " << i;
  }
}

TEST(ParallelDetect, TelescopeMatchesSequentialForAnyThreadCount) {
  const auto& workload = shared_workload();

  std::vector<telescope::TelescopeEvent> expected;
  telescope::BackscatterDetector sequential(
      [&](const telescope::TelescopeEvent& e) { expected.push_back(e); });
  for (const auto& rec : workload.packets) sequential.on_packet(rec);
  sequential.finish();
  canonical_sort(expected);
  ASSERT_FALSE(expected.empty()) << "workload produced no telescope events";

  const std::pair<int, int> configs[] = {{1, 0}, {2, 0}, {8, 0},
                                         {3, 13}, {1, 5}};
  for (const auto& [threads, shards] : configs) {
    ParallelBackscatterDetector detector(ParallelConfig{threads, shards});
    const auto events = detector.detect(workload.packets);
    expect_identical(events, expected,
                     "threads=" + std::to_string(threads) +
                         " shards=" + std::to_string(shards));
    EXPECT_EQ(detector.stats().packets_seen, sequential.packets_seen());
    EXPECT_EQ(detector.stats().backscatter_packets,
              sequential.backscatter_packets());
    EXPECT_EQ(detector.stats().flows_filtered, sequential.flows_filtered());
    EXPECT_EQ(detector.stats().events_emitted, sequential.events_emitted());
  }
}

TEST(ParallelDetect, ConsolidateMatchesSequentialForAnyThreadCount) {
  const auto& workload = shared_workload();
  const auto logs = logs_of(workload);

  std::vector<amppot::AmpPotEvent> stage1;
  for (const auto& log : logs) {
    const auto events =
        amppot::consolidate_log(log.requests, {}, log.honeypot_id);
    stage1.insert(stage1.end(), events.begin(), events.end());
  }
  auto expected = amppot::merge_fleet_events(std::move(stage1));
  canonical_sort(expected);
  ASSERT_FALSE(expected.empty()) << "workload produced no honeypot events";

  const std::pair<int, int> configs[] = {{1, 0}, {2, 0}, {8, 0}, {3, 13}};
  for (const auto& [threads, shards] : configs) {
    const auto events =
        parallel_consolidate(logs, {}, ParallelConfig{threads, shards});
    expect_identical(events, expected,
                     "threads=" + std::to_string(threads) +
                         " shards=" + std::to_string(shards));
  }
}

TEST(ParallelDetect, HarvestMatchesFleetHarvest) {
  // harvest() consumes the logs, so each side gets its own identically
  // seeded workload.
  auto sequential_side = make_workload(test_config());
  auto parallel_side = make_workload(test_config());

  auto expected = sequential_side.fleet->harvest();
  canonical_sort(expected);

  const auto events =
      parallel_harvest(*parallel_side.fleet, {}, ParallelConfig{4, 0});
  expect_identical(events, expected, "parallel_harvest threads=4");
  // Logs are cleared afterwards, like HoneypotFleet::harvest.
  for (const auto& honeypot : parallel_side.fleet->honeypots())
    EXPECT_TRUE(honeypot.log().empty());
}

// --- sweep-boundary captures --------------------------------------------
//
// FlowTable expires idle flows lazily, at sweeps that fire when a packet
// arrives 60 s or more after the previous sweep. Whether a flow expires, and
// so whether a victim's later packets join it or open a new one, depends on
// the timestamps of every packet in the capture, not only the victim's own.
// These hand-built captures put the expiring (or non-expiring) sweep on
// another shard's packets or on non-backscatter packets.

constexpr UnixSeconds kT0 = 1'500'000'000;  // a whole minute: kT0 % 60 == 0

/// TCP SYN-ACK backscatter from `victim` at kT0 + sec + usec.
net::PacketRecord backscatter(Ipv4Addr victim, std::int64_t sec,
                              std::uint32_t usec = 0) {
  net::PacketRecord rec;
  rec.ts_sec = kT0 + sec;
  rec.ts_usec = usec;
  rec.src = victim;
  rec.dst = Ipv4Addr(44, 0, static_cast<std::uint8_t>(sec & 0xff),
                     static_cast<std::uint8_t>((sec >> 8) & 0xff));
  rec.proto = static_cast<std::uint8_t>(net::IpProto::kTcp);
  rec.ip_len = 40;
  rec.src_port = 80;
  rec.dst_port = 40000;
  rec.tcp_flags = net::tcp_flags::kSyn | net::tcp_flags::kAck;
  return rec;
}

/// A UDP scan packet: seen by the detector, but not backscatter.
net::PacketRecord noise(std::int64_t sec, std::uint32_t usec = 0) {
  net::PacketRecord rec;
  rec.ts_sec = kT0 + sec;
  rec.ts_usec = usec;
  rec.src = Ipv4Addr(203, 0, 113, 9);
  rec.dst = Ipv4Addr(44, 1, 2, 3);
  rec.proto = static_cast<std::uint8_t>(net::IpProto::kUdp);
  rec.ip_len = 60;
  rec.src_port = 5353;
  rec.dst_port = 53;
  return rec;
}

/// One backscatter packet per second from `victim` over [from, to].
void burst(std::vector<net::PacketRecord>& capture, Ipv4Addr victim,
           std::int64_t from, std::int64_t to) {
  for (std::int64_t t = from; t <= to; ++t)
    capture.push_back(backscatter(victim, t));
}

void sort_by_time(std::vector<net::PacketRecord>& capture) {
  std::stable_sort(capture.begin(), capture.end(),
                   [](const net::PacketRecord& a, const net::PacketRecord& b) {
                     return a.timestamp() < b.timestamp();
                   });
}

const Ipv4Addr kVictimA(192, 0, 2, 1);

/// A victim whose shard differs from kVictimA's at every sharded count the
/// matrix below uses, so A's expiry must come from another shard's packets.
Ipv4Addr victim_on_other_shard() {
  for (std::uint32_t v = 0xc6336401U;; ++v) {
    const Ipv4Addr candidate(v);
    bool distinct = true;
    for (const std::size_t n : {3u, 13u, 64u})
      distinct &= shard_of(candidate, n) != shard_of(kVictimA, n);
    if (distinct) return candidate;
  }
}

struct SequentialResult {
  std::vector<telescope::TelescopeEvent> events;
  TelescopeDetectStats stats;
};

SequentialResult run_sequential(std::span<const net::PacketRecord> capture) {
  SequentialResult result;
  telescope::BackscatterDetector sequential(
      [&](const telescope::TelescopeEvent& e) { result.events.push_back(e); });
  for (const auto& rec : capture) sequential.on_packet(rec);
  sequential.finish();
  canonical_sort(result.events);
  result.stats = {sequential.packets_seen(), sequential.backscatter_packets(),
                  sequential.flows_filtered(), sequential.events_emitted()};
  return result;
}

/// The sharded detector must equal the sequential one, events and counters,
/// at threads {1, 2, 4, 8} x shards {0, 3, 13, 64}.
void expect_matches_sequential(std::span<const net::PacketRecord> capture,
                               const SequentialResult& expected) {
  for (const int threads : {1, 2, 4, 8}) {
    for (const int shards : {0, 3, 13, 64}) {
      const std::string label = "threads=" + std::to_string(threads) +
                                " shards=" + std::to_string(shards);
      ParallelBackscatterDetector detector(ParallelConfig{threads, shards});
      expect_identical(detector.detect(capture), expected.events, label);
      const TelescopeDetectStats& stats = detector.stats();
      EXPECT_EQ(stats.packets_seen, expected.stats.packets_seen) << label;
      EXPECT_EQ(stats.backscatter_packets, expected.stats.backscatter_packets)
          << label;
      EXPECT_EQ(stats.flows_filtered, expected.stats.flows_filtered) << label;
      EXPECT_EQ(stats.events_emitted, expected.stats.events_emitted) << label;
    }
  }
}

std::size_t events_of(const std::vector<telescope::TelescopeEvent>& events,
                      Ipv4Addr victim) {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [&](const auto& e) { return e.victim == victim; }));
}

TEST(ParallelSweep, OtherShardsTrafficExpiresIdleFlow) {
  // A attacks for 30 s, then only B's backscatter and scan noise arrive for
  // 400 s, then A attacks again. A sweep fired by B's or the noise's
  // packets expires A's first flow before A returns.
  const Ipv4Addr b = victim_on_other_shard();
  std::vector<net::PacketRecord> capture;
  burst(capture, kVictimA, 0, 29);
  for (std::int64_t t = 30; t < 430; t += 5) {
    capture.push_back(t % 10 == 0 ? backscatter(b, t) : noise(t));
  }
  burst(capture, kVictimA, 430, 529);
  sort_by_time(capture);

  const auto expected = run_sequential(capture);
  ASSERT_EQ(events_of(expected.events, kVictimA), 1u);  // the 100-s burst
  EXPECT_EQ(expected.stats.flows_filtered, 2u);  // A's 30-s burst, and B
  expect_matches_sequential(capture, expected);
}

TEST(ParallelSweep, LateSweepKeepsReturningVictimInOneFlow) {
  // A is idle for 306 s, past the 300 s timeout, but the last sweep before
  // A returns (fired by scan noise at t = 360, after B's packets fired the
  // ones before it) came when A had been idle only 271 s, and A's return
  // 35 s later is too soon for another sweep. The
  // sequential detector therefore folds A's second burst into its first
  // flow; a shard that swept on its own packets alone would split it.
  const Ipv4Addr b = victim_on_other_shard();
  std::vector<net::PacketRecord> capture;
  burst(capture, kVictimA, 0, 89);
  for (std::int64_t t = 100; t <= 300; t += 10)
    capture.push_back(backscatter(b, t));
  for (std::int64_t t = 310; t <= 390; t += 10) capture.push_back(noise(t));
  burst(capture, kVictimA, 395, 484);
  sort_by_time(capture);

  const auto expected = run_sequential(capture);
  ASSERT_EQ(events_of(expected.events, kVictimA), 1u);
  EXPECT_EQ(expected.events.front().packets, 180u);
  expect_matches_sequential(capture, expected);
}

TEST(ParallelSweep, SweepsExactlySixtySecondsApart) {
  // Non-backscatter packets exactly 60.0 s apart each fire a sweep (the
  // rule is now - last_sweep >= 60). A returns 35 s after the sweep at
  // t = 360, when it had been idle 271 s, so it stays one flow; one
  // microsecond short of 60 s (t = 419.999999) fires no sweep.
  std::vector<net::PacketRecord> capture;
  burst(capture, kVictimA, 0, 89);
  for (std::int64_t t = 120; t <= 360; t += 60) capture.push_back(noise(t));
  burst(capture, kVictimA, 395, 419);
  capture.push_back(noise(419, 999999));
  burst(capture, kVictimA, 420, 484);
  sort_by_time(capture);

  const auto expected = run_sequential(capture);
  ASSERT_EQ(events_of(expected.events, kVictimA), 1u);
  expect_matches_sequential(capture, expected);

  // Moving the last grid packet one microsecond earlier (t = 359.999999)
  // drops its sweep: the last sweep before A's return is at t = 300, so
  // A's return itself sweeps (95 s later) and splits the flow.
  std::vector<net::PacketRecord> shifted;
  burst(shifted, kVictimA, 0, 89);
  for (std::int64_t t = 120; t <= 300; t += 60) shifted.push_back(noise(t));
  shifted.push_back(noise(359, 999999));
  burst(shifted, kVictimA, 395, 484);
  sort_by_time(shifted);

  const auto split = run_sequential(shifted);
  ASSERT_EQ(events_of(split.events, kVictimA), 2u);
  expect_matches_sequential(shifted, split);
}

TEST(ParallelSweep, EmptyCapture) {
  const std::vector<net::PacketRecord> capture;
  const auto expected = run_sequential(capture);
  ASSERT_TRUE(expected.events.empty());
  expect_matches_sequential(capture, expected);
}

TEST(ParallelSweep, AllNonBackscatterCapture) {
  std::vector<net::PacketRecord> capture;
  for (std::int64_t t = 0; t < 1000; t += 7) capture.push_back(noise(t));
  const auto expected = run_sequential(capture);
  ASSERT_TRUE(expected.events.empty());
  ASSERT_EQ(expected.stats.packets_seen, capture.size());
  expect_matches_sequential(capture, expected);
}

TEST(ParallelSweep, MoreShardsThanVictims) {
  // Three victims, up to 64 shards: most shards own no packets and see
  // only the sweep ticks.
  const Ipv4Addr c(198, 51, 100, 7);
  const Ipv4Addr b = victim_on_other_shard();
  std::vector<net::PacketRecord> capture;
  burst(capture, kVictimA, 0, 119);
  burst(capture, b, 60, 200);
  burst(capture, c, 500, 600);
  burst(capture, kVictimA, 900, 1000);
  for (std::int64_t t = 0; t < 1200; t += 45) capture.push_back(noise(t));
  sort_by_time(capture);

  const auto expected = run_sequential(capture);
  ASSERT_EQ(expected.events.size(), 4u);
  expect_matches_sequential(capture, expected);
}

// --- parallel_consolidate edge cases ------------------------------------

/// Sequential oracle: stage 1 per log, then one fleet merge.
std::vector<amppot::AmpPotEvent> sequential_consolidate(
    std::span<const HoneypotLog> logs) {
  std::vector<amppot::AmpPotEvent> stage1;
  for (const auto& log : logs) {
    const auto events =
        amppot::consolidate_log(log.requests, {}, log.honeypot_id);
    stage1.insert(stage1.end(), events.begin(), events.end());
  }
  return amppot::merge_fleet_events(std::move(stage1));
}

std::vector<amppot::RequestRecord> reflection_log(Ipv4Addr victim,
                                                  double start, int count) {
  std::vector<amppot::RequestRecord> log;
  for (int i = 0; i < count; ++i)
    log.push_back({start + i, victim, amppot::ReflectionProtocol::kNtp, 48});
  return log;
}

TEST(ParallelConsolidate, EmptyLogsAndNoLogs) {
  EXPECT_TRUE(parallel_consolidate({}, {}, ParallelConfig{4, 0}).empty());

  const std::vector<amppot::RequestRecord> empty;
  const auto full = reflection_log(Ipv4Addr(9, 9, 9, 9), 0.0, 150);
  const std::vector<HoneypotLog> logs = {{0, empty}, {1, full}, {2, empty}};
  const auto expected = sequential_consolidate(logs);
  ASSERT_EQ(expected.size(), 1u);
  for (const int threads : {1, 2, 8}) {
    expect_identical(parallel_consolidate(logs, {}, ParallelConfig{threads, 0}),
                     expected, "threads=" + std::to_string(threads));
  }
}

TEST(ParallelConsolidate, MoreThreadsThanLogs) {
  // Two honeypots see overlapping floods of one victim: the fleet merge
  // folds them into one event with two contributors.
  const Ipv4Addr victim(10, 1, 2, 3);
  const auto first = reflection_log(victim, 0.0, 300);
  const auto second = reflection_log(victim, 100.0, 300);
  const std::vector<HoneypotLog> logs = {{5, first}, {6, second}};
  const auto expected = sequential_consolidate(logs);
  ASSERT_EQ(expected.size(), 1u);
  ASSERT_EQ(expected[0].honeypots, 2u);
  for (const int shards : {0, 3, 64}) {
    expect_identical(parallel_consolidate(logs, {}, ParallelConfig{16, shards}),
                     expected, "threads=16 shards=" + std::to_string(shards));
  }
}

TEST(ParallelConsolidate, UnknownHoneypotIds) {
  // honeypot_id = -1 marks an unknown reflector: overlapping events keep
  // their own counts instead of deduplicating by id.
  const Ipv4Addr victim(10, 9, 8, 7);
  const auto a = reflection_log(victim, 0.0, 200);
  const auto b = reflection_log(victim, 50.0, 200);
  const auto c = reflection_log(Ipv4Addr(10, 9, 8, 6), 75.0, 200);
  const std::vector<HoneypotLog> logs = {{-1, a}, {-1, b}, {3, c}, {-1, c}};
  const auto expected = sequential_consolidate(logs);
  ASSERT_EQ(expected.size(), 2u);
  for (const int threads : {1, 3, 8}) {
    expect_identical(parallel_consolidate(logs, {}, ParallelConfig{threads, 0}),
                     expected, "threads=" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace dosm::parallel
